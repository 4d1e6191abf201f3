//! Rollback-replay determinism: the property the whole triage loop
//! rests on. Restoring the older LightSSS snapshot (a COW clone) and
//! re-running to the failure must reproduce the *identical* commit
//! trace and the *identical* diff-rule verdict — replay is a pure
//! function of the snapshot, not of when or how often it runs.

use minjie::{CoSim, CoSimEnd};
use proptest::prelude::*;
use workloads::{TortureConfig, TortureProgram};
use xscore::{InjectedBug, XsConfig};

proptest! {
    // Each case boots a full co-simulation and replays it twice — keep
    // the case count low; the seeds still cover distinct programs.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn snapshot_replay_is_deterministic(seed in 0u64..64) {
        let tcfg = TortureConfig {
            body_len: 60,
            iterations: 30,
            ..Default::default()
        };
        let program = TortureProgram::generate(seed, &tcfg).emit();
        let mut cfg = XsConfig::preset("small-nh").expect("preset exists");
        cfg.run.injected_bug = Some(InjectedBug::MulLowBit);
        let mut cosim = CoSim::new(cfg, &program).with_lightsss(500);
        let end = cosim.run(2_000_000);
        let CoSimEnd::Bug(bug) = end else {
            // Not every torture seed executes a Mul: those runs halt
            // cleanly and there is nothing to replay.
            return Ok(());
        };

        // Replay from the retained snapshot twice. Both replays run on
        // independent COW clones of the same snapshot, so they must be
        // indistinguishable: same verdict, same commit anchor, same
        // per-cycle commit trace.
        let r1 = cosim.replay(&bug.error).expect("lightsss enabled");
        let r2 = cosim.replay(&bug.error).expect("lightsss enabled");
        prop_assert!(r1.reproduced, "first replay reproduces");
        prop_assert!(r2.reproduced, "second replay reproduces");
        prop_assert_eq!(r1.at_commit, bug.at_commit, "replay hits the detection anchor");
        prop_assert_eq!(r1.at_commit, r2.at_commit);
        prop_assert_eq!(r1.from_cycle, r2.from_cycle);
        prop_assert_eq!(r1.fallback_reset, r2.fallback_reset);
        prop_assert_eq!(r1.cycles_replayed, r2.cycles_replayed);
        prop_assert_eq!(r1.window_cpi, r2.window_cpi);
        prop_assert_eq!(
            r1.trace.to_json(),
            r2.trace.to_json(),
            "identical commit traces"
        );
    }
}
