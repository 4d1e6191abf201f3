//! Rollback-replay determinism: the property the whole triage loop
//! rests on. Restoring the older LightSSS snapshot (a COW clone) and
//! re-running to the failure must reproduce the *identical* commit
//! trace and the *identical* diff-rule verdict — replay is a pure
//! function of the snapshot, not of when or how often it runs.

use minjie::{debug_window, CoSim, CoSimEnd};
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
        let replay = || {
            let from = cosim.rollback_point();
            let (cycle, reset) = (from.snapshot_cycle, from.fallback_reset);
            let w = debug_window(Box::new(move || from.state), bug.at_cycle - cycle + 10_000);
            (cycle, reset, w)
        };
        let ((from1, reset1, r1), (from2, reset2, r2)) = (replay(), replay());
        prop_assert_eq!(r1.error.as_ref(), Some(&bug.error), "first replay reproduces");
        prop_assert_eq!(r2.error.as_ref(), Some(&bug.error), "second replay reproduces");
        prop_assert_eq!(r1.at_commit, bug.at_commit, "replay hits the detection anchor");
        prop_assert_eq!(r1.at_commit, r2.at_commit);
        prop_assert_eq!(from1, from2);
        prop_assert_eq!(reset1, reset2);
        prop_assert_eq!(r1.at_cycle - from1, r2.at_cycle - from2, "cycles replayed");
        prop_assert_eq!(r1.window_cpi, r2.window_cpi);
        prop_assert_eq!(
            r1.trace.to_json(),
            r2.trace.to_json(),
            "identical commit traces"
        );
    }
}
