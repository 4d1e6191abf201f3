//! Golden pins for the multi-hart litmus tier.
//!
//! Fixed-seed litmus programs on a dual-core `small-nh` must (a) halt
//! divergence-free with every outcome in the shape's allowed set, (b)
//! reproduce their exact observed-outcome histogram across reruns (the
//! cycle model is deterministic), and (c) with the §IV-C L2 probe/grant
//! race injected, raise a `ForbiddenOutcome` that replays at the same
//! commit index. A changed histogram means the timing model shifted —
//! justify the delta, don't loosen the pin.

use campaign::{verify_bundle, Campaign, JobSpec, Verdict, WorkloadSource};
use minjie::{CoSim, CoSimEnd};
use workloads::litmus::{status, LitmusConfig, LitmusExit, LitmusShape};
use workloads::random_litmus;
use xscore::XsConfig;

fn dual_small_nh() -> XsConfig {
    let mut c = XsConfig::preset("small-nh").expect("preset exists");
    c.cores = 2;
    c
}

fn run_litmus(seed: u64, cfg: &LitmusConfig) -> LitmusExit {
    let p = random_litmus(seed, cfg);
    let mut cosim = CoSim::new(dual_small_nh(), &p);
    match cosim.run(6_000_000) {
        CoSimEnd::Halted(code) => LitmusExit::decode(code),
        other => panic!("litmus {:?} seed {seed}: {other:?}", cfg.shape),
    }
}

#[test]
fn every_shape_halts_clean_on_dual_core() {
    for shape in LitmusShape::ALL {
        for fenced in [false, true] {
            let cfg = LitmusConfig {
                shape,
                fenced,
                rounds: 4,
                ..LitmusConfig::default()
            };
            let exit = run_litmus(1, &cfg);
            assert_eq!(
                exit.status,
                status::OK,
                "{shape:?} fenced={fenced}: {exit:?} (outcome {})",
                LitmusExit::describe_outcome(exit.first_bad_outcome)
            );
        }
    }
}

#[test]
fn lrsc_contention_many_seeds() {
    for seed in 0..20u64 {
        let cfg = LitmusConfig {
            shape: LitmusShape::LrScContention,
            rounds: 6,
            ..LitmusConfig::default()
        };
        let exit = run_litmus(seed, &cfg);
        assert_eq!(exit.status, status::OK, "seed {seed}: {exit:?}");
    }
}

/// Round-0 outcome histogram over seeds 0..8 for every shape × fence,
/// pinned to the exact values the deterministic dual-core model
/// produces today. The outcome index packs the two observed digits as
/// `d0 << 2 | d1`.
#[test]
fn outcome_histograms_are_pinned() {
    // (shape, fenced, [(outcome index, count)])
    type Pin = (LitmusShape, bool, &'static [(u8, u32)]);
    let pins: &[Pin] = &[
        (LitmusShape::Mp, false, &[(1, 8)]),
        (LitmusShape::Mp, true, &[(0, 8)]),
        (LitmusShape::Sb, false, &[(0, 8)]),
        (LitmusShape::Sb, true, &[(5, 8)]),
        (LitmusShape::Lb, false, &[(0, 8)]),
        (LitmusShape::Lb, true, &[(0, 8)]),
        (LitmusShape::CoRR, false, &[(0, 8)]),
        (LitmusShape::CoRR, true, &[(0, 8)]),
        (LitmusShape::CoWW, false, &[(0, 8)]),
        (LitmusShape::CoWW, true, &[(0, 8)]),
        (LitmusShape::TwoPlusTwoW, false, &[(9, 8)]),
        (LitmusShape::TwoPlusTwoW, true, &[(9, 8)]),
        (LitmusShape::LrScContention, false, &[(0, 8)]),
        (LitmusShape::LrScContention, true, &[(0, 8)]),
        (LitmusShape::FenceTorture, false, &[(0, 4), (1, 4)]),
        (LitmusShape::FenceTorture, true, &[(0, 4), (1, 4)]),
    ];
    for &(shape, fenced, expected) in pins {
        let mut hist = [0u32; 16];
        for seed in 0..8u64 {
            let cfg = LitmusConfig {
                shape,
                fenced,
                rounds: 4,
                ..LitmusConfig::default()
            };
            let exit = run_litmus(seed, &cfg);
            assert_eq!(exit.status, status::OK, "{shape:?} fenced={fenced} seed={seed}");
            hist[(exit.round0_outcome & 0xf) as usize] += 1;
        }
        let got: Vec<(u8, u32)> = hist
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (i as u8, n))
            .collect();
        assert_eq!(got, expected, "{shape:?} fenced={fenced} histogram moved");
    }
}

/// The same seed must reproduce the identical packed exit word —
/// status, round-0 outcome, and first-bad fields — across reruns.
#[test]
fn reruns_are_byte_identical() {
    for shape in [LitmusShape::Mp, LitmusShape::Sb, LitmusShape::FenceTorture] {
        let cfg = LitmusConfig {
            shape,
            rounds: 4,
            ..LitmusConfig::default()
        };
        let a = run_litmus(7, &cfg);
        let b = run_litmus(7, &cfg);
        assert_eq!(a, b, "{shape:?}: rerun drifted");
    }
}

/// §IV-C probe/grant race pin: with the fault injected into L2 bank 0,
/// a fenced SB program commits a forbidden (0,0) observation — the
/// injected corruption makes hart 1 miss hart 0's store while both
/// fences are in place. The campaign must classify it as
/// `ForbiddenOutcome`, triage it into a bundle, and the bundle must
/// re-execute to the same exit word at the identical commit index.
#[test]
fn l2_race_forbidden_outcome_replays_at_same_commit() {
    let cfg = LitmusConfig {
        shape: LitmusShape::Sb,
        fenced: true,
        rounds: 4,
        ..LitmusConfig::default()
    };
    let spec = JobSpec::new(WorkloadSource::litmus(0, cfg), "small-nh")
        .with_cores(2)
        .with_l2_race()
        .with_max_cycles(400_000);
    let report = Campaign::new(vec![spec])
        .with_workers(1)
        .with_minimization(true)
        .with_triage(true)
        .run();
    assert_eq!(report.summary.forbidden, 1, "fault not caught: {:?}", report.jobs[0].verdict);
    let job = &report.jobs[0];
    let Verdict::ForbiddenOutcome { round, outcome, exit_code, .. } = &job.verdict else {
        panic!("expected ForbiddenOutcome, got {:?}", job.verdict);
    };
    let exit = LitmusExit::decode(*exit_code);
    assert_eq!(exit.status, status::FORBIDDEN);
    assert_eq!(u64::from(exit.first_bad_round), *round);
    assert_eq!(u64::from(exit.first_bad_outcome), *outcome);
    // A minimized reproducer exists and still triggers on a subset.
    let m = job.minimized.as_ref().expect("minimized repro");
    assert_eq!(m.error_class, "ForbiddenOutcome");
    assert!(m.litmus.is_some() && m.torture.is_none());
    assert!(m.minimized_kept <= m.original_kept);
    // The triage bundle replays from reset to the identical commit.
    let bundle = job.triage.as_ref().expect("triage bundle");
    assert_eq!(bundle.trigger, "forbidden-outcome");
    assert!(bundle.reproduced, "in-process triage replay failed");
    let v = verify_bundle(bundle).expect("bundle verifies");
    assert!(v.reproduced, "bundle re-execution drifted: {}", v.detail);
    assert_eq!(v.at_commit, bundle.at_commit);
}
