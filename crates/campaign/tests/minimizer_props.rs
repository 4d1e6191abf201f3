//! Property tests for the ddmin minimizer (ISSUE satellite): shrinking
//! is monotone and never grows, results are subsets, and — against the
//! real co-simulator with an armed DUT bug — the minimized program
//! reproduces the same `DiffError` class as the original failure.

use campaign::{error_class, minimize};
use minjie::{run_isolated, CoSim, CoSimEnd};
use proptest::prelude::*;
use workloads::{TortureConfig, TortureProgram};
use xscore::{InjectedBug, XsConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Synthetic oracle: the failure needs every index of a culprit set.
    /// The minimizer must return exactly that set (1-minimality), as a
    /// subset of the input, with monotone non-increasing steps.
    #[test]
    fn minimize_is_monotone_and_exact(
        len in 4usize..80,
        c1 in 0usize..80,
        c2 in 0usize..80,
    ) {
        let c1 = c1 % len;
        let c2 = c2 % len;
        let initial = vec![true; len];
        let out = minimize(&initial, |m| m[c1] && m[c2]);
        // Never grows, each accepted step shrinks or holds.
        for w in out.steps.windows(2) {
            prop_assert!(w[1] <= w[0], "steps grew: {:?}", out.steps);
        }
        // Subset of the input.
        for (i, &k) in out.kept.iter().enumerate() {
            prop_assert!(!k || initial[i]);
        }
        // Exactly the culprit set.
        let expect = if c1 == c2 { 1 } else { 2 };
        prop_assert_eq!(out.kept_count(), expect);
        prop_assert!(out.kept[c1] && out.kept[c2]);
    }

    /// Sparse initial masks: the result is still a subset and the oracle
    /// still accepts the final mask.
    #[test]
    fn minimize_respects_partial_initial_masks(
        bits in prop::collection::vec(any::<bool>(), 8..60),
        culprit in 0usize..60,
    ) {
        let mut initial = bits.clone();
        let culprit = culprit % initial.len();
        initial[culprit] = true; // ensure the failure is representable
        let out = minimize(&initial, |m| m[culprit]);
        for (i, &k) in out.kept.iter().enumerate() {
            prop_assert!(!k || initial[i], "index {} not in the initial mask", i);
        }
        prop_assert_eq!(out.kept_count(), 1);
        prop_assert!(out.kept[culprit]);
        for w in out.steps.windows(2) {
            prop_assert!(w[1] <= w[0]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Against the real CoSim: whenever a seed diverges under the armed
    /// Mul bug, the minimized subset reproduces the same error class and
    /// never keeps more slots than it started with.
    #[test]
    fn minimized_torture_program_reproduces_the_same_error_class(seed in 0u64..500) {
        let tcfg = TortureConfig { body_len: 30, iterations: 4, ..Default::default() };
        let cfg = || {
            let mut cfg = XsConfig::preset("small-nh").expect("preset exists");
            cfg.run.injected_bug = Some(InjectedBug::MulLowBit);
            cfg
        };
        let run = |p| run_isolated(Box::new(|| CoSim::new(cfg(), &p)), None, 2_000_000, None);
        let t = TortureProgram::generate(seed, &tcfg);
        let full = run(t.emit()).expect("no panic");
        let CoSimEnd::Bug(bug) = full.end else {
            // This seed drew no Mul: nothing to minimize.
            return Ok(());
        };
        let class = error_class(&bug.error);
        let initial = vec![true; t.len()];
        let out = minimize(&initial, |mask| {
            matches!(
                run(t.emit_subset(mask)),
                Ok(minjie::RunStats { end: CoSimEnd::Bug(b), .. })
                    if error_class(&b.error) == class
            )
        });
        for w in out.steps.windows(2) {
            prop_assert!(w[1] <= w[0], "shrinking grew: {:?}", out.steps);
        }
        prop_assert!(out.kept_count() <= t.len());
        // The final mask reproduces the class (the oracle accepted it).
        let replay = run(t.emit_subset(&out.kept)).expect("no panic");
        match replay.end {
            CoSimEnd::Bug(b) => prop_assert_eq!(error_class(&b.error), class),
            other => {
                return Err(TestCaseError::fail(format!(
                    "minimized mask no longer diverges: {other:?}"
                )))
            }
        }
    }
}
