//! Golden coverage pins for the fuzzing subsystem.
//!
//! One fixed-seed, single-round, 12-job fuzz campaign on `small-nh` must
//! keep hitting pinned coverage floors: distinct opcodes, all five
//! integer functional classes, the macro-fusion diff rule, and the core
//! pipeline events. The run is fully deterministic (seeded generation,
//! integer-only coverage), so a failing floor means the generator or a
//! coverage family actually lost expressive power — justify the delta,
//! don't loosen the pin. Floors sit ~15% under the measured values so
//! benign model tuning doesn't trip them.

use campaign::{run_fuzz, CoverageSet, FuzzOpts, Policy};
use minjie::DiffRule;
use std::collections::BTreeSet;

fn pinned_round() -> campaign::FuzzOutcome {
    let mut opts = FuzzOpts::new(7);
    opts.rounds = 1;
    opts.jobs_per_round = 12;
    opts.configs = vec!["small-nh".into()];
    opts.job.max_cycles = 6_000_000;
    opts.policy = quiet_pool();
    run_fuzz(&opts)
}

/// Four workers, neither minimization nor triage.
fn quiet_pool() -> Policy {
    Policy {
        workers: 4,
        minimize: false,
        triage: false,
        ..Policy::default()
    }
}

#[test]
fn fixed_seed_round_hits_coverage_floors() {
    let out = pinned_round();
    let report = &out.report;
    assert_eq!(
        report.summary.halted, report.summary.total,
        "pinned fuzz round must be divergence-free: {}",
        report.deterministic_json()
    );
    assert_eq!(report.summary.total, 12);

    // Union the per-job maps exactly as the scheduler does.
    let mut set = CoverageSet::default();
    let mut opcodes = BTreeSet::new();
    let mut classes = BTreeSet::new();
    let mut events = BTreeSet::new();
    let mut fusion = 0u64;
    for j in &report.jobs {
        let cov = j
            .coverage
            .as_ref()
            .expect("fuzz jobs always collect coverage");
        set.absorb(cov);
        opcodes.extend(cov.opcodes.iter().map(|(n, _)| n.clone()));
        classes.extend(cov.op_classes.iter().map(|(n, _)| n.clone()));
        events.extend(cov.events.iter().map(|(n, _)| n.clone()));
        fusion += cov.rule_count(DiffRule::MacroFusion);
    }

    // Measured at introduction (seed 7): 67 features, 56 opcodes,
    // macro-fusion x365, 5 events.
    assert!(set.len() >= 56, "feature union shrank: {}", set.len());
    assert!(opcodes.len() >= 48, "opcode coverage shrank: {opcodes:?}");
    for class in ["Alu", "Bru", "Load", "Mdu", "Store"] {
        assert!(classes.contains(class), "missing class {class}: {classes:?}");
    }
    assert!(fusion >= 100, "macro-fusion rule coverage shrank: {fusion}");
    for evt in [
        "branch-mispredict",
        "dram-access",
        "flush-mispredict",
        "load-forward",
    ] {
        assert!(events.contains(evt), "missing event {evt}: {events:?}");
    }

    // The fuzz summary mirrors the same union.
    let fuzz = report.fuzz.as_ref().expect("fuzz section");
    assert_eq!(fuzz.total_features, set.len() as u64);
    assert_eq!(fuzz.rounds.len(), 1);
    assert_eq!(fuzz.rounds[0].jobs, 12);
    assert_eq!(fuzz.rounds[0].cumulative_features, set.len() as u64);
}

#[test]
fn pinned_round_is_deterministic() {
    let a = pinned_round();
    let b = pinned_round();
    assert_eq!(a.report.deterministic_json(), b.report.deterministic_json());
}

/// Every interpreter personality (plus the cache-free `arch` REF)
/// backs a small fixed-seed fuzz round without diverging. The list is
/// derived from [`nemu::registry`], not written out, so adding a
/// personality enrolls it here automatically instead of silently
/// skipping fuzz coverage for the new tier.
#[test]
fn every_personality_serves_as_fuzz_ref() {
    let mut refs = vec![minjie::ARCH_REF_NAME];
    refs.extend(nemu::registry::names());
    assert!(refs.len() >= 6, "personality registry lost a tier: {refs:?}");
    for r in refs {
        let mut opts = FuzzOpts::new(7);
        opts.rounds = 1;
        opts.jobs_per_round = 4;
        opts.configs = vec!["small-nh".into()];
        opts.job = opts.job.with_max_cycles(4_000_000).with_ref(r);
        opts.policy = quiet_pool();
        let out = run_fuzz(&opts);
        assert_eq!(
            out.report.summary.halted, out.report.summary.total,
            "REF {r}: fuzz round not divergence-free: {}",
            out.report.deterministic_json()
        );
        assert_eq!(out.report.summary.total, 4, "REF {r}: job count");
    }
}
