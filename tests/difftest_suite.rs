//! Cross-crate integration: DiffTest over the full workload suite and
//! torture-generated programs (DUT = xscore cycle model, REF = NEMU).
//!
//! The matrices run through the campaign runner (`crates/campaign`), so
//! the same sharding, panic isolation, and report plumbing the
//! verification campaigns use is exercised on every tier-1 run. Only
//! `fault_injection_is_always_caught` still drives `CoSim` directly —
//! it mutates architectural state mid-run, which is not a thing a
//! declarative job spec can describe.

use campaign::{Campaign, CampaignReport, JobSpec, Verdict, WorkloadSource};
use minjie::difftest::HISTORY_WINDOW;
use minjie::{CoSim, CoSimEnd};
use workloads::{Scale, TortureConfig};
use xscore::XsConfig;

/// Run `jobs` on the default worker pool and require a clean sweep.
fn run_all_halted(jobs: Vec<JobSpec>) -> CampaignReport {
    let report = Campaign::new(jobs).with_workers(4).run();
    assert_eq!(
        report.summary.halted,
        report.summary.total,
        "campaign had non-halting jobs: {}",
        report.deterministic_json()
    );
    report
}

#[test]
fn every_workload_passes_difftest_on_nh() {
    let jobs = workloads::NAMES
        .iter()
        .map(|name| {
            JobSpec::new(WorkloadSource::kernel(*name), "small-nh").with_max_cycles(80_000_000)
        })
        .collect();
    let report = run_all_halted(jobs);
    for j in &report.jobs {
        assert!(
            j.commits_checked > 3_000,
            "{} checked too few commits ({})",
            j.workload,
            j.commits_checked
        );
        assert!(j.ipc > 0.0, "{} reported no IPC", j.workload);
    }
}

#[test]
fn every_workload_passes_difftest_on_yqh() {
    let jobs = workloads::NAMES
        .iter()
        .map(|name| {
            JobSpec::new(WorkloadSource::kernel(*name), "small-yqh").with_max_cycles(80_000_000)
        })
        .collect();
    run_all_halted(jobs);
}

#[test]
fn torture_programs_pass_difftest() {
    let cfg = TortureConfig::default();
    let jobs = (0..12)
        .map(|seed| JobSpec::new(WorkloadSource::torture(seed, cfg), "small-nh"))
        .collect();
    run_all_halted(jobs);
}

#[test]
fn torture_without_branches_or_memory() {
    let cfg = TortureConfig {
        memory_ops: false,
        branches: false,
        muldiv: true,
        body_len: 80,
        iterations: 30,
        compressed: false,
    };
    let jobs = (100..106)
        .map(|seed| JobSpec::new(WorkloadSource::torture(seed, cfg), "small-nh"))
        .collect();
    run_all_halted(jobs);
}

#[test]
fn torture_with_compressed_instructions_passes_difftest() {
    // Mixed 2/4-byte encodings misalign instructions across 32-byte fetch
    // blocks, exercising the IFU's split-fetch path.
    let cfg = TortureConfig {
        compressed: true,
        ..Default::default()
    };
    let jobs = (200..210)
        .map(|seed| JobSpec::new(WorkloadSource::torture(seed, cfg), "small-nh"))
        .collect();
    run_all_halted(jobs);
}

#[test]
fn fault_injection_is_always_caught() {
    // Corrupting any architectural register mid-run must produce a
    // DiffTest report, never a silent pass (on this branch-heavy kernel
    // every register feeds the outputs).
    let w = workloads::workload("sjeng", Scale::Test);
    let cfg = || XsConfig::preset("small-nh").expect("preset exists");
    for (reg, when) in [(10u8, 5_000u64), (18, 9_000), (8, 14_000)] {
        let mut cosim = CoSim::new(cfg(), &w.program).with_lightsss(2_000);
        let mut armed = true;
        let mut caught = false;
        for _ in 0..40_000_000u64 {
            if cosim.state.sys.all_halted() {
                break;
            }
            if armed && cosim.state.sys.cores[0].instret() >= when {
                cosim.state.sys.cores[0].inject_fault_gpr(reg, 1 << 13);
                armed = false;
            }
            if matches!(cosim.run(1), CoSimEnd::Bug(_)) {
                caught = true;
                break;
            }
        }
        assert!(caught, "fault in x{reg} at {when} must be detected");
    }
}

#[test]
fn global_memory_history_does_not_grow_with_the_run() {
    // The Global Memory's window of displaced values is what a LightSSS
    // snapshot copies: ten times the run (and ten times the stores) must
    // leave it at its capacity, not ten times as large.
    let w = workloads::workload("lbm", Scale::Bench);
    let after = |cycles| {
        let mut cosim = CoSim::new(XsConfig::preset("small-nh").unwrap(), &w.program);
        assert!(matches!(cosim.run(cycles), CoSimEnd::OutOfCycles));
        let gm = &cosim.state.diff.global_mem;
        (gm.stores, gm.retained_records())
    };
    let (short_stores, short_retained) = after(50_000);
    let (long_stores, long_retained) = after(500_000);
    assert!(short_stores > 0 && long_stores > 8 * short_stores);
    assert!(long_stores as usize > 4 * HISTORY_WINDOW, "{long_stores}");
    assert!(short_retained <= HISTORY_WINDOW, "{short_retained}");
    assert_eq!(long_retained, HISTORY_WINDOW);
}

#[test]
fn verdicts_carry_the_halt_exit_code() {
    // The campaign records the same exit codes a direct run reports.
    let w = workloads::workload("mcf", Scale::Test);
    let direct = match CoSim::new(XsConfig::preset("small-nh").unwrap(), &w.program).run(80_000_000)
    {
        CoSimEnd::Halted(code) => code,
        other => panic!("{other:?}"),
    };
    let report = run_all_halted(vec![JobSpec::new(
        WorkloadSource::kernel("mcf"),
        "small-nh",
    )
    .with_max_cycles(80_000_000)]);
    match &report.jobs[0].verdict {
        Verdict::Halted { exit_code } => assert_eq!(*exit_code, direct),
        other => panic!("{other:?}"),
    }
}
