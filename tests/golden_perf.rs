//! Golden performance regressions over the telemetry subsystem.
//!
//! Two layers of protection:
//!
//! - the top-down CPI identity (`sum(components) == cycles *
//!   commit_width`) must hold *exactly* on every tier-1 workload — it is
//!   an invariant of the attributor, not a tuning target;
//! - headline metrics (IPC, branch MPKI, L1D miss rate, dominant stall
//!   component) are pinned for two kernels on both cache hierarchies.
//!   These change only when the microarchitectural model changes; a
//!   failing pin is a request to justify the perf delta, not to loosen
//!   the test.

use campaign::{Campaign, JobSpec, Verdict, WorkloadSource};
use minjie::PerfSnapshot;
use workloads::TortureConfig;
use xscore::{XsConfig, XsSystem};

fn run_kernel(name: &str, config: &str) -> PerfSnapshot {
    let spec = JobSpec::new(WorkloadSource::kernel(name), config).with_max_cycles(8_000_000);
    let report = Campaign::new(vec![spec]).with_workers(1).run();
    let job = report.jobs.into_iter().next().expect("one record");
    assert!(
        matches!(job.verdict, Verdict::Halted { .. }),
        "{name}/{config}: {:?}",
        job.verdict
    );
    job.perf
}

/// Round to 3 decimals, the report's own IPC convention.
fn r3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

#[test]
fn cpi_identity_holds_on_every_tier1_workload() {
    // Every kernel in the suite plus a batch of torture seeds, on both
    // cache hierarchies: the attributor must account for every commit
    // slot of every cycle with no gaps and no double counting.
    let mut jobs = Vec::new();
    for config in ["small-nh", "small-yqh"] {
        for name in workloads::NAMES {
            jobs.push(
                JobSpec::new(WorkloadSource::kernel(name), config).with_max_cycles(8_000_000),
            );
        }
        for seed in 0..3 {
            jobs.push(
                JobSpec::new(
                    WorkloadSource::torture(seed, TortureConfig::default()),
                    config,
                )
                .with_max_cycles(8_000_000),
            );
        }
    }
    let report = Campaign::new(jobs).with_workers(4).with_minimization(false).run();
    assert_eq!(report.summary.halted, report.summary.total, "{}", report.deterministic_json());
    for j in &report.jobs {
        assert!(
            j.perf.cpi_identity_holds(),
            "{} on {}: CPI stack {:?} does not sum to cycles * width",
            j.workload,
            j.config,
            j.perf.cpi_stack()
        );
        assert!(j.perf.cpi_stack().retired > 0, "{} retired nothing", j.workload);
    }
}

#[test]
fn same_seed_runs_identical_with_traffic_in_flight() {
    // Regression for the in-flight request table: the old
    // `HashMap<u64, MemReqKind>` iterated in hash order, so any future
    // order-sensitive use was a latent nondeterminism. The arena that
    // replaced it is slot-ordered by construction; two identically-seeded
    // runs snapshotted *while memory traffic is still in flight* must be
    // byte-identical. mcf is the cache-hostile kernel, so its L1D keeps
    // missing for the whole run — traffic is in flight at any cycle.
    let program = WorkloadSource::kernel("mcf").build();
    let run = || {
        let cfg = XsConfig::preset("small-nh").expect("known preset");
        let mut sys = XsSystem::new(cfg, &program);
        sys.run(10_000);
        assert!(!sys.all_halted(), "budget must expire mid-run");
        // Advance to the next cycle with L1D transactions in flight so
        // the snapshot observes a non-empty request table.
        let mut guard = 0u32;
        while sys.mem.l1d_active_txns(0) == 0 {
            sys.tick();
            guard += 1;
            assert!(guard < 100_000, "no memory traffic found in flight");
        }
        let snap = PerfSnapshot::collect(&sys);
        (
            sys.cores[0].cycle(),
            sys.mem.l1d_active_txns(0),
            serde_json::to_string(&snap).expect("snapshot serializes"),
        )
    };
    let (cycle_a, inflight_a, snap_a) = run();
    let (cycle_b, inflight_b, snap_b) = run();
    assert!(inflight_a > 0);
    assert_eq!(cycle_a, cycle_b, "same-seed runs reached different cycles");
    assert_eq!(inflight_a, inflight_b, "in-flight traffic diverged");
    assert_eq!(snap_a, snap_b, "same-seed snapshots diverged");
}

#[test]
fn event_skip_equivalence_is_exact() {
    // The cycle-skip equivalence suite: with the event queue force-
    // disabled (`run.event_driven = false`), a tick-by-tick run must be
    // indistinguishable from the skipping run — same cycle count, same
    // commit trace, and the same serialized PerfSnapshot (which covers
    // the CPI stack, lifecycle digest, and telemetry histograms).
    for (name, config) in [("mcf", "small-nh"), ("libquantum", "small-yqh")] {
        let program = WorkloadSource::kernel(name).build();
        let run = |on: bool| {
            let mut cfg = XsConfig::preset(config).expect("known preset");
            cfg.run.event_driven = on;
            let mut sys = XsSystem::new(cfg, &program);
            let commits = sys.run_collect(300_000);
            let snap = PerfSnapshot::collect(&sys);
            assert!(
                snap.cpi_identity_holds(),
                "{name}/{config} (event_driven={on}): CPI identity broken"
            );
            (
                sys.cores[0].cycle(),
                commits,
                serde_json::to_string(&snap).expect("snapshot serializes"),
            )
        };
        let (cycles_on, commits_on, snap_on) = run(true);
        let (cycles_off, commits_off, snap_off) = run(false);
        assert_eq!(cycles_on, cycles_off, "{name}/{config}: cycle counts diverged");
        assert!(!commits_on.is_empty(), "{name}/{config}: no commits observed");
        if commits_on != commits_off {
            let i = commits_on
                .iter()
                .zip(&commits_off)
                .position(|(a, b)| a != b)
                .unwrap_or(commits_on.len().min(commits_off.len()));
            panic!(
                "{name}/{config}: commit traces diverge at index {i} \
                 ({} vs {} events)",
                commits_on.len(),
                commits_off.len()
            );
        }
        assert_eq!(snap_on, snap_off, "{name}/{config}: snapshots diverged");
    }
}

#[test]
fn event_skip_shadow_check_on_torture_seeds() {
    // ROADMAP item 4's shadow check beyond the fixed kernel list: random
    // torture programs, skip on and off side by side, must agree on the
    // commit trace and the CPI stack.
    for config in ["small-nh", "small-yqh"] {
        for seed in 0..16 {
            let program = WorkloadSource::torture(seed, TortureConfig::default()).build();
            let run = |on: bool| {
                let mut cfg = XsConfig::preset(config).expect("known preset");
                cfg.run.event_driven = on;
                let mut sys = XsSystem::new(cfg, &program);
                let commits = sys.run_collect(8_000_000);
                assert!(sys.all_halted(), "torture {seed}/{config}: did not halt");
                (commits, sys.cores[0].cycle(), sys.cores[0].perf.cpi)
            };
            let (on, off) = (run(true), run(false));
            assert!(!on.0.is_empty(), "torture {seed}/{config}: no commits observed");
            assert!(on.0 == off.0, "torture {seed}/{config}: commit traces diverged");
            assert_eq!((on.1, on.2), (off.1, off.2), "torture {seed}/{config}: CPI stack diverged");
        }
    }
}

#[test]
fn golden_pins_mcf() {
    // mcf is the pointer-chasing cache-hostile kernel: the no-L3 `nh`
    // hierarchy gets crushed (70% L1D miss rate, memory-bound CPI),
    // while `yqh`'s L2+L3 recover a big fraction of the stall slots.
    let nh = run_kernel("mcf", "small-nh");
    assert_eq!(r3(nh.ipc()), 0.233);
    assert_eq!(r3(nh.mpki()), 0.097);
    assert_eq!(r3(nh.l1d_miss_rate()), 0.709);
    assert_eq!(nh.cpi_stack().top_stall().0, "memory_stall");

    let yqh = run_kernel("mcf", "small-yqh");
    assert_eq!(r3(yqh.ipc()), 0.347);
    assert_eq!(r3(yqh.mpki()), 0.097);
    assert_eq!(r3(yqh.l1d_miss_rate()), 0.073);
    assert_eq!(yqh.cpi_stack().top_stall().0, "memory_stall");
    assert!(yqh.ipc() > nh.ipc(), "the deeper hierarchy must win on mcf");
}

#[test]
fn golden_pins_libquantum() {
    // libquantum streams over a large array: high IPC, miss rate set by
    // the prefetch-free line-granularity streaming pattern.
    let nh = run_kernel("libquantum", "small-nh");
    assert_eq!(r3(nh.ipc()), 1.596);
    assert_eq!(r3(nh.mpki()), 0.092);
    assert_eq!(r3(nh.l1d_miss_rate()), 0.119);
    assert_eq!(nh.cpi_stack().top_stall().0, "memory_stall");

    let yqh = run_kernel("libquantum", "small-yqh");
    assert_eq!(r3(yqh.ipc()), 1.754);
    assert_eq!(r3(yqh.mpki()), 0.092);
    assert_eq!(r3(yqh.l1d_miss_rate()), 0.035);
    assert_eq!(yqh.cpi_stack().top_stall().0, "memory_stall");
}

#[test]
fn golden_pins_pubs() {
    // PUBS is exercised by no other integration test or benchmark
    // workload: pin the prioritized select (cycles, instret, marked
    // dispatches and the Fig. 15 ready histogram) on the branchiest
    // kernel and on the one with the widest ready distribution, so the
    // issue queues' pick order under `IssuePolicy::Pubs` cannot change
    // unnoticed.
    let run = |name: &str, config: &str| {
        let program = WorkloadSource::kernel(name).build();
        let cfg = XsConfig::preset(config).expect("known preset").with_pubs();
        let mut sys = XsSystem::new(cfg, &program);
        assert!(sys.run(8_000_000).is_some(), "{name}/{config}: did not halt");
        let p = &sys.cores[0].perf;
        (p.cycles, p.instret, p.high_priority_dispatched, p.ready_hist)
    };
    assert_eq!(
        run("sjeng", "small-nh"),
        (
            69964,
            84503,
            10178,
            [23696, 21075, 11602, 4574, 4542, 3248, 1204, 23, 0, 0, 0, 0, 0, 0, 0, 0]
        )
    );
    assert_eq!(
        run("hmmer", "small-yqh"),
        (
            32696,
            100096,
            249,
            [1687, 8064, 7638, 15001, 61, 68, 15, 66, 48, 16, 15, 16, 1, 0, 0, 0]
        )
    );
}
