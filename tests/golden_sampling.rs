//! Golden pins for the checkpoint farm (`campaign::run_sampled`,
//! paper §III-D3).
//!
//! Three tiers:
//!
//! 1. **Pinned accuracy** — the SimPoint-weighted CPI estimate for every
//!    workload × preset cell is pinned to the exact milli-unit. The
//!    whole pipeline (BBV profiling, k-means++ with the fixed
//!    `CLUSTER_SEED`, checkpoint materialization, warm-up + window
//!    simulation, weighted aggregation) is deterministic, so any change
//!    anywhere in it moves these integers and must re-pin consciously.
//! 2. **Error bound** — the same estimates are compared against the
//!    *full* cycle-model run of each workload: the estimate must land
//!    within 25 % of the measured CPI (the paper's Fig. 12 accuracy
//!    claim, held as a hard gate rather than a plot).
//! 3. **Determinism** — the `sampling` section of the deterministic
//!    report body is byte-identical across runs even when the worker
//!    count (and therefore job interleaving) changes, and contains no
//!    floating-point rendering at all: weights and CPIs are exact
//!    integer milli-units.

use campaign::{run_sampled, SampleSpec};
use workloads::Scale;
use xscore::XsConfig;

const WORKLOADS: [&str; 3] = ["sjeng", "hmmer", "libquantum"];
const CONFIGS: [&str; 2] = ["small-nh", "small-yqh"];

/// The farm under test: 8 k-instruction intervals, up to 6 SimPoints
/// per workload, fanned over 2 workers. The 2 k warm-up / 24 k window
/// pair is deliberate: on these test-scale kernels, short windows are
/// dominated by the cold-restore transient (libquantum overestimates by
/// >30 %), while long warm-ups shift hmmer's windows off the profiled
/// intervals — this pair holds every cell within the 25 % gate.
fn farm_spec() -> SampleSpec {
    SampleSpec::new(
        WORKLOADS.iter().map(|s| s.to_string()).collect(),
        CONFIGS.iter().map(|s| s.to_string()).collect(),
    )
    .with_interval(8_000)
    .with_max_checkpoints(6)
    .with_warmup(2_000)
    .with_window(24_000)
    .with_workers(2)
}

/// Exact weighted-CPI pins, milli-units: (config, workload, cpi_milli).
/// Re-pin deliberately (run with `--nocapture`; the test prints the
/// actual table) when the cycle model or the sampling pipeline changes.
const PINNED: &[(&str, &str, u64)] = &[
    ("small-nh", "sjeng", 864),
    ("small-nh", "hmmer", 314),
    ("small-nh", "libquantum", 722),
    ("small-yqh", "sjeng", 888),
    ("small-yqh", "hmmer", 315),
    ("small-yqh", "libquantum", 691),
];

/// CPI of the full (non-sampled) cycle-model run, milli-units.
fn full_cpi_milli(workload: &str, config: &str) -> u64 {
    let program = workloads::workload(workload, Scale::Test).program;
    let cfg = XsConfig::preset(config).expect("known preset");
    let boot = Box::new(|| minjie::CoSim::new(cfg, &program));
    let stats = minjie::run_isolated(boot, None, 100_000_000, None).expect("full run");
    assert!(
        matches!(stats.end, minjie::CoSimEnd::Halted(_)),
        "{workload}/{config}: full run did not halt: {:?}",
        stats.end
    );
    stats.cycles * 1000 / stats.instret.max(1)
}

#[test]
fn weighted_cpi_is_pinned_and_tracks_full_run() {
    let report = run_sampled(&farm_spec());
    assert_eq!(
        report.sampling.len(),
        WORKLOADS.len() * CONFIGS.len(),
        "one sampling summary per workload x config cell"
    );
    // Print the actual table so re-pinning is a copy-paste.
    for sm in &report.sampling {
        println!(
            "    (\"{}\", \"{}\", {}),",
            sm.config,
            sm.workload.trim_start_matches("kernel:"),
            sm.weighted_cpi_milli
        );
    }
    for sm in &report.sampling {
        let workload = sm.workload.trim_start_matches("kernel:");
        assert!(
            sm.aggregated >= 2,
            "{workload}/{}: only {} of {} checkpoints aggregated",
            sm.config,
            sm.aggregated,
            sm.checkpoints
        );
        // (aggregated may trail checkpoints: a checkpoint whose interval
        // abuts program end can halt before filling its window, which
        // drops it from the estimate by design.)
        let (_, _, pin) = PINNED
            .iter()
            .find(|(c, w, _)| *c == sm.config && *w == workload)
            .unwrap_or_else(|| panic!("no pin for {workload}/{}", sm.config));
        assert_eq!(
            sm.weighted_cpi_milli, *pin,
            "{workload}/{}: weighted CPI moved from its pin — re-pin deliberately",
            sm.config
        );
        // The accuracy gate: estimate within 25 % of the full run.
        let full = full_cpi_milli(workload, &sm.config);
        let err_pct = sm.weighted_cpi_milli.abs_diff(full) * 100 / full.max(1);
        assert!(
            err_pct <= 25,
            "{workload}/{}: sampled {} vs full {} milli-CPI is {err_pct}% off",
            sm.config,
            sm.weighted_cpi_milli,
            full
        );
    }
}

/// The `sampling` body section must not depend on worker interleaving:
/// one worker vs. three produce byte-identical sections, and the
/// serialized section (weights, CPIs, per-phase stacks) is pure-integer
/// — no '.' anywhere, so no float rounding can ever skew an estimate.
#[test]
fn sampling_section_is_byte_identical_and_float_free() {
    let base = SampleSpec::new(vec!["sjeng".into()], vec!["small-nh".into()])
        .with_interval(8_000)
        .with_max_checkpoints(3);
    let a = run_sampled(&base.clone().with_workers(1));
    let b = run_sampled(&base.with_workers(3));

    let section = |r: &campaign::CampaignReport| {
        let read = campaign::CampaignReport::from_json(&r.full_json()).expect("the report reads back");
        assert!(!read.sampling.is_empty(), "sampling section present");
        serde_json::to_string(&read.sampling).expect("section serializes")
    };
    let sa = section(&a);
    assert_eq!(sa, section(&b), "sampling body depends on worker count");
    assert!(
        !sa.contains('.'),
        "float leaked into the sampling section: {sa}"
    );
    // The per-job sample records are integer-only too.
    for j in &a.jobs {
        let s = serde_json::to_string(j.sample.as_ref().expect("sample record")).unwrap();
        assert!(!s.contains('.'), "float leaked into a sample record: {s}");
    }
}

/// Regression (found by the PR 11 benchmark): a core restored from a
/// checkpoint kept `f0` mapped to the always-zero physical register, so
/// `f0` read 0 and the first consumer diverged from the REF. `namd` and
/// `milc` at 2 k-instruction intervals produce checkpoints with a live
/// `f0`; every one of their sample jobs must now measure its window.
#[test]
fn fp_kernels_sample_without_divergence() {
    let spec = SampleSpec::new(
        vec!["namd".into(), "milc".into()],
        vec!["small-nh".into()],
    )
    .with_interval(2_000)
    .with_warmup(200)
    .with_window(1_000)
    .with_workers(2);
    let report = run_sampled(&spec);
    let mut sampled = 0;
    for j in &report.jobs {
        match j.verdict {
            campaign::Verdict::Sampled { .. } => sampled += 1,
            // The checkpoint of the program's last, partial interval
            // legitimately halts before filling its window.
            campaign::Verdict::Halted { .. } => {}
            _ => panic!("{} #{}: sample job ended {:?}", j.workload, j.index, j.verdict),
        }
    }
    assert!(sampled >= 4, "only {sampled} of {} jobs sampled", report.jobs.len());
    assert_eq!(report.summary.diverged, 0);
}
