//! Render campaign telemetry as aligned ASCII: top-down CPI stacks,
//! occupancy/latency histograms, and cache hit/miss tables.
//!
//! ```text
//! perf_report REPORT.json [--job N] [--lifecycle]
//! ```
//!
//! `REPORT.json` is a campaign report (`campaign --out`): every job's
//! embedded [`PerfSnapshot`] is rendered (or just job `N` with `--job`).
//! `--lifecycle` additionally
//! renders each snapshot's lifecycle digest (per-stage gap histograms,
//! squash causes, dominant-stall attribution) and cross-checks it
//! against the CPI-stack layer. A report with a `sampling` section
//! (`campaign --sample`) additionally gets a per-phase CPI-stack table:
//! one row per checkpoint with its weight, window CPI, and top-down
//! slot shares, footed by the weighted estimate. Exit status: 0 on
//! success, 1 if any rendered snapshot violates the top-down CPI
//! identity or the digest/CPI cross-check, 2 on usage or parse errors
//! and on a report of another schema version or of none.
//!
//! [`PerfSnapshot`]: minjie::PerfSnapshot

use campaign::{JobRecord, SamplingSummary};
use minjie::PerfSnapshot;

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!("usage: perf_report REPORT.json [--job N] [--lifecycle]");
    std::process::exit(2);
}

/// Render one sampling summary as a per-phase CPI-stack table: one row
/// per checkpoint (its weight, window CPI, and the share of each
/// top-down slot class over the measured window), footed by the
/// weighted CPI estimate.
fn render_sampling(sm: &SamplingSummary, jobs: &[JobRecord]) {
    println!(
        "=== sampling {} {} (ref {}, interval {}, {} intervals profiled) ===",
        sm.workload, sm.config, sm.ref_model, sm.interval_len, sm.total_intervals
    );
    println!(
        "{:>8} {:>8} {:>8} {:>8}  {:>7}  top-down slot shares",
        "phase", "interval", "members", "weight%", "cpi"
    );
    for p in &sm.phases {
        let Some(s) = jobs
            .iter()
            .find(|j| j.index == p.job_index)
            .and_then(|j| j.sample.as_ref())
        else {
            continue;
        };
        let total = s.cpi_stack.total().max(1);
        let shares = s
            .cpi_stack
            .components()
            .iter()
            .filter(|(_, v)| *v > 0)
            .map(|(name, v)| format!("{name} {}%", 100 * v / total))
            .collect::<Vec<_>>()
            .join("  ");
        println!(
            "{:>8} {:>8} {:>8} {:>8}  {:>3}.{:03}  {}",
            p.job_index,
            p.interval,
            p.members,
            100 * p.members / sm.total_intervals.max(1),
            p.cpi_milli / 1000,
            p.cpi_milli % 1000,
            shares
        );
    }
    println!(
        "{:>35}  {:>3}.{:03}  ({}/{} checkpoints aggregated)",
        "weighted",
        sm.weighted_cpi_milli / 1000,
        sm.weighted_cpi_milli % 1000,
        sm.aggregated,
        sm.checkpoints
    );
    println!();
}

/// Render the lifecycle digest section of one snapshot; returns false
/// when the digest is inconsistent with the snapshot's other counters.
fn render_lifecycle(snap: &PerfSnapshot) -> bool {
    print!("{}", xscore::render_gap_summary(&snap.lifecycle_digest()));
    match snap.lifecycle_consistent() {
        Ok(()) => {
            println!("lifecycle/CPI cross-check: consistent");
            true
        }
        Err(e) => {
            println!("!! lifecycle/CPI cross-check VIOLATED: {e}");
            false
        }
    }
}

fn main() {
    let mut path: Option<String> = None;
    let mut only_job: Option<u64> = None;
    let mut lifecycle = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--job" => {
                let v = args.next().unwrap_or_else(|| usage("missing value for --job"));
                only_job = Some(v.parse().unwrap_or_else(|_| usage("bad --job")));
            }
            "--lifecycle" => lifecycle = true,
            "--help" | "-h" => usage("help requested"),
            other if other.starts_with("--") => usage(&format!("unknown flag `{other}`")),
            other => {
                if path.replace(other.to_string()).is_some() {
                    usage("more than one report path");
                }
            }
        }
    }
    let path = path.unwrap_or_else(|| usage("missing report path"));
    let report = campaign::report::load(&path).unwrap_or_else(|e| usage(&e));

    let mut identity_ok = true;
    let mut rendered = 0u64;
    for j in &report.jobs {
        if only_job.is_some_and(|n| n != j.index) {
            continue;
        }
        rendered += 1;
        println!(
            "=== job {} {} {} [{}] cycles={} ===",
            j.index,
            j.workload,
            j.config,
            j.verdict.label(),
            j.cycles
        );
        print!("{}", j.perf.render());
        if !j.perf.cpi_identity_holds() {
            identity_ok = false;
            println!("!! top-down CPI identity VIOLATED for job {}", j.index);
        }
        if lifecycle && !render_lifecycle(&j.perf) {
            identity_ok = false;
        }
        println!();
    }
    if rendered == 0 {
        usage(&format!("no matching job in {path}"));
    }
    for sm in &report.sampling {
        render_sampling(sm, &report.jobs);
    }
    if !identity_ok {
        std::process::exit(1);
    }
}
