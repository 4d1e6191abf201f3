//! Figure 6: simulation time with LightSSS enabled at different snapshot
//! intervals, or disabled.
//!
//! The paper's claim: "the simulation time is barely affected by either
//! the existence or the interval size of snapshots". A cache-resident
//! kernel cannot test it — there is almost nothing to copy — so each
//! preset runs one (`sjeng`) beside two DRAM-bound ones (`mcf`, `lbm`)
//! whose live state is megabytes of dirty cache and memory. Per
//! configuration: wall-clock time against the LightSSS-off run, and the
//! cost of the first and of the last snapshot, which must not drift
//! apart (a snapshot costs what changed, not what ever ran).

use minjie::{CoSim, Snapshotable};
use std::time::{Duration, Instant};
use workloads::{workload, Scale};
use xscore::XsConfig;

const CYCLES: u64 = 1_000_000;

struct Leg {
    secs: f64,
    cycles: u64,
    snapshots: u64,
    first: Duration,
    last: Duration,
}

/// The fastest of three runs: the box this runs on has slow spells that
/// outlast a run, and the comparison is between runs.
fn run_one(preset: &str, kernel: &str, interval: Option<u64>) -> Leg {
    let runs = (0..3).map(|_| run_once(preset, kernel, interval));
    runs.min_by(|a, b| a.secs.total_cmp(&b.secs))
        .expect("three runs")
}

fn run_once(preset: &str, kernel: &str, interval: Option<u64>) -> Leg {
    let w = workload(kernel, Scale::Bench);
    let mut cosim = CoSim::new(XsConfig::preset(preset).expect("preset"), &w.program);
    if let Some(i) = interval {
        cosim = cosim.with_lightsss(i);
    }
    let (mut taken, mut spent) = (0, Duration::ZERO);
    let (mut first, mut last) = (Duration::ZERO, Duration::ZERO);
    let t0 = Instant::now();
    while cosim.state.time() < CYCLES && !cosim.state.sys.all_halted() {
        cosim.step_cycle_until(CYCLES).expect("clean run");
        if let Some(l) = cosim.lightsss.as_ref().filter(|l| l.taken > taken) {
            last = l.snapshot_cost - spent;
            if taken == 0 {
                first = last;
            }
            (taken, spent) = (l.taken, l.snapshot_cost);
        }
    }
    Leg {
        secs: t0.elapsed().as_secs_f64(),
        cycles: cosim.state.time(),
        snapshots: taken,
        first,
        last,
    }
}

fn main() {
    println!("Figure 6: simulation time vs LightSSS snapshot interval");
    for preset in ["small-nh", "nh", "yqh"] {
        for kernel in ["sjeng", "mcf", "lbm"] {
            let base = run_one(preset, kernel, None);
            println!(
                "{preset:<9} {kernel:<6} {:<16} {:>8.3}s   ({} cycles, {:.0} KHz)",
                "disabled",
                base.secs,
                base.cycles,
                base.cycles as f64 / base.secs / 1e3
            );
            for interval in [2_000u64, 10_000, 60_000, 200_000] {
                let leg = run_one(preset, kernel, Some(interval));
                println!(
                    "{preset:<9} {kernel:<6} {:<16} {:>8.3}s   (overhead {:+6.1}%; {} snapshots, first {:.0} us, last {:.0} us)",
                    format!("interval {interval}"),
                    leg.secs,
                    (leg.secs / base.secs - 1.0) * 100.0,
                    leg.snapshots,
                    leg.first.as_secs_f64() * 1e6,
                    leg.last.as_secs_f64() * 1e6,
                );
            }
        }
    }
    println!();
    println!("expected shape (paper): flat across intervals; an order of magnitude");
    println!("below LiveSim's reported 10-20% overhead; first and last snapshot alike.");
}
