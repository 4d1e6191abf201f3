//! Table I + §III-C4: snapshot-scheme comparison.
//!
//! Prints the qualitative Table I (in-memory / incremental / circuit-
//! agnostic) and measures the per-snapshot cost of LightSSS (COW clone)
//! against the eager SSS serialization — the analogue of the paper's
//! "fork() takes 535 us / SSS takes 3.671 s".

use minjie::{CoSim, Snapshotable, Sss};
use std::time::{Duration, Instant};
use workloads::{workload, Scale};
use xscore::XsConfig;

fn main() {
    println!("Table I: snapshot schemes for software simulation");
    println!(
        "{:<14} {:>10} {:>12} {:>16}",
        "scheme", "in-memory", "incremental", "circuit-agnostic"
    );
    for (name, a, b, c) in [
        ("CRIU", "no", "yes", "yes"),
        ("Verilator", "no", "no", "no"),
        ("LiveSim", "yes", "no", "no"),
        ("LightSSS", "yes", "yes", "yes"),
    ] {
        println!("{name:<14} {a:>10} {b:>12} {c:>16}");
    }
    println!();

    // Per-snapshot cost over live co-simulations: a cache-resident kernel
    // and two DRAM-bound ones, each measured early and late in the run —
    // an incremental snapshot costs what changed, not what ever ran.
    println!("snapshot cost over a live co-simulation (nh preset):");
    println!(
        "{:<8} {:>10} {:>12} {:>14} {:>12} {:>8}",
        "kernel", "at cycle", "state bytes", "LightSSS clone", "SSS (full)", "ratio"
    );
    for (kernel, scale) in [
        ("bzip2", Scale::Test),
        ("mcf", Scale::Bench),
        ("lbm", Scale::Bench),
    ] {
        let w = workload(kernel, scale);
        let mut cosim = CoSim::new(XsConfig::nh(), &w.program);
        for stop in [40_000, 1_000_000] {
            while cosim.state.time() < stop && !cosim.state.sys.all_halted() {
                cosim.step_cycle_until(stop).expect("clean run");
            }
            let (light, heavy, bytes) = snapshot_costs(&cosim);
            println!(
                "{kernel:<8} {:>10} {bytes:>12} {light:>14.2?} {heavy:>12.2?} {:>7.0}x",
                cosim.state.time(),
                heavy.as_secs_f64() / light.as_secs_f64().max(1e-12)
            );
            assert!(heavy > light * 5, "LightSSS must be clearly cheaper");
        }
    }
    println!("(paper: fork 535us vs SSS 3.671s = ~6900x at 8M-line scale)");
}

/// Mean cost of a LightSSS snapshot (COW clone, newest two retained as
/// `LightSss` does) and of an eager SSS serialization of the same state,
/// plus the serialized size.
fn snapshot_costs(cosim: &CoSim) -> (Duration, Duration, usize) {
    let n = 50;
    let t0 = Instant::now();
    let mut keep = std::collections::VecDeque::new();
    for _ in 0..n {
        keep.push_back(cosim.state.clone());
        if keep.len() > 2 {
            keep.pop_front();
        }
    }
    let light = t0.elapsed() / n;

    let mut sss = Sss::new();
    let m = 5;
    for _ in 0..m {
        sss.take(&cosim.state);
    }
    let heavy = sss.snapshot_cost / m;
    (light, heavy, cosim.state.serialize_full().len())
}
