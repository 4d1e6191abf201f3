//! The paper's evaluation, one harness: measure the tracked body, rewrite
//! `BENCH_paper.json` at the repository root, print every figure's table
//! *from that body*, then print the tables that are speeds.
//!
//! `cargo bench -p minjie-bench --bench paper`. The file is
//! [`paper::measure`]`(&Budgets::TRACKED)` — simulated counts only, so
//! `scripts/ci.sh` requires it to come out equal to the committed one. A
//! speed depends on the host: it goes to stdout and nowhere else. The
//! paper's figure stands beside each table; compare shapes.

use minjie::Sss;
use minjie_bench::geomean;
use minjie_bench::paper::{self, Budgets, Counts, Fig12Config, PaperBody};
use nemu::registry::PERSONALITIES;
use std::time::{Duration, Instant};
use workloads::{all_workloads, workload, Scale, WorkloadClass};
use xscore::XsConfig;

const B: Budgets = Budgets::TRACKED;

fn main() {
    let t0 = Instant::now();
    let body = paper::measure(&B);
    let text = body.to_json();
    paper::load(&text).expect("the measured body passes its own loader");
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_paper.json");
    std::fs::write(out, text).expect("write BENCH_paper.json");
    println!("wrote BENCH_paper.json ({:.0?})", t0.elapsed());

    print_body(&body);
    fig8_speeds();
    fig6_speeds();
    table1_speeds();
    cache_sweep_speeds();
    println!("\ntotal {:.0?}", t0.elapsed());
}

/// `1234` as `1.234`.
fn milli(v: u64) -> String {
    format!("{}.{:03}", v / 1000, v % 1000)
}

/// Parts per million as a signed percentage.
fn pct(ppm: i64) -> String {
    format!("{:+.3}%", ppm as f64 / 1e4)
}

fn print_body(body: &PaperBody) {
    let f = &body.fig8;
    println!("\n== Figure 8: {} under fuel {} ==", f.workload, f.fuel);
    for (name, p) in &f.personalities {
        println!("{name:<14} {:>10} instructions  ({})", p.instructions, p.paper_counterpart);
    }
    for (preset, e) in &f.cycle_model {
        let (cpi, sampled) = (milli(e.cpi_milli), milli(e.sampled_cpi_milli));
        print!("{preset:<14} {} cycles / {} instret = CPI {cpi}", e.cycles, e.instret);
        println!("; sjeng sampled {sampled}, {} per mille off", e.sampled_cpi_err_milli);
    }

    let f = &body.fig12;
    println!("\n== Figure 12: score/GHz proxy (IPC), {} ==", f.workload);
    let row = |label: &str, cell: &dyn Fn(&Fig12Config) -> u64| {
        print!("{label:<12}");
        f.configs.values().for_each(|c| print!(" {:>25}", milli(cell(c))));
        println!();
    };
    print!("{:<12}", "benchmark");
    f.configs.keys().for_each(|name| print!(" {name:>25}"));
    println!();
    let first = f.configs.values().next().expect("five series");
    first.int.keys().for_each(|k| row(k, &|c| c.int[k].ipc_milli));
    first.fp.keys().for_each(|k| row(k, &|c| c.fp[k].ipc_milli));
    row("geomean int", &|c| c.int_geomean_ipc_milli);
    row("geomean fp", &|c| c.fp_geomean_ipc_milli);
    let (int, fp) = (pct(f.llc_4mb_over_2mb_int_ppm), pct(f.llc_4mb_over_2mb_fp_ppm));
    println!("NH 4MB vs 2MB LLC: int {int}  fp {fp}   (paper: +8.9% int, +5.4% fp)");
    let overall = pct(f.nh_over_yqh_ppm);
    println!("NH-DDR vs YQH-DDR overall: {overall}   (paper: 10.06 vs 7.67 per GHz, +31%)");
    println!("({} commits verified by DiffTest)", f.commits_checked);

    let f = &body.fig14;
    println!("\n== Figure 14: PUBS IPC delta, {} checkpoints ({} + {} instructions) ==", f.workload, f.warmup, f.window);
    println!("{:<12} {:>10} {:>10} {:>10}", "checkpoint", "AGE ipc", "AGE+PUBS", "delta");
    for c in &f.checkpoints {
        let ipc = |w: &Counts| format!("{:.5}", w.instret as f64 / w.cycles as f64);
        let (interval, age, pubs) = (format!("#{}", c.interval), ipc(&c.age), ipc(&c.pubs));
        println!("{interval:<12} {age:>10} {pubs:>10} {:>10}", pct(c.delta_ppm));
    }
    for interval in &f.skipped {
        println!("#{interval:<11} (skipped: the program ended inside the window)");
    }
    let mean = pct(f.mean_delta_ppm);
    println!("mean IPC delta: {mean}   (paper: no visible deviation; original PUBS paper: +6.5%)");

    let f = &body.fig15;
    println!("\n== Figure 15: ready instructions in the ALU issue queues (AGE) ==");
    let cycles: u64 = f.ready_hist.iter().sum();
    for (i, n) in f.ready_hist.iter().enumerate().filter(|(_, &n)| n != 0) {
        let label = if i == 15 { ">=15".into() } else { i.to_string() };
        println!("{label:<6} {:>6.2}% of cycles", *n as f64 / cycles as f64 * 100.0);
    }
    println!("more than 2 ready: {} per mille of cycles  (paper: 12.8%)", f.gt2_ready_permille);
    let marked = f.high_priority_permille;
    println!("marked high priority under PUBS: {marked} per mille of dispatched  (paper: 5.9%)");

    let f = &body.ablation;
    println!("\n== Ablations: NH features off, {} (suite IPC) ==", f.workload);
    println!("{:<22} {}", "NH (all features)", milli(f.nh.ipc_milli));
    for (feature, off) in &f.without {
        println!("  - {feature:<18} {}  ({} vs full NH)", milli(off.suite.ipc_milli), pct(off.delta_ppm));
    }
    println!("Spike-like decode cache and NEMU uop cache on {}:", body.fig14.workload);
    for leg in &f.decode_cache {
        println!("  decode cache {:>6}: {} hits, {} misses", leg.size, leg.hits, leg.misses);
    }
    for leg in &f.uop_cache {
        println!("  uop cache    {:>6}: {} fills, {} flushes", leg.capacity, leg.fills, leg.flushes);
    }
    println!("(tiny static footprints: every size hits ~100%; the paper's sweep needed SPEC-sized code)");

    println!("\n== Table I / Figure 6: snapshots taken, final state bytes ==");
    for l in &body.snapshots {
        print!("{:<9} {:<6} interval {:>7}: {:>3} snapshots", l.preset, l.kernel, l.interval, l.snapshots);
        println!(" in {} cycles, {} bytes", l.cycles, l.state_bytes);
    }

    println!("\n== Table II: micro-architecture parameters of the two generations ==");
    print!("{}", XsConfig::table2(&XsConfig::yqh(), &XsConfig::nh_dual()));
    println!("\nDRAV: {} CSR field rules (paper: at least 120)", body.drav.csr_field_rules);
}

/// `f()`'s result and how long it took.
fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let result = f();
    (result, t0.elapsed())
}

fn mips(instructions: u64, took: Duration) -> f64 {
    instructions as f64 / took.as_secs_f64() / 1e6
}

/// Figure 8 itself. The order measured: the NEMU uop-cache tier fastest,
/// then the trace tier (level with it on `namd`), Spike-like (decode
/// cache), Dromajo- and QEMU-TCI-like trailing. The uop-cache tier's lead
/// over Spike-like is larger on int than on fp: its integer ops have
/// inline arms, while its FP ops still go through `fp_execute`. The
/// paper's lead is larger on fp (host FP vs SoftFloat).
fn fig8_speeds() {
    println!("\n== Figure 8: interpreter performance (MIPS), Test inputs [speed: stdout only] ==");
    print!("{:<12}", "benchmark");
    PERSONALITIES.iter().for_each(|p| print!(" {:>14}", p.name));
    println!();
    // Per class, per personality: (instructions, microseconds), the
    // ratio `geomean` takes.
    let mut speeds = [vec![Vec::new(); PERSONALITIES.len()], vec![Vec::new(); PERSONALITIES.len()]];
    for w in all_workloads(Scale::Test) {
        print!("{:<12}", w.name);
        for (i, p) in PERSONALITIES.iter().enumerate() {
            let mut engine = (p.build)(&w.program);
            let (ran, took) = timed(|| engine.run(B.fuel));
            print!(" {:>14.1}", mips(ran.instructions, took));
            let class = &mut speeds[(w.class == WorkloadClass::Fp) as usize];
            class[i].push((ran.instructions, took.as_micros().max(1) as u64));
        }
        println!();
    }
    for (label, class) in ["int", "fp"].iter().zip(&speeds) {
        print!("geomean {label:<4}");
        class.iter().for_each(|s| print!(" {:>14.1}", geomean(s, 10) as f64 / 10.0));
        println!();
    }
    println!("paper: NEMU 733 MIPS vs Spike 142 (5.16x int), 817 vs 106 (7.71x fp)");
}

/// Figure 6: "the simulation time is barely affected by either the
/// existence or the interval size of snapshots". The fastest of three
/// runs per leg: the box has slow spells that outlast a run, and the
/// comparison is between runs.
fn fig6_speeds() {
    println!("\n== Figure 6: simulation time vs LightSSS interval [speed: stdout only] ==");
    let leg = |preset, kernel, interval| {
        let run = || paper::lightsss_run(preset, kernel, interval, paper::FIG6_CYCLES);
        (0..3).map(|_| timed(run)).min_by_key(|(_, took)| *took).expect("three runs")
    };
    for preset in paper::FIG6_PRESETS {
        for kernel in paper::FIG6_KERNELS {
            let (_, base) = leg(preset, kernel, None);
            print!("{preset:<9} {kernel:<6} off {:>6.3}s |", base.as_secs_f64());
            for interval in paper::FIG6_INTERVALS {
                let (cosim, took) = leg(preset, kernel, Some(interval));
                let l = cosim.lightsss.as_ref().expect("LightSSS was on");
                let overhead = (took.as_secs_f64() / base.as_secs_f64() - 1.0) * 100.0;
                let each = l.snapshot_cost.as_secs_f64() * 1e6 / l.taken.max(1) as f64;
                print!(" {interval}: {overhead:+.1}% ({each:.0} us/snapshot) |");
            }
            println!();
        }
    }
    println!("paper: flat across intervals, an order of magnitude below LiveSim's 10-20%");
}

/// §III-C4's "fork() takes 535 us / SSS takes 3.671 s": the mean cost of
/// a LightSSS snapshot (COW clone, the newest two retained as `LightSss`
/// does) against an eager SSS serialization of the same live `nh` state,
/// early and late in the run — an incremental snapshot costs what
/// changed, not what ever ran.
fn table1_speeds() {
    println!("\n== Table I: LightSSS clone vs SSS serialization, nh [speed: stdout only] ==");
    for kernel in paper::FIG6_KERNELS {
        for stop in [paper::FIG6_CYCLES / 25, paper::FIG6_CYCLES] {
            let cosim = paper::lightsss_run("nh", kernel, None, stop);
            let (clones, serializations) = (50, 5);
            let mut keep = std::collections::VecDeque::new();
            let ((), light) = timed(|| {
                for _ in 0..clones {
                    keep.push_back(cosim.state.clone());
                    if keep.len() > 2 {
                        keep.pop_front();
                    }
                }
            });
            let mut sss = Sss::new();
            (0..serializations).for_each(|_| sss.take(&cosim.state));
            let (light, heavy) = (light / clones, sss.snapshot_cost / serializations);
            let ratio = heavy.as_secs_f64() / light.as_secs_f64().max(1e-12);
            println!("{kernel:<6} at cycle {stop:>8}: clone {light:>9.2?}  SSS {heavy:>9.2?}  ({ratio:.0}x)");
            assert!(heavy > light * 5, "LightSSS must be clearly cheaper");
        }
    }
    println!("paper: fork 535us vs SSS 3.671s = ~6900x at 8M-line scale");
}

fn cache_sweep_speeds() {
    println!("\n== Interpreter cache sweeps, sjeng (paper SIII-D2) [speed: stdout only] ==");
    let program = workload(paper::SAMPLED_WORKLOAD, B.sjeng_scale).program;
    for size in paper::DECODE_CACHE_SIZES {
        let (leg, took) = timed(|| paper::decode_cache_leg(&program, size, B.fuel));
        println!("spike-like decode cache {size:>6}: {:>6.1} MIPS", mips(leg.instructions, took));
    }
    for capacity in paper::UOP_CACHE_CAPACITIES {
        let (leg, took) = timed(|| paper::uop_cache_leg(&program, capacity, B.fuel));
        println!("nemu uop cache          {capacity:>6}: {:>6.1} MIPS", mips(leg.instructions, took));
    }
}
