//! Figure 8: performance of Spike, QEMU-TCI, Dromajo and NEMU — plus
//! this repo's superblock trace tier.
//!
//! Reproduces the paper's interpreter comparison over the SPEC-like
//! kernel suite, driven by [`nemu::registry`] so every personality is
//! enrolled automatically. Absolute MIPS differ from the paper's
//! i9-9900K numbers; the *shape* to check is: the trace tier fastest,
//! then the NEMU uop-cache tier, Spike-like next (decode cache),
//! Dromajo-like and QEMU-TCI-like trailing, and the fast tiers'
//! advantage larger on SPECfp (host FP vs SoftFloat).
//!
//! Run with `cargo bench -p minjie-bench --bench fig8_interpreters`
//! (`MINJIE_SCALE=ref` prints the table over the larger inputs). The
//! speeds go to stdout only; afterwards the harness rewrites the tracked
//! `BENCH_fig8.json` at the repository root — the deterministic
//! Test-scale body of [`minjie_bench::fig8`], which `scripts/ci.sh`
//! requires to come out byte-identical to the committed file.

use minjie_bench::fig8;
use minjie_bench::geomean;
use nemu::registry::PERSONALITIES;
use nemu::Interpreter;
use std::time::Instant;
use workloads::{all_workloads, Scale, WorkloadClass};

fn mips(mut interp: Box<dyn Interpreter>, fuel: u64) -> (f64, u64) {
    let t0 = Instant::now();
    let r = interp.run(fuel);
    let el = t0.elapsed().as_secs_f64();
    (r.instructions as f64 / el / 1e6, r.instructions)
}

fn main() {
    let scale = match std::env::var("MINJIE_SCALE").as_deref() {
        Ok("ref") => Scale::Ref,
        _ => Scale::Test,
    };
    println!("Figure 8: interpreter performance (MIPS), {scale:?} inputs");
    print!("{:<12} {:>6}", "benchmark", "class");
    for p in PERSONALITIES {
        print!(" {:>14}", p.name);
    }
    println!(" {:>10}", "insts");
    let mut per_class: std::collections::HashMap<(WorkloadClass, &str), Vec<f64>> =
        std::collections::HashMap::new();
    for w in all_workloads(scale) {
        print!("{:<12} {:>6}", w.name, format!("{:?}", w.class));
        let mut insts = 0;
        for p in PERSONALITIES {
            let (m, i) = mips((p.build)(&w.program), fig8::FUEL);
            insts = i;
            print!(" {m:>14.1}");
            per_class.entry((w.class, p.name)).or_default().push(m);
        }
        println!(" {insts:>10}");
    }
    println!();
    for class in [WorkloadClass::Int, WorkloadClass::Fp] {
        let g = |n: &str| geomean(&per_class[&(class, n)]);
        print!("geomean {class:?}:");
        for p in PERSONALITIES {
            print!("  {} {:.1}", p.name, g(p.name));
        }
        println!("  | nemu-trace/nemu = {:.2}x", g("nemu-trace") / g("nemu"));
    }
    println!();
    println!("paper reference shape: NEMU 733 MIPS vs Spike 142 MIPS (5.16x int),");
    println!("817 vs 106 (7.71x fp) -- expect the trace tier fastest here, then nemu,");
    println!("with a larger fp ratio over the SoftFloat engines.");

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fig8.json");
    let body = fig8::measure(fig8::FUEL, fig8::MAX_CYCLES).to_json();
    fig8::load(&body).expect("the measured body passes its own loader");
    std::fs::write(out, body).expect("write BENCH_fig8.json");
    println!("wrote BENCH_fig8.json");
}
