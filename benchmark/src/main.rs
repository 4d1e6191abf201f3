//! Host-speed benchmark of the MINJIE reproduction: five workloads, each a
//! closed loop of passes over a fixed operation list (the next simulation
//! starts when the previous one returns), at most two threads, one
//! process. `--trace 0` measures the end-to-end metrics through the
//! top-level entry points; `--trace 1` re-drives the same passes with
//! spans around every call into a layer and reports the per-layer
//! metrics. See README.md.

mod campaignmix;
mod cosim;
mod layers;
mod metrics;
mod refinterp;
mod sampleflow;
mod trace;

use metrics::{median, tail, Host, Layers, Pass, Workload, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::Tracer;

pub const WORKLOADS: [&str; 5] = [
    "cosim-compute",
    "cosim-membound",
    "ref-interp",
    "campaign-mix",
    "sample-flow",
];

/// Worker threads wherever a workload fans out (`nproc` is 2).
pub const WORKERS: usize = 2;

/// Set-up is repeated — at least `SETUP_REPEATS_MIN` times, and until
/// `SETUP_SECONDS` are spent or `SETUP_REPEATS_MAX` is reached — and its
/// median reported, so that a set-up of a few milliseconds is measured
/// as steadily as one of a second.
const SETUP_REPEATS_MIN: usize = 3;
const SETUP_REPEATS_MAX: usize = 25;
const SETUP_SECONDS: f64 = 1.5;

/// Input sizing: the measured sizes, or Test-scale inputs for `--check`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Check,
}

/// Threads a workload's timed regions keep busy.
fn threads(name: &str) -> usize {
    match name {
        "campaign-mix" | "sample-flow" => WORKERS,
        _ => 1,
    }
}

fn build(name: &str, seed: u64, size: Size, work: &Path) -> Option<Box<dyn Workload>> {
    Some(match name {
        "cosim-compute" => Box::new(cosim::Cosim::new(&cosim::COMPUTE, seed, size)),
        "cosim-membound" => Box::new(cosim::Cosim::new(&cosim::MEMBOUND, seed, size)),
        "ref-interp" => Box::new(refinterp::RefInterp::new(seed, size)),
        "campaign-mix" => Box::new(campaignmix::CampaignMix::new(seed, size)),
        // Fixed kernels in a fixed order: the seed changes nothing here.
        "sample-flow" => Box::new(sampleflow::SampleFlow::new(size, work)),
        _ => return None,
    })
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    check: bool,
    work: PathBuf,
}

fn usage() -> ! {
    eprintln!(
        "usage: run.sh --workload <{}> [--seed <n>] [--seconds <s>] [--trace <0|1>]\n       run.sh --check",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        check: false,
        work: PathBuf::from("benchmark/work"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = Some(value()),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--work" => args.work = PathBuf::from(value()),
            "--check" => args.check = true,
            _ => usage(),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    // One directory per process, removed on the way out.
    let work = args.work.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&work).expect("work directory is creatable");
    let ok = if args.check {
        check(&work)
    } else {
        match args.workload.as_deref() {
            Some(name) if WORKLOADS.contains(&name) => run(name, &args, &work),
            _ => usage(),
        }
    };
    let _ = std::fs::remove_dir_all(&work);
    std::process::exit(if ok { 0 } else { 1 });
}

/// Fold one pass into the running operation counts; every pass of a run
/// repeats the same operations, so their digests must agree.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    digest: Option<u64>,
}

impl Tally {
    fn add(&mut self, what: &str, pass: &Pass) {
        self.attempted += pass.ops;
        self.failed += pass.failures.len() as u64;
        for f in &pass.failures {
            println!("FAILED [{what}] {f}");
        }
        match self.digest {
            None => self.digest = Some(pass.digest),
            Some(d) if d != pass.digest => {
                self.failed += 1;
                println!(
                    "FAILED [{what}] deterministic outcome {:#018x} differs from the first pass's {d:#018x}",
                    pass.digest
                );
            }
            Some(_) => {}
        }
    }
}

fn run(name: &str, args: &Args, work: &Path) -> bool {
    println!(
        "workload {name} seed {} seconds {} trace {} threads<={WORKERS} (available parallelism {})",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );

    let mut host = Host::new(threads(name));
    let mut setups = Vec::new();
    let mut setups_norm = Vec::new();
    let mut workload = None;
    while setups.len() < SETUP_REPEATS_MIN
        || (setups.len() < SETUP_REPEATS_MAX && setups.iter().sum::<f64>() < SETUP_SECONDS)
    {
        drop(workload.take());
        let (secs, to_reference) = host.around(|| {
            let t0 = Instant::now();
            workload = build(name, args.seed, Size::Full, work);
            t0.elapsed().as_secs_f64()
        });
        setups.push(secs);
        setups_norm.push(secs * to_reference);
    }
    let mut workload = workload.expect("workload name was validated");
    let setup_s = median(&setups_norm);
    println!(
        "set-up repeated {} times, median {:.4} s as timed",
        setups.len(),
        median(&setups)
    );

    let mut tally = Tally::default();
    let t0 = Instant::now();
    tally.add("warm-up", &workload.pass(&mut host, None));
    println!(
        "warm-up pass (discarded) {:.3} s",
        t0.elapsed().as_secs_f64()
    );

    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let mut tracer = Tracer::new();
    let started = Instant::now();
    // A traced run spends four fifths of its time on paired
    // untraced/traced passes; the single-layer measurements in `layers`
    // take 3 to 8 s after them.
    let budget = if args.trace {
        args.seconds * 0.8
    } else {
        args.seconds
    };
    // Stop when another round like the last would overrun the budget.
    let mut round_s = 0.0;
    while untraced.is_empty() || started.elapsed().as_secs_f64() + round_s < budget {
        let round = Instant::now();
        let pass = workload.pass(&mut host, None);
        tally.add("pass", &pass);
        untraced.push(pass);
        if args.trace {
            let pass = workload.pass(&mut host, Some(&mut tracer));
            tally.add("traced pass", &pass);
            traced.push(pass);
        }
        round_s = round.elapsed().as_secs_f64();
    }

    let pass_secs: Vec<f64> = untraced.iter().map(Pass::secs).collect();
    let first = &untraced[0];
    println!(
        "passes {} ops/pass {} instr/pass {}",
        untraced.len(),
        first.ops,
        first.instr
    );
    println!(
        "{:<34} {:>14.4} s (median of {})",
        "pass_s",
        median(&pass_secs),
        pass_secs.len()
    );
    let all: Vec<String> = pass_secs.iter().map(|s| format!("{s:.3}")).collect();
    println!("{:<34} {}", "pass_s (each)", all.join(" "));
    match tail(&pass_secs) {
        Some((pct, v)) => println!("{:<34} {v:>14.4} s (p{pct:.0})", "pass_tail_s"),
        None => println!("{:<34} {:>14} (fewer than 20 passes)", "pass_tail_s", "n/a"),
    }
    let normalised_pass_s = metrics::normalised_pass_secs(&untraced);
    println!(
        "{:<34} {normalised_pass_s:>14.4} s (each operation's median at the reference host speed, summed)",
        "normalised_pass_s"
    );
    println!(
        "{:<34} {:>14.4} ms (median of {}; reference {:.1} ms: the host ran at {:.0} % of the reference speed)",
        "calibration_slice_ms",
        median(&host.slices) * 1e3,
        host.slices.len(),
        metrics::REFERENCE_SLICE_S * 1e3,
        metrics::REFERENCE_SLICE_S / median(&host.slices) * 100.0
    );
    println!(
        "{:<34} {:>14.4} Minstr/s (as timed: instr/pass over the median pass_s)",
        "sim_mips_as_timed",
        first.instr as f64 / median(&pass_secs) / 1e6
    );
    let mut leg_names: Vec<(&str, &str)> = Vec::new();
    for l in &first.legs {
        if !leg_names.iter().any(|(n, _)| *n == l.name) {
            leg_names.push((l.name, l.unit));
        }
    }
    for (leg, unit) in leg_names {
        println!(
            "{leg:<34} {:>14.4} {unit}",
            metrics::leg_median(&untraced, leg)
        );
    }
    for (exact, value) in &first.exact {
        println!("{exact:<34} {value:>14} (exact)");
    }
    println!("{:<34} {:>#14x}", "sim_digest", first.digest);
    println!(
        "{:<34} {:>14.3} permille ({} of {})",
        "ops_failed_milli",
        tally.failed as f64 * 1000.0 / tally.attempted as f64,
        tally.failed,
        tally.attempted
    );

    let mut values: Vec<(&str, &str, f64)> = Vec::new();
    if args.trace {
        let overhead_pct =
            metrics::pct_over(metrics::normalised_pass_secs(&traced), normalised_pass_s);
        let mut layers = Layers::default();
        layers.set("trace_overhead_pct", overhead_pct);
        workload.layers(&mut tracer, &untraced, overhead_pct, &mut layers);
        println!("span totals (name, spans, total ms, self ms):");
        for (span, t) in tracer.totals() {
            println!(
                "  {span:<32} {:>9} {:>12.3} {:>12.3}",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
        let csv = args.work.join(format!("trace-{name}.csv"));
        match tracer.write_csv(&csv) {
            Ok(()) => println!("spans written to {}", csv.display()),
            Err(e) => println!("could not write {}: {e}", csv.display()),
        }
        for &(metric, unit) in PER_LAYER {
            values.push((metric, unit, layers.get(metric)));
        }
    } else {
        let sim_mips = first.instr as f64 / normalised_pass_s / 1e6;
        for &(metric, unit) in END_TO_END {
            let v = match metric {
                "setup_s" => setup_s,
                "sim_mips" => sim_mips,
                "peak_rss_mb" => metrics::peak_rss_mb(),
                other => unreachable!("no measurement for {other}"),
            };
            values.push((metric, unit, v));
        }
    }
    for (metric, unit, v) in &values {
        println!("{metric:<44} {v:>16.4} {unit}");
    }

    let correct = tally.failed == 0;
    let body: Vec<String> = values
        .iter()
        .map(|(metric, unit, v)| format!("\"{metric}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    correct
}

/// `--check`: every workload's output checks on Test-scale inputs, no
/// timing. Two untraced passes and one traced pass must agree on the
/// deterministic outcome; the workloads' own checks (exit words against
/// the REF-alone run, clean jobs clean, injected bugs caught and triaged,
/// one worker against two) run inside the passes.
fn check(work: &Path) -> bool {
    let mut ok = true;
    for name in WORKLOADS {
        let t0 = Instant::now();
        let mut host = Host::new(threads(name));
        let mut workload = build(name, 1, Size::Check, work).expect("known workload");
        let mut tally = Tally::default();
        tally.add(name, &workload.pass(&mut host, None));
        tally.add(name, &workload.pass(&mut host, None));
        tally.add(name, &workload.pass(&mut host, Some(&mut Tracer::new())));
        println!(
            "check {name:<16} {} operations, {} failed, sim_digest {:#018x} ({:.1} s)",
            tally.attempted,
            tally.failed,
            tally.digest.unwrap_or(0),
            t0.elapsed().as_secs_f64()
        );
        ok &= tally.failed == 0;
    }
    ok &= check_manifest();
    println!("check {}", if ok { "passed" } else { "FAILED" });
    ok
}

/// `BENCHMARK.json` (when the checkout has it) must name exactly the
/// workloads and metrics this binary reports.
fn check_manifest() -> bool {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        println!("check manifest: no BENCHMARK.json in the working directory, skipped");
        return true;
    };
    let Ok(json) = serde_json::parse(&text) else {
        println!("check manifest: BENCHMARK.json does not parse");
        return false;
    };
    let names = |key: &str| -> Vec<String> {
        json.get_or_null(key)
            .as_array()
            .map(|a| {
                a.iter()
                    .filter_map(|e| e.get_or_null("name").as_str().map(str::to_string))
                    .collect()
            })
            .unwrap_or_default()
    };
    let mut ok = true;
    let mut same = |key: &str, want: Vec<&str>| {
        if names(key) != want {
            println!("check manifest: BENCHMARK.json `{key}` does not match the binary's list");
            ok = false;
        }
    };
    same("workloads", WORKLOADS.to_vec());
    same("end_to_end", END_TO_END.iter().map(|(n, _)| *n).collect());
    same("per_layer", PER_LAYER.iter().map(|(n, _)| *n).collect());
    ok
}
