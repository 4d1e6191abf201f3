//! Replay CLI: reproduce a triaged failure from its bundle alone, and
//! render the bundles of a bundle file or a report.
//!
//! ```text
//! replay --bundle job3.bundle.json        # render + re-execute + verify
//! replay --bundle job3.bundle.json --show # render only, no re-execution
//! replay --report report.json [--job N]   # render bundles from a report
//! replay --bundle job3.bundle.json --o3   # the crash ring as O3PipeView
//! ```
//!
//! A triage bundle is a self-contained recipe: the workload source, the
//! configuration, the injected bug, and the commit anchor of the
//! failure. `--bundle` re-executes that recipe from reset and checks
//! that the failure reproduces at the *identical commit index* — the
//! deterministic-replay guarantee the LightSSS → DiffTest debug loop
//! rests on. A rendered bundle is its triage card, whose crash-ring
//! waterfall is followed by the ring's gap summary; `--o3` (with
//! `--bundle` or `--report`) prints the rings as gem5-O3PipeView text
//! (Konata-compatible) instead of cards — a bundle file's after one
//! `bundle:` line naming the failure — and, like `--show`, simulates
//! nothing. Exit status: 0 when the failure reproduces (or rendering
//! succeeds), 1 when it does not, 2 on usage errors, on a report or
//! bundle of another schema version or of none, or that does not parse
//! (a malformed bundle in a report among them) or holds a lifecycle
//! record no core could have written, and on a bundle that cannot be set
//! up at all (a configuration the model refuses, an unknown kernel or
//! personality) — one `error:` line, nothing simulated or rendered.

use campaign::{verify_bundle, TriageBundle};

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!(
        "usage: replay --bundle FILE [--show | --o3]\n\
         \x20      replay --report FILE [--job N] [--o3]"
    );
    std::process::exit(2);
}

fn main() {
    let mut bundle_path: Option<String> = None;
    let mut report_path: Option<String> = None;
    let mut job: Option<u64> = None;
    let mut show_only = false;
    let mut o3 = false;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage("missing value for flag"))
        };
        match flag.as_str() {
            "--bundle" => bundle_path = Some(value()),
            "--report" => report_path = Some(value()),
            "--job" => job = Some(value().parse().unwrap_or_else(|_| usage("bad --job"))),
            "--show" => show_only = true,
            "--o3" => o3 = true,
            "--help" | "-h" => usage("help requested"),
            other => usage(&format!("unknown flag `{other}`")),
        }
    }
    let render = |b: &TriageBundle| if o3 { xscore::render_o3pipeview(&b.lifecycle_ring) } else { b.render() };

    match (bundle_path, report_path) {
        (Some(path), None) => {
            let b = campaign::load_bundle(&path).unwrap_or_else(|e| usage(&e));
            if o3 {
                println!(
                    "bundle: job {} ({}) workload {} config {} at cycle {}",
                    b.job_index, b.trigger, b.workload, b.config, b.at_cycle
                );
            }
            print!("{}", render(&b));
            if show_only || o3 {
                return;
            }
            eprintln!("re-executing from reset ({} cycle budget)...", b.max_cycles);
            let v = verify_bundle(&b).unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(2)
            });
            let verdict = if v.reproduced { "REPRODUCED" } else { "NOT reproduced" };
            println!("replay: {verdict} — {}", v.detail);
            if !v.reproduced {
                std::process::exit(1);
            }
        }
        (None, Some(path)) => {
            let jobs = campaign::report::load(&path).unwrap_or_else(|e| usage(&e)).jobs;
            let bundles: Vec<&TriageBundle> = jobs
                .iter()
                .filter(|j| job.is_none_or(|want| want == j.index))
                .filter_map(|j| j.triage.as_ref())
                .collect();
            for bundle in &bundles {
                print!("{}", render(bundle));
            }
            if bundles.is_empty() {
                eprintln!(
                    "no triage bundles{} in {path}",
                    job.map(|n| format!(" for job {n}")).unwrap_or_default()
                );
                std::process::exit(1);
            }
        }
        _ => usage("give exactly one of --bundle or --report"),
    }
}
