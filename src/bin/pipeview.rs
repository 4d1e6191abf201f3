//! Pipeline waterfall viewer: render per-instruction lifecycle records
//! from a triage bundle, a campaign report, or a raw trace export.
//!
//! ```text
//! pipeview --bundle BUNDLE.json [--o3]
//! pipeview --report REPORT.json [--job N] [--o3]
//! pipeview --trace TRACE.json [--o3]
//! ```
//!
//! * `--bundle` reads a `TriageBundle` (`campaign --bundle-dir`) and
//!   renders its crash-ring snapshot: the last uops in flight before the
//!   failure, as an ASCII waterfall plus per-stage gap summaries.
//! * `--report` reads a campaign report and renders, per job, the
//!   always-on lifecycle digest from the embedded perf snapshot and the
//!   ring waterfall of any attached triage bundle.
//! * `--trace` reads a raw JSON array of lifecycle records (e.g. the
//!   `lifecycle` ArchDB table exported by a `--lifecycle` run).
//! * `--o3` emits gem5-O3PipeView text (Konata-compatible) instead of
//!   the ASCII waterfall.
//!
//! Exit status: 0 on success (including an empty-but-well-formed ring),
//! 2 on a bad flag (with the synopsis) and on a file that cannot be
//! rendered — unreadable, not the JSON asked for, a report or bundle of
//! another schema version or of none, or holding a lifecycle record the
//! core could not have written (one `error:` line).

use xscore::{render_gap_summary, render_o3pipeview, render_waterfall, Lifecycle, LifecycleDigest};

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!(
        "usage: pipeview --bundle BUNDLE.json [--o3]\n\
         \x20      pipeview --report REPORT.json [--job N] [--o3]\n\
         \x20      pipeview --trace TRACE.json [--o3]"
    );
    std::process::exit(2);
}

/// A file that cannot be rendered: one line, as the report and bundle
/// loaders word their own.
fn fail(err: &str) -> ! {
    eprintln!("error: {err}");
    std::process::exit(2);
}

/// Fold raw records into a digest so gap summaries work on any source.
fn digest_of(records: &[Lifecycle]) -> LifecycleDigest {
    let mut d = LifecycleDigest::default();
    for r in records {
        if r.retired() {
            d.observe_retired(r);
        } else if let Some(cause) = r.cause {
            d.observe_squashed(r, cause);
        }
    }
    d
}

/// The records read from `path`, each one checked — `--trace`,
/// `--bundle` and `--report` all pass theirs through here before anything
/// is rendered.
fn checked<'a>(records: &'a [Lifecycle], path: &str) -> &'a [Lifecycle] {
    for (i, r) in records.iter().enumerate() {
        if let Err(e) = r.check() {
            fail(&format!("{path}: lifecycle record {i} (seq {}): {e}", r.seq));
        }
    }
    records
}

fn render_records(records: &[Lifecycle], o3: bool) {
    if o3 {
        print!("{}", render_o3pipeview(records));
    } else {
        print!("{}", render_waterfall(records));
        print!("{}", render_gap_summary(&digest_of(records)));
    }
}

fn main() {
    let mut bundle: Option<String> = None;
    let mut report: Option<String> = None;
    let mut trace: Option<String> = None;
    let mut only_job: Option<u64> = None;
    let mut o3 = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage("missing value for flag"))
        };
        match arg.as_str() {
            "--bundle" => bundle = Some(value()),
            "--report" => report = Some(value()),
            "--trace" => trace = Some(value()),
            "--job" => {
                only_job = Some(value().parse().unwrap_or_else(|_| usage("bad --job")));
            }
            "--o3" => o3 = true,
            "--help" | "-h" => usage("help requested"),
            other => usage(&format!("unknown flag `{other}`")),
        }
    }
    let sources = [&bundle, &report, &trace].iter().filter(|s| s.is_some()).count();
    if sources != 1 {
        usage("give exactly one of --bundle, --report, --trace");
    }

    if let Some(path) = &bundle {
        let b = campaign::load_bundle(path).unwrap_or_else(|e| fail(&e));
        let ring = checked(&b.lifecycle_ring, path);
        println!(
            "bundle: job {} ({}) workload {} config {} at cycle {}",
            b.job_index, b.trigger, b.workload, b.config, b.at_cycle
        );
        render_records(ring, o3);
    } else if let Some(path) = &report {
        let jobs = campaign::report::load(path).unwrap_or_else(|e| fail(&e)).jobs;
        for b in jobs.iter().filter_map(|j| j.triage.as_ref()) {
            checked(&b.lifecycle_ring, path);
        }
        let mut rendered = 0u64;
        for j in &jobs {
            if only_job.is_some_and(|n| n != j.index) {
                continue;
            }
            rendered += 1;
            println!(
                "=== job {} {} {} [{}] ===",
                j.index,
                j.workload,
                j.config,
                j.verdict.label()
            );
            if !o3 {
                print!("{}", render_gap_summary(&j.perf.lifecycle_digest()));
            }
            match &j.triage {
                Some(b) => render_records(&b.lifecycle_ring, o3),
                None if o3 => {}
                None => println!("(no triage bundle: job did not fail)"),
            }
            println!();
        }
        if rendered == 0 {
            usage(&format!("no matching job in {path}"));
        }
    } else if let Some(path) = &trace {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("read {path}: {e}")));
        let records: Vec<Lifecycle> =
            serde_json::from_str(&text).unwrap_or_else(|e| fail(&format!("parse {path}: {e}")));
        render_records(checked(&records, path), o3);
    }
}
