//! CLI smoke tier: drives the built `campaign`, `replay` and
//! `perf_report` binaries the way `scripts/ci.sh` used to in bash +
//! python, asserting on exit codes and on the files they write.
//!
//! It holds the triage smoke (injected bug → bundle → replay) with the
//! hostile-bundle cases around it, the lifecycle smoke (crash ring →
//! bundle → `replay`'s card and `--o3`, a ring no core could have written
//! refused by every reader, `--lifecycle` determinism), the perf smoke (one
//! kernel under `--telemetry` → `perf_report`), the two `--mp` smokes
//! (litmus determinism with live coherence coverage; the injected L2
//! race → forbidden outcome → bundle → replay), the sampling smoke
//! (`--sample` farms on one `--checkpoint-dir`: cold, warm, and over a
//! torn blob), the fuzz determinism smoke (two same-seed `--fuzz` runs,
//! coverage growing round over round), the trace tier as the DiffTest
//! REF (`--ref nemu-trace`, twice, byte-identical), the mode-specific
//! flags a mode does not honour and a `--lightsss` or `--job-timeout-ms`
//! of 0 (exit 2, never dropped or run) beside a job flag reaching
//! `--sample`'s jobs, and the report and bundle readers' own
//! limits (a 200-job report read back in seconds; nesting bombs, other
//! schema versions, a missing one and a malformed bundle refused in one
//! line). Every report and bundle a campaign here writes is read back
//! through the readers' typed loaders and must print back byte for byte.
//! Every `ci.sh` block that could move is here; the two that stay read
//! their reports with python's `json` on purpose.

use campaign::{CampaignReport, JobRecord, TriageBundle, Verdict, WorkloadSource};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A scratch directory private to one test, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(test: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("cli-smoke-{test}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(exe: &str, args: &[&str]) -> Output {
    Command::new(exe)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn {exe}: {e}"))
}

fn campaign(args: &[&str]) -> Output {
    run(env!("CARGO_BIN_EXE_campaign"), args)
}

fn replay(bundle: &Path) -> Output {
    run(
        env!("CARGO_BIN_EXE_replay"),
        &["--bundle", bundle.to_str().unwrap()],
    )
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path:?}: {e}"))
}

/// The report at `path` as the readers load it. It must print back to
/// the file byte for byte, so a field dropped on read fails here.
fn load_report(path: &Path) -> CampaignReport {
    let report = campaign::report::load(path.to_str().unwrap()).unwrap_or_else(|e| panic!("{e}"));
    assert!(report.full_json() == read(path), "{path:?} does not read back byte for byte");
    report
}

/// The bundle at `path` as the readers load it, printing back likewise.
fn load_bundle(path: &Path) -> TriageBundle {
    let bundle = campaign::load_bundle(path.to_str().unwrap()).unwrap_or_else(|e| panic!("{e}"));
    let text = serde_json::to_string_pretty(&bundle).unwrap();
    assert!(text == read(path), "{path:?} does not read back byte for byte");
    bundle
}

/// Check the bundles `campaign --bundle-dir` wrote into `dir` for
/// `report`: one file per triaged job, nothing else, each the bundle
/// embedded in its job.
fn check_bundle_dir(report: &CampaignReport, dir: &Path) {
    let mut files = 0;
    for j in &report.jobs {
        let Some(embedded) = &j.triage else { continue };
        let file = dir.join(format!("job{}.bundle.json", j.index));
        let text = serde_json::to_string_pretty(&load_bundle(&file)).unwrap();
        assert!(text == serde_json::to_string_pretty(embedded).unwrap(), "{file:?} is not job {}'s bundle", j.index);
        files += 1;
    }
    assert_eq!(std::fs::read_dir(dir).expect("bundle directory").count(), files);
}

/// `text` with its first `"schema_version": <from>` made `<to>`.
fn with_schema(text: &str, from: u64, to: u64) -> String {
    let key = format!("\"schema_version\": {from}");
    assert!(text.contains(&key), "no {key}");
    text.replacen(&key, &format!("\"schema_version\": {to}"), 1)
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Run a tool that must succeed and return what it printed.
fn rendered(exe: &str, args: &[&str]) -> String {
    let out = run(exe, args);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{exe} {args:?}: {}",
        stderr(&out)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Run a torture campaign with the MulLowBit bug injected (LightSSS on,
/// minimization off) into `scratch`; some seeds must diverge, so the
/// campaign exits 1 by contract. Returns the report and the bundle
/// directory.
fn injected_bug_campaign(
    scratch: &Scratch,
    seeds: &str,
    configs: &str,
    workers: &str,
) -> (CampaignReport, PathBuf) {
    let report = scratch.path("report.json");
    let bundles = scratch.path("bundles");
    #[rustfmt::skip]
    let out = campaign(&[
        "--torture-seeds", seeds,
        "--configs", configs,
        "--inject-bug", "mul-low-bit",
        "--lightsss", "2000",
        "--max-cycles", "8000000",
        "--workers", workers,
        "--no-minimize",
        "--bundle-dir", bundles.to_str().unwrap(),
        "--out", report.to_str().unwrap(),
    ]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "diverged jobs exit 1: {}",
        stderr(&out)
    );
    let r = load_report(&report);
    check_bundle_dir(&r, &bundles);
    (r, bundles)
}

/// Run the injected-bug campaign of the triage smoke into `scratch` and
/// return the bundle file of its first diverged job.
fn diverged_bundle(scratch: &Scratch) -> PathBuf {
    let (r, bundles) = injected_bug_campaign(scratch, "0..3", "small-nh", "3");
    let job = r
        .jobs
        .iter()
        .find(|j| matches!(j.verdict, Verdict::Diverged { .. }))
        .expect("injected bug produced no divergence");
    let b = job.triage.as_ref().expect("diverged jobs carry a triage bundle");
    assert_eq!(b.schema_version, campaign::BUNDLE_SCHEMA_VERSION);
    assert_eq!(b.trigger, "diverged");
    assert!(b.reproduced);
    assert!(b.at_commit > 0, "bundle lacks the commit anchor");
    assert!(!b.commit_tail.is_empty(), "bundle lacks the commit tail");
    bundles.join(format!("job{}.bundle.json", job.index))
}

#[test]
fn triage_bundle_replays_at_the_same_commit() {
    let scratch = Scratch::new("triage");
    let bundle = diverged_bundle(&scratch);
    // The bundle alone must reproduce the divergence at the same commit
    // index (replay exits 0 only on REPRODUCED).
    let out = replay(&bundle);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("replay: REPRODUCED"), "{stdout}");
}

#[test]
fn hostile_bundles_are_setup_errors_not_panics() {
    let scratch = Scratch::new("hostile");
    let file = diverged_bundle(&scratch);
    let good = load_bundle(&file);

    // A bundle of another schema is not rendered, let alone replayed.
    let stale = scratch.path("schema.bundle.json");
    std::fs::write(&stale, with_schema(&read(&file), campaign::BUNDLE_SCHEMA_VERSION, 99)).unwrap();
    for reader in &readers()[2..] {
        assert_refused(*reader, &stale, "bundle schema 99, this build reads 5");
    }

    let edited = |edit: &dyn Fn(&mut TriageBundle)| {
        let mut b = good.clone();
        edit(&mut b);
        serde_json::to_string_pretty(&b).unwrap()
    };
    let sample = WorkloadSource::Sample {
        kernel: "sjeng".into(),
        ref_model: "nosuch".into(),
        interval_len: 5000,
        interval: 1,
        warmup: 100,
        window: 100,
    };
    // (case, the bundle, the diagnosis `replay` must print)
    let cases = [
        ("kernel", edited(&|b| b.source = WorkloadSource::kernel("nosuch")), "unknown workload `nosuch`"),
        ("ref-model", edited(&|b| b.source = sample.clone()), "unknown profiling personality `nosuch`"),
        // The preset exists; the model refuses it for this core count.
        (
            "config",
            edited(&|b| (b.config, b.cores) = ("small-yqh".into(), Some(2))),
            "no shared last-level cache",
        ),
        // A core count no system here can build, or a snapshot interval
        // of 0: refused at the load gate (`gate-`) by every bundle reader
        // before a core is built or a card rendered.
        ("gate-cores-0", edited(&|b| b.cores = Some(0)), "bundle asks for 0 cores"),
        ("gate-cores-2^32", edited(&|b| b.cores = Some(1 << 32)), "at most 16 harts"),
        ("gate-lightsss-0", edited(&|b| b.lightsss_interval = Some(0)), "LightSSS interval of 0 cycles"),
    ];
    for (name, text, diagnosis) in cases {
        let file = scratch.path(&format!("{name}.bundle.json"));
        std::fs::write(&file, text).unwrap();
        let out = replay(&file);
        let err = stderr(&out);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{name}: setup errors exit 2: {err}"
        );
        assert_eq!(err.lines().filter(|l| l.starts_with("error:")).count(), 1, "{name}: {err}");
        assert!(err.contains(diagnosis), "{name}: {err}");
        if name.starts_with("gate-") {
            for reader in &readers()[2..] {
                assert_refused(*reader, &file, diagnosis);
            }
        }
        assert!(
            !err.contains("unknown configuration preset"),
            "{name}: {err}"
        );
        assert!(!err.contains("panicked"), "{name}: no panic output: {err}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            !stdout.contains("replay:"),
            "{name}: nothing is simulated: {stdout}"
        );
    }
}

#[test]
fn crash_ring_reaches_the_bundle_and_replay_renders_it() {
    let scratch = Scratch::new("crash-ring");
    let (r, bundles) = injected_bug_campaign(&scratch, "0..6", "small-nh,small-yqh", "4");

    // Every failing job's bundle carries the always-on crash ring: the
    // last uops in flight before the divergence, capped and cause-tagged.
    assert_eq!(r.jobs.len(), 12);
    let bundled: Vec<&JobRecord> = r.jobs.iter().filter(|j| j.triage.is_some()).collect();
    assert!(
        !bundled.is_empty(),
        "injected bug produced no triage bundle"
    );
    for j in &bundled {
        let (index, ring) = (j.index, &j.triage.as_ref().unwrap().lifecycle_ring);
        assert!(!ring.is_empty(), "job {index}: empty crash ring");
        assert!(ring.len() <= 64, "job {index}: ring overflows its cap");
        for rec in ring {
            assert!(
                rec.retired() || rec.cause.is_some(),
                "job {index}: ring record neither retired nor cause-tagged"
            );
            assert!(rec.stamps.fetched > 0, "job {index}: unfetched ring record");
        }
    }

    // `replay` renders the bundle's ring on its card, the waterfall with
    // the ring's gap summary, and as O3PipeView, one `fetch` line per
    // record; perf_report renders the report's lifecycle section.
    let (index, ring) = (bundled[0].index, &bundled[0].triage.as_ref().unwrap().lifecycle_ring);
    let bundle = bundles.join(format!("job{index}.bundle.json"));
    let bundle = bundle.to_str().unwrap();
    let replay = env!("CARGO_BIN_EXE_replay");
    let card = rendered(replay, &["--show", "--bundle", bundle]);
    assert!(card.contains("\nwaterfall: ") && card.contains("\nlifecycle digest: "), "{card}");
    let o3 = rendered(replay, &["--o3", "--bundle", bundle]);
    assert_eq!(o3.lines().filter(|l| l.starts_with("O3PipeView:fetch:")).count(), ring.len(), "{o3}");
    let report = scratch.path("report.json");
    rendered(env!("CARGO_BIN_EXE_perf_report"), &[report.to_str().unwrap(), "--lifecycle"]);

    // A ring no core could have written — a stage stamped after the
    // record's end cycle (the lane index used to run past its 48
    // columns), the same near `u64::MAX` (the scaling used to overflow
    // first) — or a file cut short is refused by every bundle reader, and
    // a report whose job carries such a bundle by every report reader.
    let (readers, hostile) = (readers(), scratch.path("hostile.json"));
    for (good, readers) in [(read(&report), &readers[..2]), (read(Path::new(bundle)), &readers[2..])] {
        let cases = [
            (with_issued(&good, 4_000_000_000), "issued stamp 4000000000 lies after"),
            (with_issued(&good, u64::MAX), "issued stamp 18446744073709551615 lies after"),
            (good[..good.len() / 2].to_string(), "parse"),
        ];
        for (text, diagnosis) in cases {
            std::fs::write(&hostile, text).unwrap();
            for reader in readers {
                assert_refused(*reader, &hostile, diagnosis);
            }
        }
    }
}

/// `json` with its first `"issued"` stamp replaced by `stamp`.
fn with_issued(json: &str, stamp: u64) -> String {
    let key = json.find("\"issued\":").expect("an issued stamp") + "\"issued\":".len();
    let digits = key + json[key..].find(|c: char| c.is_ascii_digit()).unwrap();
    let end = digits + json[digits..].find(|c: char| !c.is_ascii_digit()).unwrap();
    format!("{}{stamp}{}", &json[..digits], &json[end..])
}

#[test]
fn lifecycle_campaign_bodies_are_deterministic() {
    // Full-trace mode: two identical --lifecycle campaigns agree once
    // the timing section is dropped, lifecycle digest included.
    let scratch = Scratch::new("lifecycle");
    let body = |name: &str| {
        let file = scratch.path(name);
        #[rustfmt::skip]
        let out = campaign(&[
            "--workloads", "mcf,libquantum",
            "--configs", "small-nh",
            "--torture-seeds", "0..2",
            "--lifecycle",
            "--workers", "3",
            "--out", file.to_str().unwrap(),
        ]);
        assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
        load_report(&file)
    };
    let (a, b) = (body("a.json"), body("b.json"));
    assert!(a.deterministic_json() == b.deterministic_json(), "--lifecycle bodies differ between identical runs");
    let cores = a.jobs.iter().flat_map(|j| &j.perf.cores);
    let retired: u64 = cores.map(|c| c.perf.lifecycle.retired).sum();
    assert!(retired > 0, "lifecycle digest never counted a retire");
}

/// Run the 12-job two-hart litmus fuzz round of the mp smokes (plus
/// `extra` flags) into `scratch/<name>`; returns the exit code and the
/// report.
fn mp_campaign(scratch: &Scratch, name: &str, extra: &[&str]) -> (Option<i32>, CampaignReport) {
    let file = scratch.path(name);
    #[rustfmt::skip]
    let mut args = vec![
        "--fuzz", "--mp", "--rounds", "1", "--fuzz-jobs", "12", "--fuzz-seed", "0",
        "--configs", "small-nh",
        "--max-cycles", "400000",
        "--workers", "4",
        "--out", file.to_str().unwrap(),
    ];
    args.extend_from_slice(extra);
    (campaign(&args).status.code(), load_report(&file))
}

#[test]
fn mp_litmus_bodies_are_deterministic_with_live_coherence_coverage() {
    // The same seed twice on two harts: byte-identical bodies, every job
    // halted on an allowed outcome, the `mp:` coverage family live.
    let scratch = Scratch::new("mp");
    let (code, a) = mp_campaign(&scratch, "a.json", &[]);
    assert_eq!(code, Some(0));
    let b = mp_campaign(&scratch, "b.json", &[]).1;
    assert!(a.deterministic_json() == b.deterministic_json(), "mp bodies differ between identical runs");
    let s = &a.summary;
    assert!(s.total == 12 && s.halted == 12, "{s:?}");
    assert!(s.diverged == 0 && s.forbidden == 0, "{s:?}");
    let hits = a.jobs.iter().flat_map(|j| j.coverage.iter().flat_map(|c| &c.mp));
    let live = hits.filter(|(_, bucket)| *bucket > 0).count();
    assert!(live > 0, "mp campaign recorded no coherence coverage");
}

#[test]
fn injected_l2_race_is_a_forbidden_outcome_that_replays() {
    // The §IV-C probe/grant race corrupts a litmus line inside its race
    // window: the outcome oracle flags the forbidden observation (exit 1
    // by contract), the minimizer keeps the litmus recipe, and the bundle
    // alone reproduces it at the same commit (replay exits 0 only then).
    let scratch = Scratch::new("mp-race");
    let bundles = scratch.path("bundles");
    let flags = ["--inject-l2-race", "--bundle-dir", bundles.to_str().unwrap()];
    let (code, r) = mp_campaign(&scratch, "race.json", &flags);
    assert_eq!(code, Some(1), "forbidden outcomes exit 1");
    assert!(r.summary.forbidden >= 1, "{:?}", r.summary);
    check_bundle_dir(&r, &bundles);
    let job = r
        .jobs
        .iter()
        .find(|j| matches!(j.verdict, Verdict::ForbiddenOutcome { .. }))
        .expect("forbidden tally has no matching job verdict");
    let m = job.minimized.as_ref().expect("a minimized reproducer");
    assert_eq!(m.error_class, "ForbiddenOutcome", "{m:?}");
    assert!(m.litmus.is_some() && m.torture.is_none(), "repro lost its litmus recipe");
    let b = job.triage.as_ref().expect("a triage bundle");
    assert!(b.trigger == "forbidden-outcome" && b.reproduced, "{b:?}");
    assert!(b.forbidden_exit.is_some_and(|w| w != 0), "no forbidden exit word");
    let bundle = bundles.join(format!("job{}.bundle.json", job.index));
    let out = replay(&bundle);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
}

#[test]
fn telemetry_snapshot_is_live_and_perf_report_renders_it() {
    // One kernel under full telemetry: the PerfSnapshot in the report
    // must obey the top-down identity and have every probe family live.
    let scratch = Scratch::new("perf");
    let report = scratch.path("report.json");
    #[rustfmt::skip]
    let out = campaign(&[
        "--workloads", "mcf",
        "--configs", "small-nh",
        "--telemetry",
        "--workers", "1",
        "--out", report.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let r = load_report(&report);
    let perf = &r.jobs[0].perf;
    let cores = &perf.cores;

    let mut cpi = std::collections::BTreeMap::<&str, u64>::new();
    for core in cores {
        for (k, v) in core.perf.cpi.components() {
            *cpi.entry(k).or_default() += v;
        }
    }
    let cycles = cores.iter().map(|c| c.perf.cycles).max();
    let slots = cycles.expect("a core") * perf.commit_width;
    assert_eq!(cpi.values().sum::<u64>(), slots, "{cpi:?}");
    // The components a real kernel run must exercise (rob_full/iq_full
    // can legitimately stay zero on a short run).
    for key in ["retired", "frontend_starved", "mispredict_recovery", "memory_stall"] {
        assert!(cpi[key] > 0, "CPI component {key} is zero: {cpi:?}");
    }

    let l1d: Vec<_> = perf.caches.iter().filter(|c| c.name.starts_with("l1d")).map(|c| &c.stats).collect();
    assert!(!l1d.is_empty(), "no L1D in {:?}", perf.caches);
    for s in l1d {
        assert!(s.hits > 0 && s.misses > 0, "{s:?}");
    }
    assert!(perf.dram.accesses > 0, "{:?}", perf.dram);
    for c in cores {
        assert!(c.perf.rob_occupancy.samples > 0);
    }
    assert!(perf.mem_latency.l1_hit.samples > 0, "{:?}", perf.mem_latency);

    // perf_report renders the report.
    let perf_report = env!("CARGO_BIN_EXE_perf_report");
    assert!(!rendered(perf_report, &[report.to_str().unwrap()]).is_empty());
}

#[test]
fn sampled_farms_share_a_checkpoint_cache_and_repair_it() {
    // Three identical checkpoint farms on one reuse directory: the first
    // profiles and stores the blobs, the second must answer from the
    // cache, the third finds one blob cut short (a run killed mid-write)
    // and must re-profile and repair it — all three exit 0 with the same
    // deterministic body.
    let scratch = Scratch::new("sample");
    let ckpts = scratch.path("ckpts");
    let farm = |name: &str| {
        let file = scratch.path(name);
        #[rustfmt::skip]
        let out = campaign(&[
            "--sample",
            "--workloads", "sjeng",
            "--configs", "small-nh,small-yqh",
            "--interval", "5000",
            "--max-checkpoints", "3",
            "--checkpoint-dir", ckpts.to_str().unwrap(),
            "--workers", "3",
            "--out", file.to_str().unwrap(),
        ]);
        assert_eq!(out.status.code(), Some(0), "{name}: {}", stderr(&out));
        file
    };
    let body = |name: &str| load_report(&farm(name)).deterministic_json();
    // Every file of the cache: path → (length, modification time).
    let cache_files = || {
        let entries = std::fs::read_dir(&ckpts).expect("checkpoint directory exists");
        let stat = |e: std::io::Result<std::fs::DirEntry>| {
            let e = e.expect("directory entry");
            let meta = e.metadata().expect("metadata");
            (e.path(), (meta.len(), meta.modified().expect("mtime")))
        };
        entries.map(stat).collect::<std::collections::BTreeMap<_, _>>()
    };

    let report = load_report(&farm("cold.json"));
    let cold = report.deterministic_json();
    assert_eq!(report.sampling.len(), 2, "one summary per config cell");
    for sm in &report.sampling {
        assert!(sm.workload == "kernel:sjeng" && sm.ref_model == "nemu-trace", "{sm:?}");
        assert!(sm.checkpoints >= 2 && sm.aggregated >= 2, "{sm:?}");
        assert!((1..50_000).contains(&sm.weighted_cpi_milli), "{sm:?}");
        let members: u64 = sm.phases.iter().map(|p| p.members).sum();
        assert!(members <= sm.total_intervals, "{sm:?}");
    }
    // Every measured window obeys the top-down identity exactly.
    let windows: Vec<_> = report.jobs.iter().filter_map(|j| Some((j, j.sample.as_ref()?))).collect();
    assert!(!windows.is_empty(), "no sample records in the report");
    for (j, s) in windows {
        assert_eq!(s.cpi_stack.total(), s.window_cycles * j.perf.commit_width, "job {}", j.index);
    }

    let stored = cache_files();
    let is_blob = |p: &&PathBuf| p.extension().is_some_and(|e| e == "ckpt");
    let blobs: Vec<&PathBuf> = stored.keys().filter(is_blob).collect();
    assert!(blobs.len() >= 2, "{stored:?}");
    assert!(body("warm.json") == cold, "bodies differ across the cache round-trip");
    assert_eq!(cache_files(), stored, "the warm farm hit the cache: nothing rewritten");

    let whole = std::fs::read(blobs[0]).unwrap();
    std::fs::write(blobs[0], &whole[..whole.len() / 2]).unwrap();
    assert!(body("repaired.json") == cold, "bodies differ over a torn blob");
    assert_eq!(std::fs::read(blobs[0]).unwrap(), whole, "the torn blob was repaired");
    let names = |files: std::collections::BTreeMap<PathBuf, _>| files.into_keys().collect::<Vec<_>>();
    assert_eq!(names(cache_files()), names(stored), "no file added or left behind");

    let perf_report = env!("CARGO_BIN_EXE_perf_report");
    rendered(perf_report, &[scratch.path("cold.json").to_str().unwrap()]);
}

#[test]
fn fuzz_campaign_bodies_are_deterministic_with_coverage_growing_each_round() {
    // Same seed and worker count twice: the body must repeat byte for
    // byte, and every round must contribute new coverage.
    let scratch = Scratch::new("fuzz");
    let body = |name: &str| {
        let file = scratch.path(name);
        #[rustfmt::skip]
        let out = campaign(&[
            "--fuzz", "--rounds", "2", "--fuzz-jobs", "8", "--fuzz-seed", "5",
            "--configs", "small-nh",
            "--workers", "4",
            "--out", file.to_str().unwrap(),
        ]);
        assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
        load_report(&file)
    };
    let (a, b) = (body("a.json"), body("b.json"));
    assert!(a.deterministic_json() == b.deterministic_json(), "fuzz report bodies differ between identical runs");
    let fuzz = a.fuzz.as_ref().expect("a fuzz section");
    assert_eq!(fuzz.rounds.len(), 2, "{fuzz:?}");
    for round in &fuzz.rounds {
        assert!(round.new_features > 0, "a round found no new coverage: {fuzz:?}");
    }
    let cumulative: Vec<u64> = fuzz.rounds.iter().map(|r| r.cumulative_features).collect();
    assert!(cumulative.windows(2).all(|w| w[0] < w[1]), "coverage not strictly growing: {cumulative:?}");
    assert_eq!(cumulative.last(), Some(&fuzz.total_features), "{fuzz:?}");
    let has_map = |j: &JobRecord| j.coverage.as_ref().is_some_and(|c| !c.features().is_empty());
    assert!(a.jobs.len() == 16 && a.jobs.iter().all(has_map), "fuzz jobs missing coverage maps");
}

#[test]
fn trace_tier_as_the_difftest_ref_halts_everywhere_and_repeats_byte_for_byte() {
    // The 12-job smoke matrix of `ci.sh` with the superblock trace tier
    // as the REF, twice: all 12 halted, bodies identical without `timing`.
    let scratch = Scratch::new("trace-ref");
    let body = |name: &str| {
        let file = scratch.path(name);
        #[rustfmt::skip]
        let out = campaign(&[
            "--workloads", "mcf,libquantum",
            "--configs", "small-nh,small-yqh",
            "--torture-seeds", "0..4",
            "--workers", "4",
            "--ref", "nemu-trace",
            "--out", file.to_str().unwrap(),
        ]);
        assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
        load_report(&file)
    };
    let (a, b) = (body("a.json"), body("b.json"));
    assert!(a.deterministic_json() == b.deterministic_json(), "--ref nemu-trace bodies differ between identical runs");
    let s = &a.summary;
    assert!(s.total == 12 && s.halted == 12, "{s:?}");
    assert_eq!(a.jobs.len(), 12);
}

#[test]
fn a_flag_the_mode_does_not_honour_is_refused_not_dropped() {
    // One dropped flag per mode, and a zero snapshot interval or
    // wall-clock limit: a usage error that names the flag, before
    // anything is simulated.
    #[rustfmt::skip]
    let cases: [(&[&str], &str); 6] = [
        (&["--sample", "--workloads", "sjeng", "--rounds", "1"], "`--rounds` is not honoured by"),
        (&["--torture-seeds", "0..1", "--interval", "5000"], "`--interval` is not honoured by"),
        (&["--fuzz", "--rounds", "1", "--fuzz-jobs", "2", "--torture-seeds", "0..1"], "`--torture-seeds` is not honoured by"),
        (&["--torture-seeds", "0..1", "--mp"], "`--mp` is not honoured by"),
        (&["--torture-seeds", "0..1", "--lightsss", "0"], "`--lightsss 0`: the snapshot interval must be positive"),
        (&["--torture-seeds", "0..1", "--job-timeout-ms", "0"], "`--job-timeout-ms 0`: the wall-clock limit must be positive"),
    ];
    for (args, diagnosis) in cases {
        let out = campaign(args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.lines().count() == 1 && err.contains(diagnosis), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing is reported");
    }

    // Fully honoured lines still run: every matrix switch at once, and
    // `--coverage` under `--fuzz`, whose jobs collect coverage anyway.
    let scratch = Scratch::new("flags");
    let out = scratch.path("out.json");
    #[rustfmt::skip]
    let lines: [(&[&str], usize); 2] = [
        (&["--torture-seeds", "0..1", "--telemetry", "--lifecycle", "--coverage", "--no-minimize",
           "--job-timeout-ms", "600000", "--retries", "1", "--retry-backoff-ms", "1"], 1),
        (&["--fuzz", "--rounds", "1", "--fuzz-jobs", "2", "--coverage"], 2),
    ];
    for (line, jobs) in lines {
        let run = campaign(&[line, &["--out", out.to_str().unwrap()][..]].concat());
        assert_eq!(run.status.code(), Some(0), "{line:?}: {}", stderr(&run));
        assert_eq!(load_report(&out).jobs.len(), jobs, "{line:?}");
    }

    // A job flag reaches every mode's jobs: `--telemetry`, once refused
    // under `--sample`, fills every sample job's occupancy histograms.
    #[rustfmt::skip]
    let run = campaign(&["--sample", "--workloads", "sjeng", "--max-checkpoints", "2", "--telemetry",
                         "--out", out.to_str().unwrap()]);
    assert_eq!(run.status.code(), Some(0), "{}", stderr(&run));
    let jobs = load_report(&out).jobs;
    assert!(!jobs.is_empty());
    for j in jobs {
        for c in &j.perf.cores {
            assert!(c.perf.rob_occupancy.samples > 0, "job {}", j.index);
        }
    }
}

/// The five ways a tool reads a file someone else wrote: (tool, the
/// flags before the path) — two report readers, then three bundle
/// readers.
fn readers() -> [(&'static str, &'static [&'static str]); 5] {
    [
        (env!("CARGO_BIN_EXE_perf_report"), &[]),
        (env!("CARGO_BIN_EXE_replay"), &["--report"]),
        (env!("CARGO_BIN_EXE_replay"), &["--bundle"]),
        (env!("CARGO_BIN_EXE_replay"), &["--show", "--bundle"]),
        (env!("CARGO_BIN_EXE_replay"), &["--o3", "--bundle"]),
    ]
}

/// `reader` must refuse `file` with exit 2 and one `error:` line that
/// carries `diagnosis`.
fn assert_refused(reader: (&str, &[&str]), file: &Path, diagnosis: &str) {
    let (exe, flags) = reader;
    let out = run(exe, &[flags, &[file.to_str().unwrap()][..]].concat());
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(2), "{exe} {flags:?}: {err}");
    assert_eq!(err.lines().filter(|l| l.starts_with("error:")).count(), 1, "{exe} {flags:?}: {err}");
    assert!(err.contains(diagnosis) && !err.contains("panicked"), "{exe} {flags:?}: {err}");
    assert!(out.stdout.is_empty(), "{exe} {flags:?}: nothing is rendered");
}

#[test]
fn a_200_job_report_reads_back_in_seconds_and_hostile_ones_are_refused() {
    let scratch = Scratch::new("readers");
    let report = scratch.path("report.json");
    #[rustfmt::skip]
    let out = campaign(&[
        "--torture-seeds", "0..200",
        "--configs", "small-nh",
        "--workers", "2",
        "--out", report.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let text = read(&report);
    assert_eq!(load_report(&report).jobs.len(), 200);
    // Reading a report is linear in its size (it was quadratic: 12.7 s
    // for these 2 MB in an optimised build).
    let started = std::time::Instant::now();
    let shown = rendered(env!("CARGO_BIN_EXE_perf_report"), &[report.to_str().unwrap()]);
    let took = started.elapsed();
    assert_eq!(shown.matches("=== job ").count(), 200);
    assert!(took.as_secs() < 5, "perf_report took {took:?} on a 200-job report");

    // Nesting far past any stack is a parse error, not a stack overflow.
    for (name, open) in [("arrays.json", "["), ("objects.json", "{\"a\":")] {
        let bomb = scratch.path(name);
        std::fs::write(&bomb, open.repeat(200_000)).unwrap();
        for reader in readers() {
            assert_refused(reader, &bomb, "nesting deeper than 128");
        }
    }

    // A report of another schema version, or of none, is refused by
    // everything that reads reports, before any of it is interpreted.
    let stale = scratch.path("schema5.json");
    std::fs::write(&stale, with_schema(&text, campaign::SCHEMA_VERSION, 5)).unwrap();
    let line = format!("\n  \"schema_version\": {},", campaign::SCHEMA_VERSION);
    assert!(text.contains(&line));
    let unversioned = scratch.path("unversioned.json");
    std::fs::write(&unversioned, text.replacen(&line, "", 1)).unwrap();
    for reader in &readers()[..2] {
        assert_refused(*reader, &stale, "report schema 5, this build reads 6");
        assert_refused(*reader, &unversioned, "report schema missing, this build reads 6");
    }

    // So is a report whose job 0 carries a `triage` that is not a bundle
    // (`replay --report` used to skip it and look for another).
    let broken = scratch.path("not-a-bundle.json");
    std::fs::write(&broken, text.replacen("\"triage\": null", "\"triage\": \"not a bundle\"", 1)).unwrap();
    for reader in &readers()[..2] {
        assert_refused(*reader, &broken, "not a report body");
    }
}
