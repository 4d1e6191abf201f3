//! DiffTest campaign CLI: shard a workload × config × seed matrix
//! across a worker pool and emit a machine-readable JSON report.
//!
//! `campaign --help` prints the flags of each mode; the lists are
//! generated from [`FLAGS`], the one table of what every mode honours.
//!
//! The job list is the cross product of every named workload and every
//! torture seed with every config, in that order, so reports are
//! deterministic for a given command line. `--fuzz` replaces the fixed
//! matrix with a coverage-guided campaign: rounds of torture recipes
//! scheduled by coverage novelty. `--sample` runs the
//! checkpoint farm instead: each workload is profiled on the `--ref`
//! personality, SimPoint clustering picks representative intervals
//! (checkpoints cached under `--checkpoint-dir` by content hash), and
//! one warm-up + detail-window job per checkpoint × config fans across
//! the pool, aggregating to weighted CPI in the report's `sampling`
//! section. Exit status: 0 when every job halts or samples cleanly,
//! 1 on any divergence/timeout/panic, 2 on usage errors — a flag the
//! selected mode does not honour among them.

use campaign::{
    run_fuzz, run_sampled, Campaign, FuzzOpts, JobSpec, Policy, SampleSpec, Verdict, WorkloadSource,
};
use minjie::{AnyRef, ARCH_REF_NAME, DEFAULT_REF_NAME};
use std::collections::BTreeMap;
use workloads::TortureConfig;
use xscore::{InjectedBug, XsConfig};

/// The three things `campaign` runs, as bits of a flag's mode set.
const MATRIX: u8 = 1;
const FUZZ: u8 = 2;
const SAMPLE: u8 = 4;
const ALL: u8 = MATRIX | FUZZ | SAMPLE;

/// (bit, the flag that selects the mode — the matrix is what runs without
/// one —, its name in a diagnosis); of two selectors the earlier wins.
const MODES: [(u8, &str, &str); 3] = [
    (MATRIX, "", "the fixed matrix"),
    (FUZZ, "--fuzz", "--fuzz"),
    (SAMPLE, "--sample", "--sample"),
];

/// Every flag: its name, its value's placeholder (empty for a switch) and
/// the modes that honour it. A flag given to a mode outside its set is
/// refused, never dropped; a flag a mode implies counts as honoured
/// (`--coverage` under `--fuzz`, whose jobs always collect coverage).
/// Every flag that sets a job-template or pool-policy field is honoured
/// by all modes (see [`Given::apply`]); only mode-specific flags are
/// masked.
#[rustfmt::skip]
const FLAGS: &[(&str, &str, u8)] = &[
    ("--fuzz", "", FUZZ),
    ("--rounds", "N", FUZZ),
    ("--fuzz-jobs", "N", FUZZ),
    ("--fuzz-seed", "N", FUZZ),
    ("--mp", "", FUZZ),
    ("--sample", "", SAMPLE),
    ("--interval", "N", SAMPLE),
    ("--max-checkpoints", "K", SAMPLE),
    ("--warmup", "N", SAMPLE),
    ("--window", "N", SAMPLE),
    ("--checkpoint-dir", "DIR", SAMPLE),
    ("--workloads", "k1,k2", MATRIX | SAMPLE),
    ("--torture-seeds", "A..B|s1,s2", MATRIX),
    ("--configs", "c1,c2", ALL),
    ("--workers", "N", ALL),
    ("--max-cycles", "N", ALL),
    ("--lightsss", "N", ALL),
    ("--ref", "NAME", ALL),
    ("--inject-bug", "mul-low-bit|addw-no-sext", ALL),
    ("--inject-l2-race", "", ALL),
    ("--telemetry", "", ALL),
    ("--lifecycle", "", ALL),
    ("--coverage", "", ALL),
    ("--no-minimize", "", ALL),
    ("--no-triage", "", ALL),
    ("--bundle-dir", "DIR", ALL),
    ("--job-timeout-ms", "N", ALL),
    ("--retries", "N", ALL),
    ("--retry-backoff-ms", "N", ALL),
    ("--out", "FILE", ALL),
];

/// One `campaign [selector] [flag value]...` synopsis per mode, from
/// [`FLAGS`].
fn synopsis() -> String {
    let mut text = String::new();
    for (mode, selector, _) in MODES {
        let lead = if text.is_empty() { "usage:" } else { "      " };
        let mut line = format!("{lead} campaign {selector}").trim_end().to_string();
        for (flag, value, modes) in FLAGS {
            if modes & mode == 0 || selector == *flag {
                continue;
            }
            let sep = if value.is_empty() { "" } else { " " };
            let item = format!(" [{flag}{sep}{value}]");
            if line.len() + item.len() > 79 {
                text += &line;
                text += "\n";
                line = " ".repeat(15);
            }
            line += &item;
        }
        text += &line;
        text += "\n";
    }
    text
}

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!(
        "{}kernels: {}\nconfigs: {}\nrefs: {} (DiffTest default {DEFAULT_REF_NAME})",
        synopsis(),
        workloads::NAMES.join(", "),
        XsConfig::preset_names().join(", "),
        AnyRef::names().join(", ")
    );
    std::process::exit(2);
}

/// Refuse a well-formed request the platform cannot run faithfully: one
/// line of diagnosis, exit code 2.
fn reject(err: &str) -> ! {
    eprintln!("error: {err}");
    std::process::exit(2);
}

fn parse_seeds(spec: &str) -> Vec<u64> {
    if let Some((lo, hi)) = spec.split_once("..") {
        let lo: u64 = lo.parse().unwrap_or_else(|_| usage("bad seed range"));
        let hi: u64 = hi.parse().unwrap_or_else(|_| usage("bad seed range"));
        (lo..hi).collect()
    } else {
        spec.split(',')
            .filter(|s| !s.is_empty())
            .map(|s| s.parse().unwrap_or_else(|_| usage("bad seed list")))
            .collect()
    }
}

/// The flags that were given, by name, with their values (empty for a
/// switch).
struct Given(BTreeMap<&'static str, String>);

impl Given {
    fn parse(mut args: impl Iterator<Item = String>) -> Self {
        let mut given = BTreeMap::new();
        while let Some(arg) = args.next() {
            if arg == "--help" || arg == "-h" {
                usage("help requested");
            }
            let Some(&(flag, value, _)) = FLAGS.iter().find(|f| f.0 == arg) else {
                usage(&format!("unknown flag `{arg}`"));
            };
            let value = match value {
                "" => String::new(),
                _ => args.next().unwrap_or_else(|| usage(&format!("missing value for {flag}"))),
            };
            given.insert(flag, value);
        }
        Given(given)
    }

    /// The value `flag` was given with. (Flags are looked up by name, so a
    /// misspelt lookup must not read as "not given".)
    fn get(&self, flag: &str) -> Option<&String> {
        debug_assert!(FLAGS.iter().any(|f| f.0 == flag), "{flag} is not in FLAGS");
        self.0.get(flag)
    }

    fn has(&self, flag: &str) -> bool {
        self.get(flag).is_some()
    }

    fn text(&self, flag: &str) -> Option<String> {
        self.get(flag).cloned()
    }

    fn list(&self, flag: &str) -> Option<Vec<String>> {
        Some(self.get(flag)?.split(',').map(str::to_string).collect())
    }

    fn num<T: std::str::FromStr>(&self, flag: &str) -> Option<T> {
        let parsed = self.get(flag)?.parse();
        Some(parsed.unwrap_or_else(|_| usage(&format!("bad {flag}"))))
    }

    /// A count that must be positive: a 0 is refused, never run.
    fn positive(&self, flag: &str, what: &str) -> Option<u64> {
        let n = self.num(flag)?;
        if n == 0 {
            reject(&format!("`{flag} 0`: {what} must be positive"));
        }
        Some(n)
    }

    /// The selected mode; a given flag it does not honour is an error.
    fn mode(&self) -> u8 {
        let selected = MODES.iter().find(|m| self.0.contains_key(m.1));
        let mode = selected.map_or(MATRIX, |m| m.0);
        let names = |set: u8| {
            let named = MODES.iter().filter(|m| m.0 & set != 0).map(|m| m.2);
            named.collect::<Vec<_>>().join(", ")
        };
        for &(flag, _, modes) in FLAGS.iter().filter(|f| self.has(f.0)) {
            if modes & mode == 0 {
                reject(&format!(
                    "`{flag}` is not honoured by {} (honoured by: {})",
                    names(mode),
                    names(modes)
                ));
            }
        }
        mode
    }

    /// Set the job-template and pool-policy fields the flags name over a
    /// mode's defaults — the one place every mode's jobs and pool are
    /// configured.
    fn apply(&self, job: &mut JobSpec, policy: &mut Policy) {
        job.max_cycles = self.num("--max-cycles").unwrap_or(job.max_cycles);
        job.lightsss_interval = self.positive("--lightsss", "the snapshot interval");
        job.run.injected_bug = self.text("--inject-bug").map(|bug| match bug.as_str() {
            "mul-low-bit" => InjectedBug::MulLowBit,
            "addw-no-sext" => InjectedBug::AddwNoSext,
            _ => usage("unknown --inject-bug"),
        });
        job.run.inject_l2_race = self.has("--inject-l2-race");
        job.run.telemetry = self.has("--telemetry");
        job.run.lifecycle = self.has("--lifecycle");
        job.run.coverage = self.has("--coverage");
        job.ref_model = self.text("--ref");
        policy.workers = self.num("--workers").unwrap_or(policy.workers);
        policy.minimize = !self.has("--no-minimize");
        policy.triage = !self.has("--no-triage");
        policy.wall_timeout_ms = self.positive("--job-timeout-ms", "the wall-clock limit");
        policy.retries = self.num("--retries").unwrap_or(policy.retries);
        policy.backoff_ms = self.num("--retry-backoff-ms").unwrap_or(policy.backoff_ms);
    }
}

fn main() {
    let given = Given::parse(std::env::args().skip(1));
    let mode = given.mode();
    let kernels = given.list("--workloads").unwrap_or_default();
    let configs = given.list("--configs").unwrap_or_else(|| vec!["small-nh".into()]);
    let seeds = given.text("--torture-seeds").map(|s| parse_seeds(&s)).unwrap_or_default();
    let ref_model = given.text("--ref");
    for c in &configs {
        if XsConfig::preset(c).is_none() {
            usage(&format!("unknown config preset `{c}`"));
        }
    }
    for k in &kernels {
        if !workloads::NAMES.contains(&k.as_str()) {
            usage(&format!("unknown workload `{k}`"));
        }
    }
    if let Some(r) = &ref_model {
        if !AnyRef::names().contains(&r.as_str()) {
            usage(&format!("unknown --ref `{r}`"));
        }
    }
    let report = if mode == FUZZ {
        let mut opts = FuzzOpts::new(given.num("--fuzz-seed").unwrap_or(0));
        opts.rounds = given.num("--rounds").unwrap_or(opts.rounds);
        opts.jobs_per_round = given.num("--fuzz-jobs").unwrap_or(opts.jobs_per_round);
        opts.configs = configs;
        opts.mp = given.has("--mp");
        given.apply(&mut opts.job, &mut opts.policy);
        if let Err(e) = opts.validate() {
            reject(&e);
        }
        eprintln!(
            "fuzz campaign: {} rounds x {} jobs on {} workers (seed {})",
            opts.rounds, opts.jobs_per_round, opts.policy.workers, opts.fuzz_seed
        );
        let outcome = run_fuzz(&opts);
        if let Some(f) = &outcome.report.fuzz {
            for r in &f.rounds {
                eprintln!(
                    "  round {:>2}: {} jobs, +{} features ({} cumulative, corpus {})",
                    r.round, r.jobs, r.new_features, r.cumulative_features, r.corpus_size
                );
            }
        }
        outcome.report
    } else if mode == SAMPLE {
        if kernels.is_empty() {
            usage("--sample profiles named workloads: give --workloads");
        }
        if ref_model.as_deref() == Some(ARCH_REF_NAME) {
            usage(&format!(
                "--sample profiles on a registry personality ({DEFAULT_REF_NAME}, nemu-trace, ...), \
                 not `{ARCH_REF_NAME}`"
            ));
        }
        let mut s = SampleSpec::new(kernels, configs);
        given.apply(&mut s.job, &mut s.policy);
        // `--ref` names the profiling personality here: a checkpoint
        // restores into DiffTest's default REF only.
        if let Some(r) = s.job.ref_model.take() {
            s = s.with_ref(r);
        }
        if let Some(i) = given.num("--interval") {
            s = s.with_interval(i);
        }
        if let Some(k) = given.num("--max-checkpoints") {
            s = s.with_max_checkpoints(k);
        }
        if let Some(w) = given.num("--warmup") {
            s = s.with_warmup(w);
        }
        if let Some(w) = given.num("--window") {
            s = s.with_window(w);
        }
        if let Some(d) = &given.text("--checkpoint-dir") {
            s = s.with_checkpoint_dir(d);
        }
        eprintln!(
            "sample campaign: {} workloads x {} configs on {} workers \
             (ref {}, interval {}, k<={}, warmup {}, window {})",
            s.workloads.len(),
            s.configs.len(),
            s.policy.workers,
            s.ref_model,
            s.interval_len,
            s.max_checkpoints,
            s.warmup,
            s.window
        );
        run_sampled(&s)
    } else {
        if kernels.is_empty() && seeds.is_empty() {
            usage("nothing to run: give --workloads and/or --torture-seeds (or --fuzz)");
        }
        let (mut template, mut policy) = (JobSpec::default(), Policy::default());
        given.apply(&mut template, &mut policy);
        let torture = |&seed: &u64| WorkloadSource::torture(seed, TortureConfig::default());
        let mut jobs = Vec::new();
        for config in &configs {
            let kernels = kernels.iter().map(WorkloadSource::kernel);
            for workload in kernels.chain(seeds.iter().map(torture)) {
                let mut job = template.clone();
                (job.workload, job.config) = (workload, config.clone());
                jobs.push(job);
            }
        }
        if let Some(e) = jobs.iter().find_map(|j| j.config().err()) {
            reject(&e);
        }
        let workers = policy.workers;
        eprintln!("campaign: {} jobs on {workers} workers", jobs.len());
        Campaign { jobs, policy }.run()
    };

    if let Some(dir) = &given.text("--bundle-dir") {
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| usage(&format!("create {dir}: {e}")));
        for j in &report.jobs {
            let Some(bundle) = &j.triage else { continue };
            let path = format!("{dir}/job{}.bundle.json", j.index);
            let json = serde_json::to_string_pretty(bundle).expect("bundles serialize");
            std::fs::write(&path, json)
                .unwrap_or_else(|e| usage(&format!("write {path}: {e}")));
            eprintln!("bundle: {path}");
        }
    }

    for j in &report.jobs {
        let extra = match (&j.verdict, &j.minimized) {
            (Verdict::Diverged { .. }, Some(m)) => format!(
                " minimized {}→{} slots in {} runs",
                m.original_kept, m.minimized_kept, m.minimizer_runs
            ),
            (
                Verdict::ForbiddenOutcome {
                    round,
                    outcome_desc,
                    ..
                },
                m,
            ) => {
                let min = m
                    .as_ref()
                    .map(|m| {
                        format!(
                            " minimized {}→{} rounds in {} runs",
                            m.original_kept, m.minimized_kept, m.minimizer_runs
                        )
                    })
                    .unwrap_or_default();
                format!(" round {round}: {outcome_desc}{min}")
            }
            (Verdict::Panicked { message }, _) => format!(" ({message})"),
            _ => String::new(),
        };
        eprintln!(
            "  [{:>3}] {:<24} {:<10} {:<8} cycles={} ipc={:.3}{extra}",
            j.index,
            j.workload,
            j.config,
            j.verdict.label(),
            j.cycles,
            j.ipc
        );
    }
    for sm in &report.sampling {
        eprintln!(
            "  sampling {:<24} {:<10} weighted CPI {}.{:03} \
             ({}/{} checkpoints aggregated over {} intervals)",
            sm.workload,
            sm.config,
            sm.weighted_cpi_milli / 1000,
            sm.weighted_cpi_milli % 1000,
            sm.aggregated,
            sm.checkpoints,
            sm.total_intervals
        );
    }
    let s = &report.summary;
    eprintln!(
        "summary: {} jobs — {} halted, {} diverged, {} forbidden, {} sampled, {} timeout, \
         {} panicked ({} ms)",
        s.total, s.halted, s.diverged, s.forbidden, s.sampled, s.timeout, s.panicked,
        report.wall_clock.total_ms
    );

    let json = report.full_json();
    match &given.text("--out") {
        Some(path) => {
            std::fs::write(path, &json).unwrap_or_else(|e| usage(&format!("write {path}: {e}")));
            eprintln!("report: {path}");
        }
        None => println!("{json}"),
    }
    if s.halted + s.sampled != s.total {
        std::process::exit(1);
    }
}
