//! Machine-readable campaign reports.
//!
//! A report has two parts: a *deterministic body* (schema, summary,
//! per-job records — identical bytes for identical job lists and seeds,
//! regardless of worker interleaving) and a segregated *timing section*
//! (wall-clock measurements, which legitimately vary run to run).
//! [`CampaignReport::deterministic_json`] renders only the body;
//! [`CampaignReport::full_json`] appends the timing section under the
//! `"timing"` key, and [`load`] reads that text back into the same
//! typed report.

use crate::coverage::FuzzSummary;
use crate::triage::TriageBundle;
use minjie::{CoverageMap, DiffError, PerfSnapshot};
use serde::{Deserialize, Serialize, Sink, Value};
use workloads::litmus::LitmusConfig;
use workloads::TortureConfig;

/// Report schema version (bump on breaking shape changes).
/// v2: triage bundles embedded per job, replay windows carry the
/// reset-fallback flag and commit anchor, wall-clock timeout verdict.
/// v3: per-job coverage maps (coverage-gated jobs) and the top-level
/// `fuzz` section describing a coverage-guided campaign's rounds.
/// v4: per-instruction lifecycle digest embedded in every job's perf
/// snapshot (gap histograms, squash causes, dominant-stall counts), and
/// triage bundles carry the crash-ring lifecycle snapshot (bundle
/// schema v3).
/// v5: multi-hart litmus jobs — the `ForbiddenOutcome` verdict with its
/// summary tally, minimized reproducers carry an optional litmus recipe
/// alongside the torture one, and coverage maps grow the `mp:` family
/// (bundle schema v4).
/// v6: SimPoint sampling — the `Sampled` verdict with its summary
/// tally, per-job `sample` records (warm-up/window phase counters and
/// the window CPI stack, all integer milli-units), and the top-level
/// `sampling` section aggregating weighted CPI per workload ×
/// configuration (bundle schema v5: sample recipes).
pub const SCHEMA_VERSION: u64 = 6;

/// How one job ended.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Verdict {
    /// The program ran to completion under DiffTest.
    Halted {
        /// Exit code (hart 0's `a0` at `ebreak`).
        exit_code: u64,
    },
    /// DiffTest reported a DUT/REF divergence.
    Diverged {
        /// The divergence.
        error: DiffError,
    },
    /// A litmus program halted reporting an observation outside the
    /// shape's allowed set — a memory-model violation both harts
    /// committed architecturally (so per-hart DiffTest stayed clean).
    ForbiddenOutcome {
        /// First round whose outcome was forbidden.
        round: u64,
        /// The forbidden outcome index (see
        /// `LitmusExit::describe_outcome`).
        outcome: u64,
        /// Human-readable outcome, e.g. `"r1=1 r2=0"`.
        outcome_desc: String,
        /// The raw litmus exit code (hart 0's `a0`).
        exit_code: u64,
    },
    /// A sample job measured its detailed window cleanly (checkpoint
    /// restored, warm-up retired, window verified under DiffTest).
    Sampled {
        /// Window CPI in milli-units (`window_cycles × 1000 /
        /// window_instret`) — integer, so the deterministic-body
        /// property is preserved.
        cpi_milli: u64,
    },
    /// The cycle budget ran out.
    Timeout,
    /// The simulation panicked (caught at the job boundary).
    Panicked {
        /// The panic payload.
        message: String,
    },
    /// The job exceeded its wall-clock budget on every attempt. The
    /// recorded fields are configuration values, so the record stays
    /// deterministic for a given campaign policy; whether this verdict
    /// occurs at all necessarily depends on machine speed.
    WallTimeout {
        /// Per-attempt wall-clock limit, milliseconds.
        limit_ms: u64,
        /// Attempts made (1 + configured retries).
        attempts: u64,
    },
}

impl Verdict {
    /// Short label for summaries and CLI output.
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::Halted { .. } => "halted",
            Verdict::Diverged { .. } => "diverged",
            Verdict::ForbiddenOutcome { .. } => "forbidden-outcome",
            Verdict::Sampled { .. } => "sampled",
            Verdict::Timeout => "timeout",
            Verdict::Panicked { .. } => "panicked",
            Verdict::WallTimeout { .. } => "wall-timeout",
        }
    }
}

/// The LightSSS replay debrief attached to a divergence.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReplayWindow {
    /// Cycle of the snapshot the replay restarted from (0 for the
    /// reset-state fallback).
    pub from_cycle: u64,
    /// True when no snapshot had been retained yet and the replay fell
    /// back to the reset state.
    pub fallback_reset: bool,
    /// Cycle at which the divergence was originally detected.
    pub at_cycle: u64,
    /// Commit index at which the replay reproduced the divergence (0
    /// when it did not reproduce).
    pub at_commit: u64,
    /// Cycles re-simulated in debug mode.
    pub cycles_replayed: u64,
    /// Whether the error reproduced identically.
    pub reproduced: bool,
    /// Debug-mode events captured during the replay.
    pub trace_records: u64,
}

/// A minimized failing generated program: `(seed, cfg, kept)` rebuilds
/// it exactly via `emit_subset` on the matching generator. Exactly one
/// of `torture`/`litmus` is set.
///
/// [`TortureProgram::emit_subset`]: workloads::TortureProgram::emit_subset
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MinimizedRepro {
    /// Generator seed.
    pub seed: u64,
    /// Generator knobs (torture jobs).
    pub torture: Option<TortureConfig>,
    /// Generator knobs (litmus jobs; `kept` indexes rounds).
    pub litmus: Option<LitmusConfig>,
    /// Kept body-slot indices after minimization.
    pub kept: Vec<u64>,
    /// Kept-slot count before minimization.
    pub original_kept: u64,
    /// Kept-slot count after minimization.
    pub minimized_kept: u64,
    /// The divergence class the reproducer preserves.
    pub error_class: String,
    /// CoSim re-runs the minimizer spent.
    pub minimizer_runs: u64,
}

/// The per-phase measurements of one sample job (pure integers, so the
/// deterministic-body property is preserved).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SampleRecord {
    /// Interval index the checkpoint sits at.
    pub interval: u64,
    /// Intervals this checkpoint represents (the exact integer weight
    /// numerator from clustering).
    pub members: u64,
    /// Total intervals profiled (the weight denominator).
    pub total_intervals: u64,
    /// Instructions the profiler had retired at the checkpoint.
    pub checkpoint_instret: u64,
    /// Warm-up phase: cycles spent.
    pub warmup_cycles: u64,
    /// Warm-up phase: instructions retired.
    pub warmup_instret: u64,
    /// Measured window: cycles spent.
    pub window_cycles: u64,
    /// Measured window: instructions retired.
    pub window_instret: u64,
    /// Window CPI, milli-units (0 when the window retired nothing).
    pub cpi_milli: u64,
    /// Window CPI stack (issue-slot attribution deltas over the window;
    /// components sum to `window_cycles × commit_width`).
    pub cpi_stack: xscore::CpiStack,
    /// True when the full window budget was measured; false when the
    /// program halted inside the warm-up or window.
    pub completed_window: bool,
    /// Exit code, when the program halted during the job.
    pub halted: Option<u64>,
}

/// One job's deterministic record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobRecord {
    /// Position in the campaign's job list.
    pub index: u64,
    /// Workload label (see `WorkloadSource::describe`).
    pub workload: String,
    /// Configuration preset slug.
    pub config: String,
    /// How the job ended.
    pub verdict: Verdict,
    /// Cycles simulated.
    pub cycles: u64,
    /// Commits DiffTest verified.
    pub commits_checked: u64,
    /// Instructions retired (summed over harts).
    pub instret: u64,
    /// Architectural exceptions taken (summed over harts).
    pub exceptions: u64,
    /// Instructions per cycle, rounded to 3 decimals.
    pub ipc: f64,
    /// Diff-rule applications (name, count), sorted by name.
    pub rule_counts: Vec<(String, u64)>,
    /// Replay debrief (divergences with LightSSS enabled).
    pub replay: Option<ReplayWindow>,
    /// Minimized reproducer (diverged torture jobs only).
    pub minimized: Option<MinimizedRepro>,
    /// Self-contained rollback-replay bundle (failed jobs when triage is
    /// enabled): everything `replay --bundle` needs to reproduce the
    /// failure at the identical commit index.
    pub triage: Option<TriageBundle>,
    /// Cross-layer performance snapshot (integer counters only, so the
    /// deterministic-body property is preserved).
    pub perf: PerfSnapshot,
    /// Coverage map (jobs run with `JobSpec::with_coverage` only);
    /// pure-integer, so the deterministic-body property is preserved.
    pub coverage: Option<CoverageMap>,
    /// Per-phase sampling measurements (sample jobs only).
    pub sample: Option<SampleRecord>,
}

/// Verdict tallies over a whole campaign.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CampaignSummary {
    /// Jobs run.
    pub total: u64,
    /// Jobs that halted cleanly.
    pub halted: u64,
    /// Jobs on which DiffTest diverged.
    pub diverged: u64,
    /// Litmus jobs that committed a forbidden outcome.
    pub forbidden: u64,
    /// Sample jobs that measured their window cleanly.
    pub sampled: u64,
    /// Jobs that exhausted their cycle budget.
    pub timeout: u64,
    /// Jobs that panicked.
    pub panicked: u64,
}

impl CampaignSummary {
    /// Tally the verdicts of `jobs`.
    pub fn tally(jobs: &[JobRecord]) -> Self {
        let mut s = CampaignSummary {
            total: jobs.len() as u64,
            ..Default::default()
        };
        for j in jobs {
            match j.verdict {
                Verdict::Halted { .. } => s.halted += 1,
                Verdict::Diverged { .. } => s.diverged += 1,
                Verdict::ForbiddenOutcome { .. } => s.forbidden += 1,
                Verdict::Sampled { .. } => s.sampled += 1,
                Verdict::Timeout | Verdict::WallTimeout { .. } => s.timeout += 1,
                Verdict::Panicked { .. } => s.panicked += 1,
            }
        }
        s
    }
}

/// One phase's contribution to a [`SamplingSummary`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SamplingPhase {
    /// The sample job's index in the campaign's job list.
    pub job_index: u64,
    /// Interval index of the checkpoint.
    pub interval: u64,
    /// Intervals this phase represents (integer weight numerator).
    pub members: u64,
    /// Measured window CPI, milli-units.
    pub cpi_milli: u64,
}

/// Weighted-CPI aggregation over one workload × configuration — the
/// `sampling` section of the report body. All integer milli-units; the
/// weighted mean is computed with exact integer arithmetic
/// (`checkpoint::weighted_cpi_milli`), so the section is
/// permutation-invariant and byte-identical across same-seed runs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SamplingSummary {
    /// Workload label, e.g. `"kernel:sjeng"`.
    pub workload: String,
    /// Configuration preset slug.
    pub config: String,
    /// Profiling personality that produced the checkpoints.
    pub ref_model: String,
    /// Profiling interval length, instructions.
    pub interval_len: u64,
    /// Total intervals profiled.
    pub total_intervals: u64,
    /// Total dynamic instructions profiled.
    pub total_instructions: u64,
    /// Checkpoints simulated.
    pub checkpoints: u64,
    /// Checkpoints whose windows contributed to the weighted mean.
    pub aggregated: u64,
    /// SimPoint-weighted CPI estimate, milli-units.
    pub weighted_cpi_milli: u64,
    /// Per-checkpoint phases, interval order.
    pub phases: Vec<SamplingPhase>,
}

/// Wall-clock measurements — segregated from the deterministic body.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct WallClock {
    /// Campaign wall time, milliseconds.
    pub total_ms: u64,
    /// Per-job wall time, milliseconds, in job order.
    pub per_job_ms: Vec<u64>,
    /// Attempts each job took (retry-with-backoff policy), in job
    /// order. Lives here, not in the body: attempt counts depend on
    /// machine speed, exactly like the timings they accompany.
    pub attempts: Vec<u64>,
}

/// A finished campaign.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Worker threads used.
    pub workers: u64,
    /// Verdict tallies.
    pub summary: CampaignSummary,
    /// Per-job records, in job order.
    pub jobs: Vec<JobRecord>,
    /// Coverage-guided fuzzing summary (fuzz campaigns only) — part of
    /// the deterministic body.
    pub fuzz: Option<FuzzSummary>,
    /// Weighted-CPI aggregations (sampling campaigns only) — part of
    /// the deterministic body; the key is omitted when empty.
    pub sampling: Vec<SamplingSummary>,
    /// Wall-clock measurements (excluded from the deterministic body).
    pub wall_clock: WallClock,
}

/// A report as it is written: the deterministic body, with the wall
/// clock under `"timing"` when `timing` is set.
struct Written<'a> {
    report: &'a CampaignReport,
    timing: bool,
}

impl Serialize for Written<'_> {
    fn walk(&self, sink: &mut dyn Sink) {
        let r = self.report;
        // Keys in bytewise order, like every other object of the format.
        let fields: [(&str, Option<&dyn Serialize>); 7] = [
            ("fuzz", r.fuzz.as_ref().map(|f| f as _)),
            ("jobs", Some(&r.jobs)),
            ("sampling", (!r.sampling.is_empty()).then_some(&r.sampling as _)),
            ("schema_version", Some(&SCHEMA_VERSION)),
            ("summary", Some(&r.summary)),
            ("timing", self.timing.then_some(&r.wall_clock as _)),
            ("workers", Some(&r.workers)),
        ];
        let present = fields.into_iter().filter_map(|(key, value)| Some((key, value?)));
        serde::walk_object(present, sink);
    }
}

impl CampaignReport {
    /// The deterministic body: byte-identical across runs of the same
    /// campaign, independent of worker scheduling.
    pub fn deterministic_json(&self) -> String {
        let body = Written { report: self, timing: false };
        serde_json::to_string_pretty(&body).expect("report body serializes")
    }

    /// The full report: deterministic body plus the `"timing"` section.
    pub fn full_json(&self) -> String {
        let full = Written { report: self, timing: true };
        serde_json::to_string_pretty(&full).expect("report serializes")
    }

    /// Read the text [`full_json`](Self::full_json) wrote.
    ///
    /// # Errors
    ///
    /// One line saying why the text cannot be used: not JSON, a report of
    /// a schema other than [`SCHEMA_VERSION`] or of none, not a report, or
    /// a job whose bundle asks for a core count the model cannot build or
    /// carries a crash ring no core could have written.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let report: Self = minjie::files::load(text, "report", SCHEMA_VERSION)?;
        for j in &report.jobs {
            if let Some(b) = &j.triage {
                b.check().map_err(|e| format!("job {}: {e}", j.index))?;
            }
        }
        Ok(report)
    }
}

/// A report as it is read: `Written`'s keys, `sampling` absent when
/// empty and the wall clock under `timing` (`schema_version` is
/// [`minjie::files::load`]'s to check).
impl Deserialize for CampaignReport {
    fn deserialize(v: &Value) -> Result<Self, serde::Error> {
        let field = |key| v.get_or_null(key);
        Ok(CampaignReport {
            workers: Deserialize::deserialize(field("workers"))?,
            summary: Deserialize::deserialize(field("summary"))?,
            jobs: Deserialize::deserialize(field("jobs"))?,
            fuzz: Deserialize::deserialize(field("fuzz"))?,
            sampling: Option::deserialize(field("sampling"))?.unwrap_or_default(),
            wall_clock: Deserialize::deserialize(field("timing"))?,
        })
    }
}

/// Read the report at `path` for one of the reading tools.
///
/// # Errors
///
/// One line saying why the file cannot be used: unreadable, or
/// [`CampaignReport::from_json`]'s diagnosis.
pub fn load(path: &str) -> Result<CampaignReport, String> {
    minjie::files::read(path, CampaignReport::from_json)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(index: u64, verdict: Verdict) -> JobRecord {
        JobRecord {
            index,
            workload: "kernel:mcf".into(),
            config: "small-nh".into(),
            verdict,
            cycles: 1000,
            commits_checked: 500,
            instret: 700,
            exceptions: 0,
            ipc: 0.7,
            rule_counts: vec![("ScFailure".into(), 1)],
            replay: None,
            minimized: None,
            triage: None,
            perf: PerfSnapshot::default(),
            coverage: None,
            sample: None,
        }
    }

    #[test]
    fn timing_is_segregated_from_the_deterministic_body() {
        let mut r = CampaignReport {
            workers: 4,
            summary: CampaignSummary::tally(&[record(0, Verdict::Timeout)]),
            jobs: vec![record(0, Verdict::Timeout)],
            fuzz: None,
            sampling: Vec::new(),
            wall_clock: WallClock {
                total_ms: 123,
                per_job_ms: vec![123],
                attempts: vec![1],
            },
        };
        let det1 = r.deterministic_json();
        r.wall_clock.total_ms = 9999; // a different run's timing
        let det2 = r.deterministic_json();
        assert_eq!(det1, det2, "wall clock must not leak into the body");
        assert!(!det1.contains("timing"));
        assert!(r.full_json().contains("\"timing\""));
        assert!(r.full_json().contains("9999"));
    }

    #[test]
    fn report_json_parses_back() {
        let r = CampaignReport {
            workers: 2,
            summary: CampaignSummary::tally(&[]),
            jobs: vec![record(
                0,
                Verdict::Halted { exit_code: 42 },
            )],
            fuzz: None,
            sampling: Vec::new(),
            wall_clock: WallClock::default(),
        };
        let text = r.full_json();
        let back = CampaignReport::from_json(&text).expect("a report reads back");
        assert_eq!(back.jobs[0].workload, "kernel:mcf");
        assert_eq!(back.full_json(), text);
    }

    #[test]
    fn sampling_section_appears_only_when_present() {
        let mut r = CampaignReport {
            workers: 1,
            summary: CampaignSummary::tally(&[]),
            jobs: Vec::new(),
            fuzz: None,
            sampling: Vec::new(),
            wall_clock: WallClock::default(),
        };
        assert!(!r.deterministic_json().contains("\"sampling\""));
        r.sampling.push(SamplingSummary {
            workload: "kernel:sjeng".into(),
            config: "small-nh".into(),
            ref_model: "nemu-trace".into(),
            interval_len: 5000,
            total_intervals: 8,
            total_instructions: 39_000,
            checkpoints: 2,
            aggregated: 2,
            weighted_cpi_milli: 1042,
            phases: vec![SamplingPhase {
                job_index: 0,
                interval: 3,
                members: 5,
                cpi_milli: 1042,
            }],
        });
        let det = r.deterministic_json();
        assert!(det.contains("\"sampling\""));
        assert!(det.contains("\"weighted_cpi_milli\": 1042"));
    }

    #[test]
    fn sampled_verdicts_tally_separately() {
        let jobs = vec![
            record(0, Verdict::Sampled { cpi_milli: 1100 }),
            record(1, Verdict::Sampled { cpi_milli: 900 }),
            record(2, Verdict::Halted { exit_code: 0 }),
        ];
        let s = CampaignSummary::tally(&jobs);
        assert_eq!(s.sampled, 2);
        assert_eq!(s.halted, 1);
        assert_eq!(jobs[0].verdict.label(), "sampled");
    }
}
