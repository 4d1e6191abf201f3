//! The parallel campaign runner.
//!
//! Shards a job list across a `std::thread` worker pool (no external
//! runtime: workers take the next job index from an atomic cursor, an
//! mpsc channel collects results). Each job boots and runs inside
//! [`minjie::run_isolated`]'s panic boundary, so a crashing
//! simulation — or a recipe that cannot even be built — downs one job,
//! not the pool. Results reassemble in job order, making the report body
//! independent of worker interleaving.
//!
//! Failed jobs are *triaged*: the runner rolls back to the older
//! retained LightSSS snapshot (or the reset state when the failure
//! preceded the first snapshot interval), re-executes the failure
//! window in debug mode, and embeds a self-contained
//! [`TriageBundle`](crate::TriageBundle) in the job record. A
//! divergence's window runs at most once, after the run's harness is
//! gone, and fills both the record's LightSSS replay and the bundle.
//! An optional wall-clock limit bounds each attempt inside
//! [`minjie::within_deadline`], so an attempt past it stops, with bounded
//! retry-with-backoff before the job is written off as a
//! [`Verdict::WallTimeout`].

use crate::job::{error_class, JobSpec, WorkloadSource};
use crate::minimize::minimize;
use crate::report::{
    CampaignReport, CampaignSummary, JobRecord, MinimizedRepro, SampleRecord, Verdict, WallClock,
};
use crate::triage::{replay_divergence, triage};
use minjie::{run_isolated, within_deadline, CoSimEnd};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};
use workloads::litmus::LitmusExit;

/// Cycle budget for each minimizer re-run (candidates are subsets of an
/// already-failing program, so they fail — or halt — well within the
/// original budget).
const MINIMIZE_MAX_CYCLES: u64 = 20_000_000;

/// The pool knobs every mode shares: how many workers run the jobs and
/// what becomes of a job that fails or runs long. Each worker holds its
/// own copy.
#[derive(Debug, Clone, Copy)]
pub struct Policy {
    /// Worker threads (0 runs as 1).
    pub workers: usize,
    /// Delta-debug failed generated jobs into minimized reproducers.
    pub minimize: bool,
    /// Triage failed jobs into self-contained replay bundles.
    pub triage: bool,
    /// Per-attempt wall-clock limit, milliseconds (None disables it).
    pub wall_timeout_ms: Option<u64>,
    /// Retries after a wall-clock timeout before giving up.
    pub retries: u32,
    /// Backoff before the first retry, milliseconds (doubles each
    /// retry).
    pub backoff_ms: u64,
}

impl Default for Policy {
    /// 4 workers, minimization and triage on, no wall-clock limit (and,
    /// once one is set, 1 retry after 50 ms).
    fn default() -> Self {
        Policy {
            workers: 4,
            minimize: true,
            triage: true,
            wall_timeout_ms: None,
            retries: 1,
            backoff_ms: 50,
        }
    }
}

/// A configured campaign: jobs plus the pool policy.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// The job list (report order).
    pub jobs: Vec<JobSpec>,
    /// Workers, minimization, triage and wall-clock policy.
    pub policy: Policy,
}

impl Campaign {
    /// A campaign over `jobs` with the default [`Policy`].
    pub fn new(jobs: Vec<JobSpec>) -> Self {
        Campaign {
            jobs,
            policy: Policy::default(),
        }
    }

    /// Set the worker-thread count (clamped to at least 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.policy.workers = workers.max(1);
        self
    }

    /// Enable or disable failure minimization.
    pub fn with_minimization(mut self, on: bool) -> Self {
        self.policy.minimize = on;
        self
    }

    /// Enable or disable rollback-replay triage of failed jobs.
    pub fn with_triage(mut self, on: bool) -> Self {
        self.policy.triage = on;
        self
    }

    /// Run every job and assemble the report.
    pub fn run(&self) -> CampaignReport {
        let campaign_start = Instant::now();
        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, JobRecord, u64, u64)>();
        let (policy, workers) = (self.policy, self.policy.workers.max(1));

        std::thread::scope(|s| {
            for _ in 0..workers {
                let (next, tx) = (&next, tx.clone());
                s.spawn(move || loop {
                    // Relaxed: the cursor hands out indices and publishes
                    // nothing else (records come back over the channel).
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    let Some(spec) = self.jobs.get(idx) else { break };
                    let t0 = Instant::now();
                    let (record, attempts) = execute_job_with_policy(idx, spec, policy);
                    let ms = t0.elapsed().as_millis() as u64;
                    if tx.send((idx, record, ms, attempts)).is_err() {
                        break;
                    }
                });
            }
            drop(tx);

            let mut slots: Vec<Option<(JobRecord, u64, u64)>> =
                (0..self.jobs.len()).map(|_| None).collect();
            for (idx, record, ms, attempts) in rx {
                slots[idx] = Some((record, ms, attempts));
            }
            let mut jobs = Vec::with_capacity(slots.len());
            let mut per_job_ms = Vec::with_capacity(slots.len());
            let mut per_job_attempts = Vec::with_capacity(slots.len());
            for slot in slots {
                let (record, ms, attempts) = slot.expect("every job reports exactly once");
                jobs.push(record);
                per_job_ms.push(ms);
                per_job_attempts.push(attempts);
            }
            CampaignReport {
                workers: workers as u64,
                summary: CampaignSummary::tally(&jobs),
                jobs,
                fuzz: None,
                sampling: Vec::new(),
                wall_clock: WallClock {
                    total_ms: campaign_start.elapsed().as_millis() as u64,
                    per_job_ms,
                    attempts: per_job_attempts,
                },
            }
        })
    }
}

/// The empty record every execution path starts from.
fn base_record(index: usize, spec: &JobSpec) -> JobRecord {
    JobRecord {
        index: index as u64,
        workload: spec.workload.describe(),
        config: spec.config.clone(),
        verdict: Verdict::Timeout,
        cycles: 0,
        commits_checked: 0,
        instret: 0,
        exceptions: 0,
        ipc: 0.0,
        rule_counts: Vec::new(),
        replay: None,
        minimized: None,
        triage: None,
        perf: minjie::PerfSnapshot::default(),
        coverage: None,
        sample: None,
    }
}

/// Run one job under the wall-clock policy: each attempt runs inside
/// [`within_deadline`], so an attempt past the limit stops in its own
/// stepping loop and its record is discarded; it is retried after an
/// exponentially growing backoff. No limit (or one too far out for an
/// `Instant`) is one attempt with no deadline. Returns the record and the
/// number of attempts made.
fn execute_job_with_policy(index: usize, spec: &JobSpec, policy: Policy) -> (JobRecord, u64) {
    let (attempts, limit) = (1 + u64::from(policy.retries), policy.wall_timeout_ms);
    let mut backoff = policy.backoff_ms;
    for attempt in 1..=attempts {
        let run = || execute_job(index, spec, policy);
        let stop = limit.and_then(|ms| Instant::now().checked_add(Duration::from_millis(ms)));
        let Some(stop) = stop else {
            return (run(), attempt);
        };
        if let Some(record) = within_deadline(stop, run) {
            return (record, attempt);
        }
        if attempt < attempts {
            std::thread::sleep(Duration::from_millis(backoff));
            backoff = backoff.saturating_mul(2);
        }
    }
    let mut record = base_record(index, spec);
    record.verdict = Verdict::WallTimeout {
        limit_ms: limit.unwrap_or_default(),
        attempts,
    };
    (record, attempts)
}

/// Run one job to a deterministic record: boot and simulate inside the
/// panic boundary, then minimize and triage whatever failed. Sample
/// jobs take the same path as reset-state jobs — they only boot from a
/// checkpoint and carry a measured window.
fn execute_job(index: usize, spec: &JobSpec, policy: Policy) -> JobRecord {
    let mut record = base_record(index, spec);
    let cfg = match spec.config() {
        Ok(cfg) => cfg,
        Err(message) => {
            record.verdict = Verdict::Panicked { message };
            return record;
        }
    };
    let (mut result, checkpoint) = spec.run(cfg);
    if let (true, Ok(stats)) = (policy.minimize, &result) {
        record.minimized = minimize_failure(spec, &stats.end);
    }
    // A divergence's one debug window feeds both the record and the bundle.
    let replay = match &mut result {
        Ok(stats) if policy.triage || spec.lightsss_interval.is_some() => replay_divergence(stats),
        _ => None,
    };
    if spec.lightsss_interval.is_some() {
        record.replay = replay.as_ref().map(|(r, _)| r.clone());
    }
    if policy.triage {
        let outcome = result.as_mut().map_err(|m| m.as_str());
        record.triage = triage(index as u64, spec, outcome, record.minimized.clone(), replay);
    }
    let stats = match result {
        Ok(stats) => stats,
        Err(message) => {
            record.verdict = Verdict::Panicked { message };
            return record;
        }
    };
    record.cycles = stats.cycles;
    record.commits_checked = stats.commits_checked;
    record.instret = stats.instret;
    record.exceptions = stats.exceptions;
    record.ipc = if stats.cycles > 0 {
        (stats.instret as f64 / stats.cycles as f64 * 1000.0).round() / 1000.0
    } else {
        0.0
    };
    record.rule_counts = stats.rule_counts;
    record.perf = stats.perf;
    record.coverage = stats.coverage;
    if let (Some(w), Some(c)) = (&stats.window, &checkpoint) {
        record.sample = Some(SampleRecord {
            interval: c.interval as u64,
            members: c.members,
            total_intervals: c.total_intervals,
            checkpoint_instret: c.instret,
            warmup_cycles: w.warmup_cycles,
            warmup_instret: w.warmup_instret,
            window_cycles: w.window_cycles,
            window_instret: w.window_instret,
            cpi_milli: (w.window_cycles.saturating_mul(1000))
                .checked_div(w.window_instret)
                .unwrap_or(0),
            cpi_stack: w.cpi,
            completed_window: w.completed,
            halted: match stats.end {
                CoSimEnd::Halted(code) => Some(code),
                _ => None,
            },
        });
    }
    let sampled = |s: &SampleRecord| Verdict::Sampled {
        cpi_milli: s.cpi_milli,
    };
    record.verdict = match stats.end {
        CoSimEnd::Halted(exit_code) => match spec.workload.forbidden_exit(exit_code) {
            Some(exit) => Verdict::ForbiddenOutcome {
                round: exit.first_bad_round as u64,
                outcome: exit.first_bad_outcome as u64,
                outcome_desc: LitmusExit::describe_outcome(exit.first_bad_outcome),
                exit_code,
            },
            // A halt inside the window still measured something; a halt
            // inside the warm-up measured nothing and reports as an
            // ordinary clean halt.
            None => match &record.sample {
                Some(s) if s.window_instret > 0 => sampled(s),
                _ => Verdict::Halted { exit_code },
            },
        },
        // A sample run that retired its whole window was stopped by the
        // harness, not by the cycle budget.
        CoSimEnd::OutOfCycles => match &record.sample {
            Some(s) if s.completed_window => sampled(s),
            _ => Verdict::Timeout,
        },
        CoSimEnd::Bug(bug) => Verdict::Diverged { error: bug.error },
    };
    record
}

/// Delta-debug a failed generated job down to a minimized reproducer:
/// a diverged torture job to the smallest slot subset that still
/// diverges with the same [`DiffError`](minjie::DiffError) class, a
/// forbidden-outcome litmus job to the smallest round subset that still
/// commits an illegal observation.
///
/// Everything else returns `None`: kernels, inline programs and samples
/// have no seed-derived slot structure to shrink.
fn minimize_failure(spec: &JobSpec, end: &CoSimEnd) -> Option<MinimizedRepro> {
    let (seed, torture, litmus, class) = match (&spec.workload, end) {
        (WorkloadSource::Torture { seed, cfg, .. }, CoSimEnd::Bug(bug)) => {
            (*seed, Some(*cfg), None, error_class(&bug.error))
        }
        (WorkloadSource::Litmus { seed, cfg, .. }, CoSimEnd::Halted(code)) => {
            spec.workload.forbidden_exit(*code)?;
            (*seed, None, Some(*cfg), "ForbiddenOutcome")
        }
        _ => return None,
    };
    let reproduces = |end: &CoSimEnd| match end {
        CoSimEnd::Bug(b) => error_class(&b.error) == class,
        CoSimEnd::Halted(code) => spec.workload.forbidden_exit(*code).is_some(),
        CoSimEnd::OutOfCycles => false,
    };
    let initial = spec.workload.kept_mask()?;
    let cfg = spec.build_config()?;
    let budget = spec.max_cycles.min(MINIMIZE_MAX_CYCLES);
    let outcome = minimize(&initial, |mask| {
        // The job with its workload swapped, so the candidate boots on
        // the job's REF.
        let candidate = JobSpec {
            workload: spec.workload.with_mask(mask),
            ..spec.clone()
        };
        let boot = Box::new(|| candidate.boot(cfg.clone()).0);
        run_isolated(boot, None, budget, None).is_ok_and(|stats| reproduces(&stats.end))
    });
    Some(MinimizedRepro {
        seed,
        torture,
        litmus,
        kept: (0..outcome.kept.len() as u64)
            .filter(|&i| outcome.kept[i as usize])
            .collect(),
        original_kept: initial.iter().filter(|&&k| k).count() as u64,
        minimized_kept: outcome.kept_count() as u64,
        error_class: class.to_string(),
        minimizer_runs: outcome.runs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::WorkloadSource;
    use workloads::TortureConfig;
    use xscore::InjectedBug;

    fn quick_torture() -> TortureConfig {
        TortureConfig {
            body_len: 30,
            iterations: 4,
            ..Default::default()
        }
    }

    #[test]
    fn small_parallel_campaign_completes_in_order() {
        let jobs: Vec<JobSpec> = (0..6)
            .map(|seed| {
                JobSpec::new(WorkloadSource::torture(seed, quick_torture()), "small-nh")
                    .with_max_cycles(4_000_000)
            })
            .collect();
        let report = Campaign::new(jobs).with_workers(3).run();
        assert_eq!(report.jobs.len(), 6);
        assert_eq!(report.summary.total, 6);
        assert_eq!(report.summary.halted, 6, "{}", report.deterministic_json());
        for (i, j) in report.jobs.iter().enumerate() {
            assert_eq!(j.index, i as u64, "records must be in job order");
            assert!(j.cycles > 0 && j.ipc > 0.0);
            assert!(j.triage.is_none(), "healthy jobs carry no bundle");
        }
        assert_eq!(report.wall_clock.per_job_ms.len(), 6);
        assert_eq!(report.wall_clock.attempts, vec![1; 6]);
    }

    #[test]
    fn minimizer_candidates_run_on_the_jobs_ref() {
        let (job, end) = (0..6)
            .find_map(|seed| {
                let job = JobSpec::new(
                    WorkloadSource::torture(seed, TortureConfig::default()),
                    "small-nh",
                )
                .with_injected_bug(InjectedBug::MulLowBit)
                .with_max_cycles(8_000_000);
                let end = job.run(job.config().unwrap()).0.expect("no panic").end;
                matches!(end, CoSimEnd::Bug(_)).then_some((job, end))
            })
            .expect("the injected bug diverges on some seed");
        let on_nemu = minimize_failure(&job, &end).expect("a diverged torture job minimizes");
        assert!(on_nemu.minimized_kept < on_nemu.original_kept, "{on_nemu:?}");
        let on_arch = minimize_failure(&job.clone().with_ref("arch"), &end).unwrap();
        let same = format!("{on_arch:?}") == format!("{on_nemu:?}");
        assert!(same, "the REFs agree on every candidate: {on_arch:?}");
        // A REF that cannot boot fails every candidate, so nothing is
        // dropped; a minimizer that booted `nemu` instead would shrink.
        let on_none = minimize_failure(&job.with_ref("nosuch"), &end).unwrap();
        assert!(on_none.minimizer_runs > 0);
        assert_eq!(on_none.minimized_kept, on_none.original_kept, "{on_none:?}");
    }

    #[test]
    fn one_debug_window_fills_both_the_replay_and_the_bundle() {
        let jobs: Vec<JobSpec> = (0..3)
            .map(|seed| {
                JobSpec::new(WorkloadSource::torture(seed, TortureConfig::default()), "small-nh")
                    .with_injected_bug(InjectedBug::MulLowBit)
                    .with_max_cycles(8_000_000)
                    .with_lightsss(2_000)
            })
            .collect();
        let run = |triage| {
            let campaign = Campaign::new(jobs.clone()).with_workers(2).with_minimization(false);
            campaign.with_triage(triage).run()
        };
        let (on, off) = (run(true), run(false));
        assert!(on.summary.diverged > 0, "{}", on.deterministic_json());
        for (with, without) in on.jobs.iter().zip(&off.jobs) {
            let Verdict::Diverged { .. } = with.verdict else {
                assert!(with.replay.is_none() && with.triage.is_none());
                continue;
            };
            let (r, r_off) = (&with.replay, &without.replay);
            assert_eq!(format!("{r:?}"), format!("{r_off:?}"), "triage changed the replay");
            let r = r.as_ref().expect("LightSSS on: the record carries the replay");
            let b = with.triage.as_ref().expect("triage on: the job carries a bundle");
            assert!(without.triage.is_none());
            assert_eq!(
                (r.from_cycle, r.fallback_reset, r.cycles_replayed, r.trace_records, r.reproduced),
                (b.snapshot_cycle, b.fallback_reset, b.cycles_replayed, b.trace_records, b.reproduced),
            );
            assert!(r.reproduced, "{r:?}");
        }
    }

    #[test]
    fn unknown_preset_is_a_contained_failure() {
        let jobs = vec![JobSpec::new(
            WorkloadSource::torture(0, quick_torture()),
            "not-a-preset",
        )];
        let report = Campaign::new(jobs).run();
        assert_eq!(report.summary.panicked, 1);
        assert!(matches!(
            &report.jobs[0].verdict,
            Verdict::Panicked { message } if message.contains("not-a-preset")
        ));
    }

    #[test]
    fn wall_clock_timeout_exhausts_retries() {
        // A long torture run cannot finish within 1 ms: every attempt
        // times out and the job is written off as WallTimeout. Attempt
        // counts land in the timing section only.
        let slow = TortureConfig {
            body_len: 200,
            iterations: 50_000,
            ..Default::default()
        };
        let jobs = vec![JobSpec::new(WorkloadSource::torture(0, slow), "small-nh")
            .with_max_cycles(200_000_000)];
        let policy = Policy {
            workers: 1,
            minimize: false,
            wall_timeout_ms: Some(1),
            retries: 1,
            backoff_ms: 1,
            ..Policy::default()
        };
        let report = Campaign { jobs, policy }.run();
        assert_eq!(report.summary.timeout, 1, "{}", report.deterministic_json());
        match &report.jobs[0].verdict {
            Verdict::WallTimeout { limit_ms, attempts } => {
                assert_eq!(*limit_ms, 1);
                assert_eq!(*attempts, 2, "1 try + 1 retry");
            }
            other => panic!("expected WallTimeout, got {other:?}"),
        }
        assert_eq!(report.wall_clock.attempts, vec![2]);
        // Measured wall-clock data never reaches the deterministic body
        // (the WallTimeout verdict's fields are configuration values).
        assert!(!report.deterministic_json().contains("per_job_ms"));
    }

    #[test]
    fn generous_wall_clock_limit_does_not_disturb_results() {
        // A limit an `Instant` cannot hold is no deadline, never an
        // overflow panic.
        for limit in [Some(120_000), Some(u64::MAX)] {
            let jobs = vec![
                JobSpec::new(WorkloadSource::torture(1, quick_torture()), "small-nh")
                    .with_max_cycles(4_000_000),
            ];
            let policy = Policy {
                workers: 1,
                wall_timeout_ms: limit,
                ..Policy::default()
            };
            let report = Campaign { jobs, policy }.run();
            assert_eq!(report.summary.halted, 1, "{limit:?}: {}", report.deterministic_json());
            assert_eq!(report.wall_clock.attempts, vec![1]);
        }
    }
}
