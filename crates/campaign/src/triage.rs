//! Rollback-replay triage: the self-contained failure bundle.
//!
//! When a campaign job ends in a divergence, a cycle-budget timeout, or
//! a panic, the runner rolls back to the older retained LightSSS
//! snapshot (falling back to the reset state when the failure struck
//! before the first snapshot interval), re-executes the ≤ 2×interval
//! failure window in debug mode, and packs everything a later session
//! needs into a [`TriageBundle`]: the program *recipe* (never raw
//! state), the snapshot anchor, the commit-trace tail, the diff-rule
//! verdict, and the window's CPI stack. The bundle is deterministic —
//! no wall-clock field appears in it — and [`verify_bundle`] reproduces
//! the failure from the bundle alone, checking that the divergence
//! strikes at the *identical commit index*.

use crate::job::{error_class, JobSpec, WorkloadSource};
use crate::report::{MinimizedRepro, ReplayWindow};
use minjie::{debug_window, ArchDb, CoSimEnd, DebugWindow, DiffError, RunStats};
use serde::{Deserialize, Serialize};
use xscore::{CpiStack, InjectedBug, RunKnobs, XsConfig};

/// Bundle schema version (independent of the report schema).
/// v4: litmus sources, the `"forbidden-outcome"` trigger with its raw
/// exit code, and the L2 probe/grant race fault flag.
/// v5: sample sources — the `(kernel, personality, interval_len,
/// interval, warmup, window)` recipe re-derives the checkpoint a sample
/// job resumed from, keeping bundles free of memory images.
pub const BUNDLE_SCHEMA_VERSION: u64 = 5;

/// Commit-trace rows retained in the bundle (the tail closest to the
/// failure point).
const COMMIT_TAIL_LEN: usize = 32;

/// Extra cycles granted past the nominal window so the replay can reach
/// the failure even when commit timing shifts slightly at the margins.
const REPLAY_SLACK: u64 = 10_000;

/// One row of the commit-trace tail: the last committed instructions
/// before the failure, flattened from the debug-mode `instr_commit`
/// table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CommitTailEntry {
    /// Cycle of commit.
    pub cycle: u64,
    /// Hart index.
    pub hart: u64,
    /// PC.
    pub pc: u64,
    /// Opcode mnemonic.
    pub op: String,
    /// Destination write `(fp, arch index, value)`, if any.
    pub wb: Option<(bool, u8, u64)>,
}

/// The self-contained rollback-replay bundle.
///
/// Everything here is either configuration (recipe) or derived from the
/// deterministic simulation — a bundle for the same failing job is
/// byte-identical across runs, machines, and worker counts.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TriageBundle {
    /// Bundle schema version.
    pub schema_version: u64,
    /// The job's position in its campaign.
    pub job_index: u64,
    /// Workload display label.
    pub workload: String,
    /// The program recipe.
    pub source: WorkloadSource,
    /// Configuration preset slug.
    pub config: String,
    /// Core-count override.
    pub cores: Option<u64>,
    /// Deliberate DUT corruption armed for the job.
    pub injected_bug: Option<InjectedBug>,
    /// §IV-C L2 probe/grant race fault armed for the job.
    pub inject_l2_race: bool,
    /// Per-cycle telemetry enabled.
    pub telemetry: bool,
    /// Full-trace lifecycle streaming enabled (the crash ring below is
    /// captured regardless).
    pub lifecycle: bool,
    /// Cycle budget.
    pub max_cycles: u64,
    /// LightSSS snapshot interval.
    pub lightsss_interval: Option<u64>,
    /// DiffTest REF personality (None = the default REF).
    /// Recorded so a replay re-verifies against the same REF tier.
    pub ref_model: Option<String>,
    /// What ended the job: `"diverged"`, `"timeout"`, `"panicked"`, or
    /// `"forbidden-outcome"`.
    pub trigger: String,
    /// Cycle of the snapshot the replay rolled back to (0 for the
    /// reset-state fallback).
    pub snapshot_cycle: u64,
    /// True when no snapshot had been retained and the replay fell back
    /// to the reset state.
    pub fallback_reset: bool,
    /// Cycle at which the failure was detected.
    pub at_cycle: u64,
    /// Commit index at which the failure was detected — the anchor a
    /// deterministic re-execution must hit again.
    pub at_commit: u64,
    /// The divergence (diverged jobs only).
    pub error: Option<DiffError>,
    /// Divergence class.
    pub error_class: Option<String>,
    /// The panic message (panicked jobs only).
    pub panic: Option<String>,
    /// The raw litmus exit code — status, first bad round and outcome
    /// packed into hart 0's `a0` (forbidden-outcome jobs only). A
    /// replay must halt with this exact value to count as reproduced.
    pub forbidden_exit: Option<u64>,
    /// Whether the rollback replay reproduced the original failure.
    pub reproduced: bool,
    /// Cycles re-simulated in the debug-mode window.
    pub cycles_replayed: u64,
    /// Debug-mode events captured during the window.
    pub trace_records: u64,
    /// The last committed instructions before the failure.
    pub commit_tail: Vec<CommitTailEntry>,
    /// The always-on lifecycle ring at the failure point: the last
    /// [`xscore::LIFECYCLE_RING_CAP`] finished uops per core, with
    /// per-stage cycle stamps and squash causes. Pure-integer stamps —
    /// deterministic and bounded like everything else in the bundle.
    pub lifecycle_ring: Vec<xscore::Lifecycle>,
    /// CPI stack of the replayed window alone.
    pub window_cpi: CpiStack,
    /// Minimized reproducer, when ddmin ran on the failure.
    pub minimized: Option<MinimizedRepro>,
}

/// Extract the commit-trace tail from a debug-mode trace.
pub fn commit_tail(trace: &ArchDb) -> Vec<CommitTailEntry> {
    let commits = &trace.instr_commit;
    commits
        .rows()
        .skip(commits.len().saturating_sub(COMMIT_TAIL_LEN))
        .map(|c| CommitTailEntry {
            cycle: c.cycle,
            hart: c.hart as u64,
            pc: c.pc,
            op: format!("{:?}", c.inst.op),
            wb: c.wb,
        })
        .collect()
}

/// Re-execute a diverged run's failure window in debug mode: from its
/// rollback point ([`RunStats::salvage`]) for `at_cycle − from +
/// REPLAY_SLACK` cycles. The failure reproduces when the same
/// [`DiffError`] strikes at the same commit index. `None` unless the run
/// diverged; the salvage is taken, so the window runs once.
pub fn replay_divergence(stats: &mut RunStats) -> Option<(ReplayWindow, DebugWindow)> {
    let CoSimEnd::Bug(bug) = &stats.end else {
        return None;
    };
    let s = stats.salvage.take()?;
    let (from, fallback_reset) = (s.snapshot_cycle, s.fallback_reset);
    let budget = bug.at_cycle.saturating_sub(from) + REPLAY_SLACK;
    let w = debug_window(Box::new(move || s.state), budget);
    let replay = ReplayWindow {
        from_cycle: from,
        fallback_reset,
        at_cycle: bug.at_cycle,
        at_commit: if w.error.is_some() { w.at_commit } else { 0 },
        cycles_replayed: w.at_cycle.saturating_sub(from),
        reproduced: w.error.as_ref() == Some(&bug.error) && w.at_commit == bug.at_commit,
        trace_records: w.trace.records_inserted(),
    };
    Some((replay, w))
}

/// Triage a finished job: `None` when it did not fail, otherwise the
/// bundle for whichever way it did. Matching the outcome picks the
/// trigger, the failure anchor, where the debug-mode window starts and
/// what counts as reproducing; one [`debug_window`] result then fills
/// the bundle.
///
/// - **diverged** — `replay` is the run's one [`replay_divergence`]
///   window, the same that fills the job record's replay.
/// - **timeout** (cycle budget) — re-execute the final window from the
///   salvaged snapshot, capturing what the pipeline was doing when the
///   budget ran out.
/// - **forbidden-outcome** — both harts committed cleanly, so there is no
///   divergence point to roll back to (the *final observation set* is
///   what's illegal): re-execute the whole run from reset, capturing the
///   commit tail and both harts' lifecycle rings around the racy rounds.
/// - **panicked** — the unwound harness left nothing to salvage:
///   re-execute from reset until the panic strikes again.
pub fn triage(
    job_index: u64,
    spec: &JobSpec,
    outcome: Result<&mut RunStats, &str>,
    minimized: Option<MinimizedRepro>,
    replay: Option<(ReplayWindow, DebugWindow)>,
) -> Option<TriageBundle> {
    let mut b = TriageBundle {
        schema_version: BUNDLE_SCHEMA_VERSION,
        job_index,
        workload: spec.workload.describe(),
        source: spec.workload.clone(),
        config: spec.config.clone(),
        cores: spec.cores.map(|c| c as u64),
        injected_bug: spec.run.injected_bug,
        inject_l2_race: spec.run.inject_l2_race,
        telemetry: spec.run.telemetry,
        lifecycle: spec.run.lifecycle,
        max_cycles: spec.max_cycles,
        lightsss_interval: spec.lightsss_interval,
        ref_model: spec.ref_model.clone(),
        trigger: String::new(),
        snapshot_cycle: 0,
        fallback_reset: true,
        at_cycle: 0,
        at_commit: 0,
        error: None,
        error_class: None,
        panic: None,
        forbidden_exit: None,
        reproduced: false,
        cycles_replayed: 0,
        trace_records: 0,
        commit_tail: Vec::new(),
        lifecycle_ring: Vec::new(),
        window_cpi: CpiStack::default(),
        minimized,
    };
    // Rebooting the job is the rollback point of last resort. It runs
    // inside the window's panic boundary: a boot that panics again is
    // the failure reproducing at cycle 0, with an empty window.
    let from_reset = |budget: u64| {
        let boot = || {
            let cfg = spec.config().expect("the job ran on this configuration");
            spec.boot(cfg).0.state
        };
        debug_window(Box::new(boot), budget)
    };
    // Halting, or running out of budget, at the original end cycle with
    // no divergence en route is the same run: the model is deterministic.
    let runs_to =
        |w: &DebugWindow, cycle: u64| w.error.is_none() && w.panic.is_none() && w.at_cycle == cycle;
    let window = match outcome {
        Err(message) => {
            b.trigger = "panicked".into();
            b.panic = Some(message.to_string());
            let w = from_reset(spec.max_cycles);
            b.reproduced = w.panic.as_deref() == Some(message);
            b.at_cycle = w.at_cycle;
            b.at_commit = w.at_commit;
            // A divergence en route to the panic still ends the window.
            b.error = w.error.clone();
            w
        }
        Ok(stats) => {
            // The failing run ended at the failure, so its always-on
            // ring is already the window right before it.
            let ring = &mut stats.lifecycle_ring;
            b.at_cycle = stats.cycles;
            b.at_commit = stats.commits_checked;
            match &stats.end {
                CoSimEnd::Bug(bug) => {
                    b.trigger = "diverged".into();
                    b.lifecycle_ring = std::mem::take(ring);
                    b.error = Some(bug.error.clone());
                    b.error_class = Some(error_class(&bug.error).to_string());
                    let Some((r, w)) = replay else {
                        return Some(b);
                    };
                    b.snapshot_cycle = r.from_cycle;
                    b.fallback_reset = r.fallback_reset;
                    b.reproduced = r.reproduced;
                    w
                }
                CoSimEnd::OutOfCycles => {
                    let s = stats.salvage.take()?;
                    b.trigger = "timeout".into();
                    b.lifecycle_ring = std::mem::take(ring);
                    b.snapshot_cycle = s.snapshot_cycle;
                    b.fallback_reset = s.fallback_reset;
                    let budget = stats.cycles.saturating_sub(b.snapshot_cycle);
                    let w = debug_window(Box::new(move || s.state), budget);
                    b.reproduced = runs_to(&w, stats.cycles);
                    w
                }
                CoSimEnd::Halted(code) => {
                    spec.workload.forbidden_exit(*code)?;
                    b.trigger = "forbidden-outcome".into();
                    b.lifecycle_ring = std::mem::take(ring);
                    b.forbidden_exit = Some(*code);
                    let w = from_reset(stats.cycles.saturating_add(REPLAY_SLACK));
                    b.reproduced = runs_to(&w, stats.cycles);
                    w
                }
            }
        }
    };
    b.cycles_replayed = window.at_cycle.saturating_sub(b.snapshot_cycle);
    b.trace_records = window.trace.records_inserted();
    b.commit_tail = commit_tail(&window.trace);
    b.window_cpi = window.window_cpi;
    if b.lifecycle_ring.is_empty() {
        // The original harness unwound (or finished nothing): the
        // replay stopped at the same point, so its ring is the
        // equivalent pre-failure window.
        b.lifecycle_ring = window.lifecycle_ring;
    }
    Some(b)
}

/// Read the bundle at `path` for one of the reading tools.
///
/// # Errors
///
/// One line saying why the file cannot be used: unreadable, or
/// [`TriageBundle::from_json`]'s diagnosis.
pub fn load_bundle(path: &str) -> Result<TriageBundle, String> {
    minjie::files::read(path, TriageBundle::from_json)
}

/// Rebuild the [`JobSpec`] a bundle describes.
pub fn bundle_spec(b: &TriageBundle) -> JobSpec {
    JobSpec {
        cores: b.cores.map(|c| c as usize),
        max_cycles: b.max_cycles,
        lightsss_interval: b.lightsss_interval,
        run: RunKnobs {
            injected_bug: b.injected_bug,
            inject_l2_race: b.inject_l2_race,
            telemetry: b.telemetry,
            lifecycle: b.lifecycle,
            ..RunKnobs::default()
        },
        ref_model: b.ref_model.clone(),
        ..JobSpec::new(b.source.clone(), b.config.clone())
    }
}

/// The outcome of replaying a bundle from scratch.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BundleVerification {
    /// The original failure reproduced — same kind, same error, same
    /// commit index.
    pub reproduced: bool,
    /// Commit index the re-execution reached (divergences: where it
    /// diverged; timeouts: commits verified at budget exhaustion).
    pub at_commit: u64,
    /// Human-readable explanation of the outcome.
    pub detail: String,
}

/// Re-execute a bundle's job — from reset, or for a sample recipe from
/// its re-derived checkpoint, exactly as the runner did, using only the
/// recipe inside the bundle — and check that the failure reproduces at
/// the identical commit index.
///
/// # Errors
///
/// Setup failures that prevent the run from even starting, each with a
/// one-line diagnosis: a bundle from another schema version, one the load
/// gate refuses ([`TriageBundle::from_json`]), a configuration the model
/// refuses, a recipe naming a kernel or personality this build does not
/// have.
pub fn verify_bundle(b: &TriageBundle) -> Result<BundleVerification, String> {
    if b.schema_version != BUNDLE_SCHEMA_VERSION {
        return Err(format!(
            "bundle schema version {} is not the supported version {BUNDLE_SCHEMA_VERSION}",
            b.schema_version
        ));
    }
    b.check()?;
    let spec = bundle_spec(b);
    let cfg = spec.config()?;
    spec.workload.check()?;
    let stats = match spec.run(cfg).0 {
        Ok(stats) => stats,
        Err(message) => {
            return Ok(BundleVerification {
                reproduced: b.trigger == "panicked" && Some(&message) == b.panic.as_ref(),
                at_commit: 0,
                detail: format!("panicked: {message}"),
            })
        }
    };
    // A sample job that halts, or is stopped with its window full, did
    // not fail.
    let sampled = stats
        .window
        .as_ref()
        .filter(|w| w.completed || matches!(stats.end, CoSimEnd::Halted(_)));
    let (reproduced, detail) = if let Some(w) = sampled {
        let detail = format!(
            "sampled cleanly: {} window cycles, {} window instructions",
            w.window_cycles, w.window_instret
        );
        (false, detail)
    } else {
        match &stats.end {
            CoSimEnd::Halted(code) if b.trigger == "forbidden-outcome" => (
                b.forbidden_exit == Some(*code) && stats.commits_checked == b.at_commit,
                format!(
                    "halted with exit code {code:#x} at commit {} (bundle: {:#x} at commit {})",
                    stats.commits_checked,
                    b.forbidden_exit.unwrap_or(0),
                    b.at_commit
                ),
            ),
            CoSimEnd::Halted(code) => (false, format!("halted cleanly with exit code {code}")),
            CoSimEnd::OutOfCycles => (
                b.trigger == "timeout"
                    && stats.cycles == b.at_cycle
                    && stats.commits_checked == b.at_commit,
                format!(
                    "cycle budget exhausted at cycle {} after {} commits",
                    stats.cycles, stats.commits_checked
                ),
            ),
            CoSimEnd::Bug(bug) => {
                let same_error = Some(&bug.error) == b.error.as_ref();
                (
                    b.trigger == "diverged" && same_error && bug.at_commit == b.at_commit,
                    format!(
                        "diverged ({}) at commit {} (bundle: commit {}, error match: {})",
                        error_class(&bug.error),
                        bug.at_commit,
                        b.at_commit,
                        same_error
                    ),
                )
            }
        }
    };
    Ok(BundleVerification {
        reproduced,
        at_commit: stats.commits_checked,
        detail,
    })
}

impl TriageBundle {
    /// Read the text `campaign --bundle-dir` wrote.
    ///
    /// # Errors
    ///
    /// One line saying why the text cannot be used: not JSON, a bundle of
    /// a schema other than [`BUNDLE_SCHEMA_VERSION`] or of none, not a
    /// bundle, a core count the model cannot build, a LightSSS interval
    /// of 0, or a crash ring no core could have written.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let bundle: Self = minjie::files::load(text, "bundle", BUNDLE_SCHEMA_VERSION)?;
        bundle.check()?;
        Ok(bundle)
    }

    /// One line naming what no run could have written: a core count
    /// [`XsConfig::check_cores`] refuses, a LightSSS interval of 0, or the
    /// first crash-ring record that fails [`xscore::Lifecycle::check`].
    pub(crate) fn check(&self) -> Result<(), String> {
        if let Some(cores) = self.cores {
            XsConfig::check_cores(cores).map_err(|e| format!("bundle asks for {e}"))?;
        }
        if self.lightsss_interval == Some(0) {
            return Err("bundle asks for a LightSSS interval of 0 cycles".into());
        }
        self.lifecycle_ring.iter().enumerate().try_for_each(|(i, r)| {
            r.check().map_err(|e| format!("lifecycle record {i} (seq {}): {e}", r.seq))
        })
    }

    /// Render the bundle as a human-readable triage card.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "== triage bundle: job {} ({}) ==\n",
            self.job_index, self.trigger
        ));
        s.push_str(&format!(
            "workload: {}  config: {}  cores: {}\n",
            self.workload,
            self.config,
            self.cores
                .map(|c| c.to_string())
                .unwrap_or_else(|| "(preset)".into()),
        ));
        if let Some(bug) = self.injected_bug {
            s.push_str(&format!("injected bug: {bug:?}\n"));
        }
        if self.inject_l2_race {
            s.push_str("l2 race: armed\n");
        }
        let ref_name = self.ref_model.as_deref().unwrap_or(minjie::DEFAULT_REF_NAME);
        s.push_str(&format!("ref: {ref_name}\n"));
        s.push_str(&format!(
            "limits: {} cycles, lightsss {}\n",
            self.max_cycles,
            self.lightsss_interval
                .map(|i| format!("every {i}"))
                .unwrap_or_else(|| "off".into()),
        ));
        s.push_str(&format!(
            "failure: cycle {} commit {}\n",
            self.at_cycle, self.at_commit
        ));
        if let Some(e) = &self.error {
            s.push_str(&format!(
                "error [{}]: {e:?}\n",
                self.error_class.as_deref().unwrap_or("?")
            ));
        }
        if let Some(p) = &self.panic {
            s.push_str(&format!("panic: {p}\n"));
        }
        if let Some(x) = self.forbidden_exit {
            s.push_str(&format!(
                "forbidden litmus exit: {x:#x} ({:?})\n",
                workloads::litmus::LitmusExit::decode(x)
            ));
        }
        s.push_str(&format!(
            "rollback: from cycle {}{}, replayed {} cycles, {} trace records, reproduced: {}\n",
            self.snapshot_cycle,
            if self.fallback_reset {
                " (reset-state fallback: failure preceded the first snapshot)"
            } else {
                " (older LightSSS snapshot)"
            },
            self.cycles_replayed,
            self.trace_records,
            self.reproduced,
        ));
        if let Some(m) = &self.minimized {
            s.push_str(&format!(
                "minimized: seed {} kept {}/{} slots ({} runs)\n",
                m.seed, m.minimized_kept, m.original_kept, m.minimizer_runs
            ));
        }
        s.push_str(&minjie::telemetry::render_cpi_stack(
            &self.window_cpi,
            "window CPI stack",
        ));
        if !self.lifecycle_ring.is_empty() {
            let ring = &self.lifecycle_ring;
            s.push_str(&xscore::render_waterfall(ring));
            s.push_str(&xscore::render_gap_summary(&xscore::LifecycleDigest::of(ring)));
        }
        if !self.commit_tail.is_empty() {
            s.push_str(&format!(
                "commit tail (last {} commits):\n",
                self.commit_tail.len()
            ));
            for e in &self.commit_tail {
                let wb = match e.wb {
                    Some((fp, idx, val)) => {
                        format!("{}{} <- {val:#x}", if fp { "f" } else { "x" }, idx)
                    }
                    None => "-".to_string(),
                };
                s.push_str(&format!(
                    "{:>10} | hart {} pc {:#x} {} {}\n",
                    e.cycle, e.hart, e.pc, e.op, wb
                ));
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use riscv_isa::asm::{reg::*, Asm, Program};

    fn mul_bug_spec() -> JobSpec {
        let mut a = Asm::new(0x8000_0000);
        a.li(S0, 3);
        a.li(S1, 5);
        a.mul(A0, S0, S1);
        a.ebreak();
        JobSpec::new(
            WorkloadSource::inline("mulbug", a.assemble()),
            "small-nh",
        )
        .with_injected_bug(InjectedBug::MulLowBit)
        .with_max_cycles(200_000)
        .with_lightsss(1000)
    }

    /// Run `spec` the way the campaign executor does.
    fn run(spec: &JobSpec) -> Result<RunStats, String> {
        spec.run(spec.build_config().unwrap()).0
    }

    /// Triage a finished run the way the campaign executor does: a
    /// divergence's one window first, then the bundle.
    fn triaged(spec: &JobSpec, stats: &mut RunStats) -> Option<TriageBundle> {
        let replay = replay_divergence(stats);
        triage(0, spec, Ok(stats), None, replay)
    }

    /// The bundle schema's `source` field, one value per variant,
    /// captured from the bundles PR 13 wrote (when the field was a
    /// hand-mirrored copy of the recipe enum). Holding the literals is
    /// what makes "no schema bump" checkable: each must parse into the
    /// one recipe type, still describe a runnable workload, and
    /// serialize back byte for byte.
    #[test]
    fn source_wire_shape_is_pinned() {
        let pinned = [
            (r#"{"Kernel":{"name":"mcf"}}"#, "kernel:mcf"),
            (
                r#"{"Torture":{"cfg":{"body_len":8,"branches":true,"compressed":false,"iterations":2,"memory_ops":true,"muldiv":true},"keep":[true,false,true,true,false,true,true,true],"seed":7}}"#,
                "torture:seed=7",
            ),
            (
                r#"{"Litmus":{"cfg":{"fenced":true,"filler":2,"lrsc_iters":4,"rounds":4,"shape":"Mp"},"keep":null,"seed":3}}"#,
                "litmus:mp:seed=3",
            ),
            (
                r#"{"Inline":{"base":2147483648,"bytes":[19,5,112,0,115,0,16,0],"entry":2147483648,"name":"tiny"}}"#,
                "inline:tiny",
            ),
            (
                r#"{"Sample":{"interval":3,"interval_len":5000,"kernel":"sjeng","ref_model":"nemu-trace","warmup":1000,"window":5000}}"#,
                "sample:sjeng:interval=3",
            ),
        ];
        for (json, label) in pinned {
            let source: WorkloadSource = serde_json::from_str(json).expect(json);
            assert_eq!(source.describe(), label);
            assert_eq!(source.check(), Ok(()), "{label}");
            // A sample recipe's program is its whole kernel; building
            // one proves nothing about the checkpoint it describes.
            if source.sample_window().is_none() {
                assert!(!source.build().bytes.is_empty(), "{label}");
            }
            assert_eq!(serde_json::to_string(&source).unwrap(), json);
        }
    }

    #[test]
    fn commit_tail_is_the_last_commits_oldest_first() {
        use riscv_isa::op::{DecodedInst, Op};
        let commit = |c: u64| xscore::CommitEvent {
            hart: (c % 2) as usize,
            pc: 0x8000_0000 + 4 * c,
            inst: DecodedInst { op: Op::ALL[c as usize], ..Default::default() },
            wb: c.is_multiple_of(2).then_some((false, 5, c)),
            cycle: 100 + c,
            ..Default::default()
        };
        let mut trace = ArchDb::new();
        (0..COMMIT_TAIL_LEN as u64 + 8).for_each(|c| trace.instr_commit.push(commit(c)));
        let tail = commit_tail(&trace);
        assert_eq!(tail.len(), COMMIT_TAIL_LEN);
        for (e, c) in tail.iter().zip(8..) {
            let from = commit(c);
            assert_eq!((e.cycle, e.hart, e.pc, e.wb), (from.cycle, c % 2, from.pc, from.wb));
            // The bundle's `op` is the variant name, as serde spells it.
            assert_eq!(serde_json::to_string(&e.op).unwrap(), serde_json::to_string(&from.inst.op).unwrap());
        }
        assert!(commit_tail(&ArchDb::new()).is_empty());
    }

    #[test]
    fn hostile_bundles_are_refused_with_a_diagnosis() {
        let spec = mul_bug_spec();
        let mut stats = run(&spec).expect("no panic");
        let good = triaged(&spec, &mut stats).expect("diverged");
        let refused = |edit: &dyn Fn(&mut TriageBundle)| {
            let mut b = good.clone();
            edit(&mut b);
            verify_bundle(&b).expect_err("must be refused before anything runs")
        };
        let e = refused(&|b| b.schema_version = 99);
        assert!(e.contains("schema version 99"), "{e}");
        let e = refused(&|b| b.source = WorkloadSource::kernel("nosuch"));
        assert!(e.contains("unknown workload `nosuch`"), "{e}");
        let e = refused(&|b| {
            b.source = WorkloadSource::Sample {
                kernel: "sjeng".into(),
                ref_model: "nosuch".into(),
                interval_len: 5_000,
                interval: 1,
                warmup: 100,
                window: 100,
            }
        });
        assert!(e.contains("unknown profiling personality `nosuch`"), "{e}");
        // A sample job boots the default REF from its checkpoint, so a
        // bundle naming another REF for one would replay under a false
        // label.
        let e = refused(&|b| {
            b.source = WorkloadSource::Sample {
                kernel: "sjeng".into(),
                ref_model: "nemu-trace".into(),
                interval_len: 5_000,
                interval: 1,
                warmup: 100,
                window: 100,
            };
            b.ref_model = Some("arch".into());
        });
        assert!(e.contains("cannot be verified against `arch`"), "{e}");
        // A preset that exists but cannot run this job is diagnosed as
        // such, not as an unknown preset.
        let e = refused(&|b| {
            b.config = "small-yqh".into();
            b.cores = Some(2);
        });
        assert!(e.contains("no shared last-level cache"), "{e}");
        assert!(!e.contains("unknown configuration preset"), "{e}");
        // A core count no system here can build is refused before one
        // core is.
        let e = refused(&|b| b.cores = Some(0));
        assert!(e.contains("0 cores: a system needs at least one hart"), "{e}");
        let e = refused(&|b| b.cores = Some(1 << 32));
        assert!(e.contains("4294967296 cores: the model builds at most 16 harts"), "{e}");
        let e = refused(&|b| b.lightsss_interval = Some(0));
        assert!(e.contains("LightSSS interval of 0 cycles"), "{e}");
    }

    #[test]
    fn divergence_bundle_verifies_at_the_same_commit() {
        let spec = mul_bug_spec();
        let mut stats = run(&spec).expect("no panic");
        assert!(
            matches!(stats.end, CoSimEnd::Bug(_)),
            "expected a divergence, got {:?}",
            stats.end
        );
        let bundle = triaged(&spec, &mut stats).expect("failed jobs are triaged");
        assert_eq!(bundle.trigger, "diverged");
        assert!(bundle.reproduced, "rollback replay reproduces");
        assert_eq!(bundle.error_class.as_deref(), Some("Writeback"));
        assert!(!bundle.commit_tail.is_empty(), "commit tail captured");
        assert!(
            !bundle.lifecycle_ring.is_empty(),
            "lifecycle ring snapshotted at the failure"
        );
        assert!(
            bundle.lifecycle_ring.len() <= xscore::LIFECYCLE_RING_CAP,
            "single-core ring stays within the cap"
        );
        // The bundle alone reproduces the failure at the same commit.
        let v = verify_bundle(&bundle).expect("config resolves");
        assert!(v.reproduced, "{}", v.detail);
        assert_eq!(v.at_commit, bundle.at_commit);
        // Bundles serialize deterministically.
        let j1 = serde_json::to_string(&bundle).unwrap();
        let j2 = serde_json::to_string(&bundle.clone()).unwrap();
        assert_eq!(j1, j2);
        assert!(bundle.render().contains("triage bundle"));
    }

    #[test]
    fn timeout_bundle_replays_the_final_window() {
        // An infinite loop exhausts the cycle budget.
        let mut a = Asm::new(0x8000_0000);
        let top = a.bound_label();
        a.addi(S0, S0, 1);
        a.j(top);
        let spec = JobSpec::new(
            WorkloadSource::inline("spin", a.assemble()),
            "small-nh",
        )
        .with_max_cycles(20_000)
        .with_lightsss(4_000);
        let mut stats = run(&spec).expect("no panic");
        assert!(matches!(stats.end, CoSimEnd::OutOfCycles));
        let salvage = stats
            .salvage
            .as_ref()
            .expect("timeout salvages a rollback point");
        assert!(!salvage.fallback_reset, "snapshots were retained");
        let bundle = triaged(&spec, &mut stats).expect("failed jobs are triaged");
        assert_eq!(bundle.trigger, "timeout");
        assert!(!bundle.lifecycle_ring.is_empty(), "ring captured at budget exhaustion");
        assert!(bundle.reproduced, "window replays to the same end cycle");
        assert!(bundle.cycles_replayed <= 2 * 4_000 + 4_000);
        let v = verify_bundle(&bundle).expect("config resolves");
        assert!(v.reproduced, "{}", v.detail);
    }

    #[test]
    fn clean_runs_are_not_triaged() {
        let mut a = Asm::new(0x8000_0000);
        a.li(A0, 7);
        a.ebreak();
        let spec = JobSpec::new(WorkloadSource::inline("ok", a.assemble()), "small-nh");
        let mut stats = run(&spec).expect("no panic");
        assert!(matches!(stats.end, CoSimEnd::Halted(7)), "{:?}", stats.end);
        assert!(triaged(&spec, &mut stats).is_none());
    }

    #[test]
    fn panic_bundle_reproduces_the_message() {
        // An unknown REF personality panics while the harness boots: the
        // debug window must contain the same panic and report an empty
        // window at cycle 0.
        let spec = JobSpec::new(
            WorkloadSource::inline(
                "bogus",
                Program {
                    base: 0x8000_0000,
                    entry: 0x8000_0000,
                    bytes: Vec::new(),
                },
            ),
            "small-nh",
        )
        .with_ref("nosuch")
        .with_max_cycles(10_000);
        let message = run(&spec).expect_err("boot panics");
        let bundle = triage(0, &spec, Err(&message), None, None).expect("failed jobs are triaged");
        assert_eq!(bundle.trigger, "panicked");
        assert_eq!(bundle.panic.as_deref(), Some(message.as_str()));
        assert!(bundle.reproduced, "panic message matches on replay");
        assert_eq!((bundle.at_cycle, bundle.cycles_replayed), (0, 0));
        let v = verify_bundle(&bundle).expect("config resolves");
        assert!(v.reproduced, "{}", v.detail);
    }
}
