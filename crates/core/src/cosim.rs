//! The integrated co-simulation harness — "Put It All Together" (§III-E).
//!
//! [`CoSim`] wires a [`xscore::XsSystem`] DUT, per-hart NEMU REFs under
//! [`DiffTest`], the [`LightSss`] snapshot manager, and [`ArchDb`] event
//! recording into the paper's workflow: launch the simulation, stop when
//! DiffTest reports a mismatch, and on demand roll back to the older
//! snapshot ([`CoSim::rollback_point`]) and replay it with debugging
//! information enabled ([`debug_window`]).

use crate::archdb::ArchDb;
use crate::difftest::{AnyRef, DiffError, DiffTest, GlobalMemory, DEFAULT_REF_NAME};
use crate::lightsss::{LightSss, Snapshotable};
use riscv_isa::asm::Program;
use riscv_isa::mem::SparseMemory;
use riscv_isa::state::ArchState;
use std::cell::Cell;
use std::time::Instant;
use xscore::{XsConfig, XsSystem};

/// The snapshotable simulation state: the DUT and the verification state
/// move through time together, so a snapshot captures both.
#[derive(Clone)]
pub struct CoSimState {
    /// The device under test.
    pub sys: XsSystem,
    /// The DiffTest engine (REF harts + global memory + rule stats).
    pub diff: DiffTest<AnyRef>,
}

impl Snapshotable for CoSimState {
    fn time(&self) -> u64 {
        self.sys.cores[0].cycle()
    }
    fn serialize_full(&self) -> Vec<u8> {
        // The SSS baseline: eagerly serialize the bulk state — backing
        // memory plus the complete cache arrays (the paper's SSS snapshots
        // "the entire circuit state of DUT").
        let mut blob = self.sys.mem.serialize_full_state();
        for c in &self.sys.cores {
            blob.extend_from_slice(
                serde_json::to_string(&c.arch_state())
                    .expect("arch state serializes")
                    .as_bytes(),
            );
        }
        blob
    }
}

/// Why a co-simulation ended.
#[derive(Debug)]
pub enum CoSimEnd {
    /// All harts halted; exit code of hart 0.
    Halted(u64),
    /// Cycle budget exhausted.
    OutOfCycles,
    /// DiffTest reported a bug.
    Bug(BugReport),
}

/// A detected bug: the divergence and where it struck.
#[derive(Debug)]
pub struct BugReport {
    /// The divergence DiffTest reported.
    pub error: DiffError,
    /// Cycle at which the divergence was detected.
    pub at_cycle: u64,
    /// Commit index (commits checked, across harts) at which the
    /// divergence was detected — the anchor a deterministic replay must
    /// hit again.
    pub at_commit: u64,
}

/// The co-simulation harness.
pub struct CoSim {
    /// Live simulation state.
    pub state: CoSimState,
    /// The reset state (a COW clone taken at boot): the rollback target
    /// when a failure strikes before the first snapshot interval.
    reset: Box<CoSimState>,
    /// Snapshot manager (None disables LightSSS).
    pub lightsss: Option<LightSss<CoSimState>>,
    /// Event database (populated in debug mode).
    pub archdb: ArchDb,
    /// Debug mode: record commit/drain events into ArchDB. Slows the
    /// simulation — which is the very reason LightSSS exists.
    pub debug_mode: bool,
    /// Reused per-step output buffer (keeps the hot loop allocation-free).
    outs_buf: Vec<xscore::CycleOutput>,
}

/// Per-table row cap of the bounded trace a debug-mode replay records.
const REPLAY_TRACE_CAP: usize = 65_536;

/// Per-table row cap of the full lifecycle trace streamed under
/// `RunKnobs::lifecycle` — keeps the newest window so a long run cannot
/// grow the database without bound.
const LIFECYCLE_TRACE_CAP: usize = 262_144;

/// Loop iterations between two reads of the clock while a
/// [`within_deadline`] stop is set.
const DEADLINE_POLL: u32 = 1024;

thread_local! {
    /// The wall-clock stop of the enclosing [`within_deadline`] on this
    /// thread: written by it alone, read by [`CoSim::run_to`] alone.
    static STOP: Cell<Option<Instant>> = const { Cell::new(None) };
}

impl CoSim {
    /// Boot a program under co-simulation against DiffTest's default
    /// REF ([`DEFAULT_REF_NAME`]).
    pub fn new(cfg: XsConfig, program: &Program) -> Self {
        Self::new_with_ref(cfg, program, DEFAULT_REF_NAME)
    }

    /// Boot a program under co-simulation against the REF personality
    /// `ref_name` (one of [`AnyRef::names`]).
    ///
    /// # Panics
    ///
    /// Panics on an unknown personality name.
    pub fn new_with_ref(cfg: XsConfig, program: &Program, ref_name: &str) -> Self {
        let diff = DiffTest::for_program_with_ref(ref_name, program, cfg.cores);
        let run = cfg.run;
        let sys = XsSystem::new(cfg, program);
        Self::booted(sys, diff, run.coverage, run.lifecycle)
    }

    /// Boot co-simulation from an architectural checkpoint: the DUT is
    /// rebuilt over the checkpointed memory image with core 0 restored
    /// to the checkpointed state, and the DiffTest REF is the default
    /// one ([`AnyRef::restored`]) resumed from the same state — so commits
    /// are verified from the first restored instruction on, exactly as
    /// in a from-reset run. Checkpoints are single-hart (§III-D3
    /// profiles one hart), so the configuration is clamped to one core.
    pub fn from_checkpoint(mut cfg: XsConfig, state: &ArchState, memory: &SparseMemory) -> Self {
        cfg.cores = 1;
        let run = cfg.run;
        let mut sys = XsSystem::from_memory(cfg, memory.clone(), state.pc);
        sys.restore(state);
        let diff = DiffTest::new(
            vec![AnyRef::restored(state.clone(), memory.clone())],
            GlobalMemory::from_memory(memory.clone()),
        );
        Self::booted(sys, diff, run.coverage, run.lifecycle)
    }

    /// The harness over a freshly booted DUT and DiffTest engine.
    fn booted(sys: XsSystem, mut diff: DiffTest<AnyRef>, coverage: bool, lifecycle: bool) -> Self {
        if coverage {
            diff.coverage = Some(crate::coverage::CommitCoverage::default());
        }
        // Full-trace mode streams a lifecycle record per finished uop;
        // bound the database so the stream keeps only the newest window.
        let archdb = if lifecycle {
            ArchDb::bounded(LIFECYCLE_TRACE_CAP)
        } else {
            ArchDb::new()
        };
        Self::over(CoSimState { sys, diff }, archdb, false)
    }

    /// The harness over `state`, which becomes its rollback fallback.
    fn over(state: CoSimState, archdb: ArchDb, debug_mode: bool) -> Self {
        CoSim {
            reset: Box::new(state.clone()),
            state,
            lightsss: None,
            archdb,
            debug_mode,
            outs_buf: Vec::new(),
        }
    }

    /// Enable LightSSS with the given snapshot interval (cycles).
    pub fn with_lightsss(mut self, interval: u64) -> Self {
        self.lightsss = Some(LightSss::new(interval));
        self
    }

    /// Advance one cycle, then — when `RunKnobs::event_driven` is on and
    /// no core made progress — skip ahead to just before the next
    /// scheduled event, but never past `limit` or past the next LightSSS
    /// snapshot-due cycle (snapshots must be captured at the same cycles
    /// as a cycle-by-cycle run so their state is byte-identical).
    ///
    /// # Errors
    ///
    /// The first [`DiffError`] found.
    pub fn step_cycle_until(&mut self, mut limit: u64) -> Result<(), DiffError> {
        if let Some(l) = &mut self.lightsss {
            l.tick(&self.state);
            limit = limit.min(l.next_due());
        }
        // Temporarily take the scratch buffer so the borrow checker sees
        // disjoint access to `state.sys` and the rest of `self` below.
        let mut outs = std::mem::take(&mut self.outs_buf);
        self.state.sys.tick_skipping_into(limit, &mut outs);
        // Commits are checked before this cycle's drains are applied to
        // the Global Memory: a value read by a committed instruction
        // predates stores that reach memory in the same cycle.
        for out in &outs {
            for c in &out.commits {
                if self.debug_mode {
                    self.archdb.instr_commit.push(c.clone());
                }
                self.state.diff.on_commit(c)?;
                if c.halted {
                    // Final full-state comparison for this hart.
                    let dut_state = self.state.sys.cores[c.hart].arch_state();
                    self.state.diff.compare_state(c.hart, &dut_state)?;
                }
            }
        }
        for out in &outs {
            for d in &out.drains {
                self.state.diff.on_sbuffer_drain(d);
                if self.debug_mode {
                    self.archdb.sbuffer_drain.push(*d);
                }
            }
        }
        // Drain full-trace lifecycle records (empty unless
        // `RunKnobs::lifecycle` is on, so this is free on the default path).
        for core in &mut self.state.sys.cores {
            for rec in core.take_lifecycle_trace() {
                self.archdb.lifecycle.push(rec);
            }
        }
        // An early `?` above forfeits the buffer — fine, errors end the run.
        self.outs_buf = outs;
        Ok(())
    }

    /// Run to completion, stopping at the first divergence. Nothing is
    /// re-executed here: a caller that wants the failure window in debug
    /// mode passes [`CoSim::rollback_point`] to [`debug_window`].
    ///
    /// `max_cycles` is a simulated-cycle budget (not a step count): with
    /// the event-driven skipper on, one step may consume many cycles.
    pub fn run(&mut self, max_cycles: u64) -> CoSimEnd {
        let deadline = self.state.time().saturating_add(max_cycles);
        self.run_to(u64::MAX, deadline)
            .unwrap_or(CoSimEnd::OutOfCycles)
    }

    /// The one stepping loop: advance until core 0 has retired `target`
    /// instructions in total (`None`), every hart halts, DiffTest
    /// diverges, or `deadline` (an absolute cycle) arrives. A target met
    /// on the very cycle the deadline arrives still counts as met; a halt
    /// on that cycle reports `OutOfCycles`. Inside [`within_deadline`] the
    /// loop also ends as `OutOfCycles` once the wall-clock stop has
    /// passed (read every [`DEADLINE_POLL`] iterations).
    fn run_to(&mut self, target: u64, deadline: u64) -> Option<CoSimEnd> {
        if self.state.sys.cores[0].instret() >= target {
            return None;
        }
        let (stop, mut polls) = (STOP.get(), 0u32);
        while self.state.time() < deadline {
            if let Some(stop) = stop {
                polls = polls.wrapping_add(1);
                if polls % DEADLINE_POLL == 0 && Instant::now() >= stop {
                    return Some(CoSimEnd::OutOfCycles);
                }
            }
            if self.state.sys.all_halted() {
                return Some(CoSimEnd::Halted(
                    self.state.sys.cores[0].halted.unwrap_or(0),
                ));
            }
            if let Err(error) = self.step_cycle_until(deadline) {
                return Some(CoSimEnd::Bug(BugReport {
                    error,
                    at_cycle: self.state.time(),
                    at_commit: self.state.diff.commits_checked,
                }));
            }
            if self.state.sys.cores[0].instret() >= target {
                return None;
            }
        }
        Some(CoSimEnd::OutOfCycles)
    }

    /// Where to roll back to re-execute a failure (§III-C3, Fig. 5d): the
    /// older retained LightSSS snapshot, falling back to the reset state
    /// captured at boot when LightSSS is off or its first interval has
    /// not elapsed yet (no snapshot retained). Hand it to
    /// [`debug_window`] to replay the window in debug mode.
    pub fn rollback_point(&self) -> Salvage {
        match self.lightsss.as_ref().and_then(LightSss::oldest) {
            Some(snap) => Salvage {
                snapshot_cycle: snap.at,
                fallback_reset: false,
                state: snap.state.clone(),
            },
            None => Salvage {
                snapshot_cycle: 0,
                fallback_reset: true,
                state: (*self.reset).clone(),
            },
        }
    }

    /// The always-on lifecycle rings of every core, core order.
    fn lifecycle_ring(&self) -> Vec<xscore::Lifecycle> {
        let cores = self.state.sys.cores.iter();
        cores.flat_map(|c| c.lifecycle_ring()).collect()
    }
}

/// What re-executing a failure window in debug mode observed.
#[derive(Debug, Default)]
pub struct DebugWindow {
    /// The divergence that ended the window, if one struck.
    pub error: Option<DiffError>,
    /// The panic that ended the window (payload as text), if booting or
    /// stepping panicked.
    pub panic: Option<String>,
    /// Cycle the window ended at.
    pub at_cycle: u64,
    /// Commits DiffTest had verified when the window ended.
    pub at_commit: u64,
    /// CPI stack of the window alone (end minus start).
    pub window_cpi: xscore::CpiStack,
    /// Events captured in debug mode. Bounded: a runaway window keeps
    /// only the newest rows per table instead of growing without limit.
    pub trace: ArchDb,
    /// The lifecycle rings where the window ended.
    pub lifecycle_ring: Vec<xscore::Lifecycle>,
}

/// Re-execute a failure window: resume the state `start` yields (a
/// snapshot, or a fresh boot) with commit tracing on and run for up to
/// `budget` cycles, all inside a panic boundary — a window that panics
/// (even while booting) reports the message and whatever it had
/// captured. This is the only debug-mode run in the platform: a replay
/// from [`CoSim::rollback_point`] or [`RunStats::salvage`], and each of
/// the campaign's triage windows, end up here. (`start` is boxed, not
/// generic, for the reason given at [`run_isolated`].)
pub fn debug_window(start: Box<dyn FnOnce() -> CoSimState + '_>, budget: u64) -> DebugWindow {
    let mut booted = None;
    let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        // Debug mode: commit/drain tracing on, bounded trace, no snapshots.
        let cosim = CoSim::over(start(), ArchDb::bounded(REPLAY_TRACE_CAP), true);
        let start_cpi = crate::telemetry::PerfSnapshot::collect(&cosim.state.sys).cpi_stack();
        booted.insert((cosim, start_cpi)).0.run(budget)
    }));
    let (error, panic) = match ran {
        Ok(CoSimEnd::Bug(bug)) => (Some(bug.error), None),
        Ok(_) => (None, None),
        Err(payload) => (None, Some(panic_message(payload))),
    };
    let Some((cosim, start_cpi)) = booted else {
        return DebugWindow {
            panic,
            ..Default::default()
        };
    };
    let end_cpi = crate::telemetry::PerfSnapshot::collect(&cosim.state.sys).cpi_stack();
    DebugWindow {
        error,
        panic,
        at_cycle: cosim.state.time(),
        at_commit: cosim.state.diff.commits_checked,
        window_cpi: end_cpi.saturating_sub(&start_cpi),
        lifecycle_ring: cosim.lifecycle_ring(),
        trace: cosim.archdb,
    }
}

/// Run `f` under a wall-clock deadline: the twin of
/// [`run_isolated`]'s panic boundary. Every stepping loop `f` enters
/// on this thread — a run, a minimizer candidate, a debug window — ends as `OutOfCycles` once `stop` has passed. Returns
/// `None` when `f` finished at or after `stop`, so nothing a cut-short
/// loop computed escapes: the deadline can discard a result, never change
/// one.
pub fn within_deadline<T>(stop: Instant, f: impl FnOnce() -> T) -> Option<T> {
    /// Puts the enclosing stop back, also when `f` unwinds.
    struct Restore(Option<Instant>);
    impl Drop for Restore {
        fn drop(&mut self) {
            STOP.set(self.0);
        }
    }
    let _outer = Restore(STOP.replace(Some(stop)));
    let out = f();
    (Instant::now() < stop).then_some(out)
}

/// Render a caught panic payload as text.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic with non-string payload".into())
}

/// The measured detail window of a checkpoint sample run (pure integers,
/// so the numbers can live in a deterministic report body).
#[derive(Debug, Clone)]
pub struct SampleWindowStats {
    /// Cycles the warm-up phase consumed.
    pub warmup_cycles: u64,
    /// Instructions the warm-up phase retired.
    pub warmup_instret: u64,
    /// Cycles of the measured window.
    pub window_cycles: u64,
    /// Instructions retired inside the measured window.
    pub window_instret: u64,
    /// CPI stack of the measured window alone (end minus warm-up end) —
    /// its components sum to `window_cycles × commit_width`, same
    /// identity as a whole-run stack.
    pub cpi: xscore::CpiStack,
    /// True when the full window retired — the normal outcome. The
    /// harness then stops a program that is still live, which
    /// [`RunStats::end`] can only spell `OutOfCycles`; read this flag
    /// first. False when the program halted, the cycle budget ran out or
    /// DiffTest diverged before the window filled (whatever part of it
    /// did retire was still measured).
    pub completed: bool,
}

/// Outcome and summary statistics of one isolated co-simulation run.
#[derive(Debug)]
pub struct RunStats {
    /// Why the run ended.
    pub end: CoSimEnd,
    /// Cycles simulated.
    pub cycles: u64,
    /// Commits DiffTest verified.
    pub commits_checked: u64,
    /// Instructions retired, summed over harts.
    pub instret: u64,
    /// Architectural exceptions taken, summed over harts.
    pub exceptions: u64,
    /// Diff-rule applications (rule name → count), sorted by name.
    pub rule_counts: Vec<(String, u64)>,
    /// Unified cross-layer performance snapshot at the end of the run.
    pub perf: crate::telemetry::PerfSnapshot,
    /// Coverage map of the run (`Some` only under `RunKnobs::coverage`).
    pub coverage: Option<crate::coverage::CoverageMap>,
    /// The always-on lifecycle ring: the last
    /// [`xscore::LIFECYCLE_RING_CAP`] finished uops per core (core order),
    /// snapshotted at the end of the run for crash triage.
    pub lifecycle_ring: Vec<xscore::Lifecycle>,
    /// The measured window (`Some` exactly when the run was given a
    /// warm-up/window pair).
    pub window: Option<SampleWindowStats>,
    /// The run's [`CoSim::rollback_point`], kept when the run failed: on
    /// every divergence and every cycle budget that ran out (`None` for a
    /// halt or a filled sample window).
    pub salvage: Option<Salvage>,
}

/// A rollback start point, kept past the end of its run so the failure
/// window can be re-executed ([`debug_window`]) after the isolated run
/// has already torn the harness down.
pub struct Salvage {
    /// Cycle of the salvaged state (0 for the reset fallback).
    pub snapshot_cycle: u64,
    /// True when no snapshot had been retained and the reset state was
    /// salvaged instead.
    pub fallback_reset: bool,
    /// The rollback state itself (COW clone — cheap).
    pub state: CoSimState,
}

impl std::fmt::Debug for Salvage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Salvage")
            .field("snapshot_cycle", &self.snapshot_cycle)
            .field("fallback_reset", &self.fallback_reset)
            .finish()
    }
}

/// Construct and run a co-simulation inside a panic boundary.
///
/// A campaign worker must survive a crashing job: `boot` — which builds
/// the program or derives the checkpoint, and constructs the harness —
/// runs inside the boundary together with the simulation, so any panic
/// raised along the way is caught and returned as its message instead of
/// unwinding into the worker's pool, and no partially-unwound state
/// leaks out.
///
/// With `sample = Some((warmup, window))` the run is the per-checkpoint
/// half of the paper's §III-D3 sampled-performance flow: retire `warmup`
/// instructions to warm caches, TLBs and predictors (they start cold at
/// a restore), then measure a `window`-instruction detail window and
/// stop. DiffTest verifies every commit of both phases, and a failure
/// keeps its rollback point exactly as a plain run's does.
///
/// `boot` is boxed rather than generic on purpose: this body clones and
/// tears down whole [`CoSimState`]s, and one copy of it per calling
/// closure is tens of kilobytes of text for one allocation saved.
///
/// # Errors
///
/// The panic payload (as text) if booting or simulating panicked.
pub fn run_isolated(
    boot: Box<dyn FnOnce() -> CoSim + '_>,
    sample: Option<(u64, u64)>,
    max_cycles: u64,
    lightsss_interval: Option<u64>,
) -> Result<RunStats, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        let mut cosim = boot();
        if let Some(iv) = lightsss_interval {
            cosim = cosim.with_lightsss(iv);
        }
        let deadline = cosim.state.time().saturating_add(max_cycles);
        let cpi_now = |c: &CoSim| crate::telemetry::PerfSnapshot::collect(&c.state.sys).cpi_stack();
        let mut window = None;
        let end = match sample {
            None => cosim.run_to(u64::MAX, deadline),
            Some((warmup, len)) => {
                // The window phase is skipped if warm-up already ended
                // the run.
                let warm_end = cosim.run_to(warmup, deadline);
                let (warmup_cycles, warmup_instret) =
                    (cosim.state.time(), cosim.state.sys.cores[0].instret());
                let warm_cpi = cpi_now(&cosim);
                let end = warm_end.or_else(|| cosim.run_to(warmup.saturating_add(len), deadline));
                let instret = cosim.state.sys.cores[0].instret();
                window = Some(SampleWindowStats {
                    warmup_cycles,
                    warmup_instret,
                    window_cycles: cosim.state.time().saturating_sub(warmup_cycles),
                    window_instret: instret.saturating_sub(warmup_instret),
                    cpi: cpi_now(&cosim).saturating_sub(&warm_cpi),
                    completed: end.is_none(),
                });
                end
            }
        };
        let completed = end.is_none();
        let end = end.unwrap_or(CoSimEnd::OutOfCycles);
        let failed = !completed && !matches!(end, CoSimEnd::Halted(_));
        let salvage = failed.then(|| cosim.rollback_point());
        let mut rule_counts: Vec<(String, u64)> = cosim
            .state
            .diff
            .stats
            .all()
            .iter()
            .map(|(k, &v)| (k.clone(), v))
            .collect();
        rule_counts.sort();
        let perf = crate::telemetry::PerfSnapshot::collect(&cosim.state.sys);
        let coverage = cosim.state.diff.coverage.as_ref().map(|commit| {
            crate::coverage::CoverageMap::from_run(commit, &cosim.state.diff.stats, &perf)
        });
        RunStats {
            cycles: cosim.state.time(),
            commits_checked: cosim.state.diff.commits_checked,
            instret: cosim.state.sys.cores.iter().map(|c| c.instret()).sum(),
            exceptions: cosim.state.sys.cores.iter().map(|c| c.perf.exceptions).sum(),
            rule_counts,
            perf,
            coverage,
            lifecycle_ring: cosim.lifecycle_ring(),
            window,
            salvage,
            end,
        }
    }))
    .map_err(panic_message)
}

// The campaign runner shards CoSims across a worker pool, so the whole
// harness must cross thread boundaries.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<CoSim>();
    assert_send::<RunStats>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use riscv_isa::asm::{reg::*, Asm};

    fn tiny_cfg(cores: usize) -> XsConfig {
        let mut c = XsConfig::nh();
        c.cores = cores;
        c.l1i = uncore::CacheConfig::new("l1i", 8192, 2, 2, 4);
        c.l1d = uncore::CacheConfig::new("l1d", 8192, 2, 4, 8);
        c.l2 = uncore::CacheConfig::new("l2", 32768, 4, 10, 8);
        c.l3 = Some(uncore::CacheConfig::new("l3", 131072, 4, 20, 16));
        c.memory = xscore::MemoryModel::FixedAmat(40);
        c
    }

    fn branchy_program() -> Program {
        let mut a = Asm::new(0x8000_0000);
        a.li(S0, 0);
        a.li(S1, 4000);
        a.li(A0, 0);
        a.li(S2, 0x9e3779b97f4a7c15u64 as i64);
        let top = a.bound_label();
        let skip = a.label();
        a.mul(T0, S0, S2);
        a.srli(T1, T0, 33);
        a.andi(T1, T1, 1);
        a.beqz(T1, skip);
        a.xor(A0, A0, T0);
        a.bind(skip);
        a.addi(S0, S0, 1);
        a.bne(S0, S1, top);
        a.andi(A0, A0, 0xff);
        a.li(T5, 0x8002_0000);
        a.sd(A0, 0, T5);
        a.ld(A0, 0, T5);
        a.ebreak();
        let p = a.assemble();
        p
    }

    #[test]
    fn clean_run_verifies_every_commit() {
        let mut cosim = CoSim::new(tiny_cfg(1), &branchy_program());
        match cosim.run(500_000) {
            CoSimEnd::Halted(_) => {}
            other => panic!("{other:?}"),
        }
        assert!(cosim.state.diff.commits_checked > 2_000);
    }

    /// Re-execute `bug`'s failure window in debug mode from the
    /// harness's rollback point: `(from cycle, reset fallback, window)`.
    fn replay(cosim: &CoSim, bug: &BugReport) -> (u64, bool, DebugWindow) {
        let from = cosim.rollback_point();
        let (cycle, reset) = (from.snapshot_cycle, from.fallback_reset);
        let budget = bug.at_cycle - cycle + 10_000;
        (cycle, reset, debug_window(Box::new(move || from.state), budget))
    }

    #[test]
    fn injected_wrong_value_is_caught_and_replayed() {
        let mut cosim =
            CoSim::new(tiny_cfg(1), &branchy_program()).with_lightsss(2_000);
        // Inject a DUT fault mid-run: corrupt the REF-invisible path by
        // flipping a bit in the DUT's architectural result. We simulate a
        // logic bug by corrupting the DUT's memory under it.
        let mut bug_armed = true;
        let mut end = None;
        for _ in 0..500_000 {
            if cosim.state.sys.all_halted() {
                end = Some(CoSimEnd::Halted(0));
                break;
            }
            if bug_armed && cosim.state.sys.cores[0].instret() >= 8_000 {
                // Inject a logic fault: corrupt the hash constant held in
                // s2. Every later multiplication commits a wrong value.
                cosim.state.sys.cores[0].inject_fault_gpr(18, 1 << 17);
                bug_armed = false;
            }
            if let bug @ CoSimEnd::Bug(_) = cosim.run(1) {
                end = Some(bug);
                break;
            }
        }
        match end.expect("simulation ended") {
            CoSimEnd::Bug(report) => {
                assert!(matches!(report.error, DiffError::Writeback { .. }));
                let (from_cycle, fallback_reset, window) = replay(&cosim, &report);
                assert!(from_cycle <= report.at_cycle);
                assert!(!fallback_reset, "snapshots were retained");
                assert!(
                    report.at_cycle - from_cycle <= 2 * 2_000 + 2_000,
                    "replay window bounded"
                );
                // Debug-mode trace captured commit events around the bug.
                assert!(!window.trace.instr_commit.is_empty());
                // The replayed window did real work: its CPI stack is live.
                assert!(window.window_cpi.total() > 0);
            }
            other => panic!("expected a bug, got {other:?}"),
        }
    }

    #[test]
    fn divergence_before_first_snapshot_replays_from_reset() {
        // Regression (ISSUE 3 satellite): an interval larger than the
        // failure cycle leaves LightSSS with zero retained snapshots; the
        // replay must fall back to the reset state, not unwrap `oldest()`.
        // The very first committed instruction is a corrupted Mul, so the
        // co-sim diverges in cycle 1 of a fresh harness.
        let mut a = Asm::new(0x8000_0000);
        a.mul(A0, S0, S1);
        a.ebreak();
        let program = a.assemble();
        let mut cfg = tiny_cfg(1);
        cfg.run.injected_bug = Some(xscore::InjectedBug::MulLowBit);
        let mut cosim = CoSim::new(cfg, &program).with_lightsss(1 << 40);
        let end = cosim.run(500_000);
        let CoSimEnd::Bug(report) = end else {
            panic!("expected an immediate divergence, got {end:?}");
        };
        assert_eq!(report.at_commit, 1, "first commit diverges");
        assert_eq!(cosim.lightsss.as_ref().unwrap().retained(), 0);
        let (from_cycle, fallback_reset, window) = replay(&cosim, &report);
        assert!(fallback_reset, "reset-state fallback taken");
        assert_eq!(from_cycle, 0);
        assert_eq!(window.error, Some(report.error), "reset replay reproduces the divergence");
        assert_eq!(window.at_commit, report.at_commit);
    }

    #[test]
    fn a_snapshot_replay_under_the_default_ref_reproduces_the_divergence() {
        // 3 000 clean iterations, then the one `mul` the injected bug
        // corrupts: the divergence strikes long after the first snapshot.
        let mut a = Asm::new(0x8000_0000);
        a.li(S0, 0);
        a.li(S1, 3_000);
        let top = a.bound_label();
        a.addi(S0, S0, 1);
        a.bne(S0, S1, top);
        a.mul(A0, S0, S1);
        a.ebreak();
        let mut cfg = tiny_cfg(1);
        cfg.run.injected_bug = Some(xscore::InjectedBug::MulLowBit);
        let mut cosim = CoSim::new(cfg, &a.assemble()).with_lightsss(500);
        let r = cosim.state.diff.reference(0);
        assert!(matches!(r, AnyRef::Registry(i) if i.name() == DEFAULT_REF_NAME));
        let CoSimEnd::Bug(report) = cosim.run(500_000) else {
            panic!("the corrupted mul must diverge");
        };
        let (_, fallback_reset, window) = replay(&cosim, &report);
        assert!(!fallback_reset, "restored from a snapshot");
        assert_eq!(window.error.as_ref(), Some(&report.error), "{:?}", report.error);
        assert_eq!(window.at_commit, report.at_commit);
        assert!(!window.trace.instr_commit.is_empty());
    }

    #[test]
    fn isolated_run_matches_direct_run() {
        let boot = Box::new(|| CoSim::new(tiny_cfg(1), &branchy_program()));
        let stats = run_isolated(boot, None, 500_000, None).expect("no panic");
        assert!(matches!(stats.end, CoSimEnd::Halted(_)));
        assert!(stats.commits_checked > 2_000);
        assert!(stats.instret > 0 && stats.cycles > 0);
    }

    #[test]
    fn isolated_run_catches_panics() {
        // An empty program image makes the frontend fetch unmapped
        // memory; whatever panic that raises must be contained.
        let bogus = Program {
            base: 0x8000_0000,
            entry: 0x8000_0000,
            bytes: Vec::new(),
        };
        let r = run_isolated(Box::new(|| CoSim::new(tiny_cfg(1), &bogus)), None, 10_000, None);
        if let Err(msg) = r {
            assert!(!msg.is_empty());
        }
        // Either outcome is fine — the contract is only that a panic
        // never unwinds through `run_isolated`.
    }

    /// Run the architectural stepper to an arbitrary boundary and hand
    /// back the state + memory a checkpoint would carry.
    fn profile_to(program: &Program, insts: u64) -> (riscv_isa::state::ArchState, SparseMemory) {
        let mut mem = SparseMemory::new();
        program.load_into(&mut mem);
        let mut hart = nemu::hart::Hart::new(program.entry, 0);
        for _ in 0..insts {
            assert!(!hart.is_halted(), "boundary must precede the halt");
            nemu::hart::step(&mut hart, &mut mem);
        }
        (hart.state.clone(), mem)
    }

    /// Resume `program` from `insts` instructions in and sample a
    /// `(warmup, window)` pair.
    fn sample_from(cfg: XsConfig, insts: u64, sample: (u64, u64)) -> RunStats {
        let (state, mem) = profile_to(&branchy_program(), insts);
        let boot = Box::new(|| CoSim::from_checkpoint(cfg, &state, &mem));
        run_isolated(boot, Some(sample), 500_000, None).expect("no panic")
    }

    #[test]
    fn checkpoint_resume_measures_a_verified_window() {
        let stats = sample_from(tiny_cfg(1), 5_000, (1_000, 2_000));
        let window = stats.window.expect("sample runs report a window");
        assert!(window.completed, "{:?}", stats.end);
        assert!(
            stats.salvage.is_none(),
            "window completion salvages nothing"
        );
        // Both phases hit their instruction targets (modulo event-driven
        // overshoot) and every commit was verified against the REF.
        assert!(window.warmup_instret >= 1_000);
        assert!(window.window_instret >= 2_000);
        assert_eq!(stats.instret, window.warmup_instret + window.window_instret);
        assert!(stats.commits_checked >= stats.instret);
        // The window CPI stack obeys the same identity as a full run's.
        assert_eq!(
            window.cpi.total(),
            window.window_cycles * stats.perf.commit_width,
            "window CPI stack must account for every window slot"
        );
    }

    #[test]
    fn checkpoint_resume_catches_injected_bugs() {
        // The restored REF must keep verifying commits: a DUT corrupted
        // after the restore diverges inside the sample run.
        let mut cfg = tiny_cfg(1);
        cfg.run.injected_bug = Some(xscore::InjectedBug::MulLowBit);
        // Sampled windows check against the same REF as full runs.
        let (state, mem) = profile_to(&branchy_program(), 3_000);
        let restored = CoSim::from_checkpoint(cfg.clone(), &state, &mem);
        let r = restored.state.diff.reference(0);
        assert!(matches!(r, AnyRef::Registry(i) if i.name() == DEFAULT_REF_NAME));
        let stats = sample_from(cfg, 3_000, (500, 2_000));
        assert!(
            matches!(stats.end, CoSimEnd::Bug(_)),
            "expected a divergence, got {:?}",
            stats.end
        );
        assert!(!stats.window.expect("window").completed);
        assert!(stats.salvage.is_some(), "a divergence keeps its rollback point");
    }

    #[test]
    fn checkpoint_resume_halts_cleanly_past_the_end() {
        // A window larger than the remaining program: the run halts and
        // reports the partial window instead of spinning.
        let stats = sample_from(tiny_cfg(1), 15_000, (1_000, 100_000_000));
        assert!(matches!(stats.end, CoSimEnd::Halted(_)), "{:?}", stats.end);
        let window = stats.window.expect("window");
        assert!(!window.completed);
        assert!(window.window_instret > 0, "partial window measured");
    }

    #[test]
    fn a_panicking_boot_is_contained() {
        // Whatever `boot` does — build a program, derive a checkpoint —
        // runs inside the boundary.
        let r = run_isolated(Box::new(|| panic!("no such workload")), None, 1_000, None);
        assert_eq!(r.unwrap_err(), "no such workload");
        let w = debug_window(Box::new(|| panic!("no such workload")), 1_000);
        assert_eq!(w.panic.as_deref(), Some("no such workload"));
        assert_eq!((w.at_cycle, w.at_commit), (0, 0));
    }

    #[test]
    fn a_passed_deadline_stops_the_loop_and_discards_its_result() {
        let mut cosim = CoSim::new(tiny_cfg(1), &branchy_program());
        let end = within_deadline(Instant::now(), || cosim.run(500_000));
        assert!(end.is_none(), "a result finished past the stop is discarded");
        assert!(!cosim.state.sys.all_halted(), "the loop stopped at its first poll");
        // The stop ends with its boundary: the same harness now runs on.
        assert!(matches!(cosim.run(500_000), CoSimEnd::Halted(_)));
        let far = Instant::now() + std::time::Duration::from_secs(3600);
        let boot = Box::new(|| CoSim::new(tiny_cfg(1), &branchy_program()));
        let run = || run_isolated(boot, None, 500_000, None);
        let stats = within_deadline(far, run).expect("in time").expect("no panic");
        assert!(matches!(stats.end, CoSimEnd::Halted(_)));
    }

    #[test]
    fn snapshots_track_simulation() {
        let mut cosim = CoSim::new(tiny_cfg(1), &branchy_program()).with_lightsss(500);
        let _ = cosim.run(100_000);
        let l = cosim.lightsss.as_ref().unwrap();
        assert!(l.taken >= 2);
        assert!(l.retained() <= 2);
    }
}
