//! The cycle-level core pipeline: decoupled frontend, rename with move
//! elimination, distributed issue, out-of-order execution with full
//! misspeculation recovery, and in-order commit with probes.
//!
//! The model follows Fig. 10 of the paper at stage granularity. Each
//! stage lives in a module of its own and owns the state only it mutates
//! ([`Frontend`], [`Rename`], [`Exec`], [`LsuIssue`], [`Commit`],
//! [`Atomics`]); the structures several stages touch stay on [`Core`]
//! and are lent to them as a [`Shared`] for the length of one tick.
//! Stages are evaluated back-to-front each cycle so results latch one
//! cycle later, and every speculative structure (RAT, RAS, global
//! history, LQ/SQ, issue queues) recovers precisely on redirects. A
//! stage never flushes the pipeline itself: it returns a [`Redirect`],
//! which [`Core::tick_into`] applies where the stage stood in the cycle.

use crate::atomics::{AtomicEnd, Atomics};
use crate::bpu::Bpu;
use crate::commit::{Commit, CommitEnd};
use crate::config::XsConfig;
use crate::exec::Exec;
use crate::frontend::Frontend;
use crate::issue::{ConfTable, IssueQueue};
use crate::lifecycle::{Lifecycle, LifecycleRing, SquashCause, LIFECYCLE_RING_CAP};
use crate::lsu::Lsu;
use crate::lsu_issue::{LsuIssue, MemReqKind};
use crate::perf::{CpiStack, PerfCounters};
use crate::prf::{Prf, Regs, WAIT_QUEUES};
use crate::rename::Rename;
use crate::rob::{Rob, RobIdx, RobState, RobTag};
use crate::tlbs::{CoreMmu, MmuResult};
use crate::uop::{CommitEvent, SbufferDrainEvent};
use riscv_isa::csr::CsrFile;
use riscv_isa::mem::PhysMem;
use riscv_isa::mmu::AccessType;
use riscv_isa::op::FuClass;
use riscv_isa::state::ArchState;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use uncore::{Completion, MemSystem};

/// A coherent view over the memory system for the PTW and fetch
/// translation: reads see the freshest committed data anywhere in the
/// hierarchy, but *not* the store buffer — the Fig. 3 window.
struct CoherentView<'a>(&'a mut MemSystem);

impl PhysMem for CoherentView<'_> {
    fn read(&mut self, addr: u64, buf: &mut [u8]) {
        let mut off = 0;
        while off < buf.len() {
            // saturating: `off` can never exceed `buf.len()` here, but an
            // end-of-segment straddle must clamp rather than wrap to a
            // huge span if the loop condition ever changes.
            let n =
                (8 - (addr + off as u64) % 8).min(buf.len().saturating_sub(off) as u64) as usize;
            let v = self.0.coherent_read(addr + off as u64, n as u64);
            buf[off..off + n].copy_from_slice(&v.to_le_bytes()[..n]);
            off += n;
        }
    }
    fn write(&mut self, addr: u64, buf: &[u8]) {
        // A/D-bit updates by the walker go straight to backing memory
        // (page-table lines are not kept dirty in caches by this model).
        self.0.backing_mut().write(addr, buf);
    }
}

/// Min-heap of future cycles at which this core has scheduled work:
/// store-buffer drain deadlines and fetch-stall expiries (the stages'
/// own queues are folded in by `next_event_cycle`). Entries may be stale
/// — an early wakeup just runs one provable no-op tick, charged exactly
/// like a skipped cycle, so correctness never depends on precision.
#[derive(Debug, Clone, Default)]
pub(crate) struct EventQueue(BinaryHeap<Reverse<u64>>);

impl EventQueue {
    pub(crate) fn push(&mut self, at: u64) {
        self.0.push(Reverse(at));
    }

    /// Earliest scheduled cycle strictly after `now`; entries at or
    /// before `now` are spent and dropped.
    fn next_after(&mut self, now: u64) -> Option<u64> {
        while let Some(&Reverse(at)) = self.0.peek() {
            if at > now {
                return Some(at);
            }
            self.0.pop();
        }
        None
    }
}

/// Whether a stage's tick changed anything: it consumed an input,
/// changed a queue or latch it owns, or called a memory port. A tick in
/// which every stage reports `false` is a provable no-op that repeats
/// identically until the next scheduled event lands. Each stage decides
/// this once, where it looks at its inputs.
#[must_use = "a dropped progress report lets the skipper jump over a cycle of real work"]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Progress(pub bool);

impl std::ops::BitOrAssign for Progress {
    fn bitor_assign(&mut self, rhs: Progress) {
        self.0 |= rhs.0;
    }
}

/// A stage's request to squash younger uops and restart fetch.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Redirect {
    /// The youngest uop that survives; `None` empties the ROB and rename
    /// restarts from the architectural RATs.
    pub after: Option<RobIdx>,
    /// Sequence number of the uop that raised it.
    pub seq: u64,
    pub new_pc: u64,
    pub cause: SquashCause,
}

/// What a stage may touch besides its own state: the structures of
/// [`Core`] that more than one stage uses, the memory system's ports and
/// the cycle's output buffer, lent out for one tick.
pub(crate) struct Shared<'a> {
    pub mem: &'a mut MemSystem,
    pub out: &'a mut CycleOutput,
    pub cfg: &'a XsConfig,
    pub hart: usize,
    /// The cycle being simulated.
    pub cycle: u64,
    pub csr: &'a mut CsrFile,
    pub rob: &'a mut Rob,
    pub regs: &'a mut Regs,
    /// Load queue, store queue and store buffer.
    pub lsq: &'a mut Lsu,
    pub mmu: &'a mut CoreMmu,
    pub bpu: &'a mut Bpu,
    /// PUBS branch-confidence table: read at rename, trained at commit.
    pub pubs_conf: &'a mut ConfTable,
    pub perf: &'a mut PerfCounters,
    pub events: &'a mut EventQueue,
    pub halted: &'a mut Option<u64>,
    pub output: &'a mut Vec<u8>,
    life_ring: &'a mut LifecycleRing,
    life_trace: &'a mut Vec<Lifecycle>,
}

impl Shared<'_> {
    /// Translate `va` through this core's MMU, walking page tables in
    /// the coherent view of memory on a miss.
    pub(crate) fn translate(&mut self, va: u64, access: AccessType) -> MmuResult {
        self.mmu
            .translate(&mut CoherentView(self.mem), self.csr, va, access)
    }

    /// Move a selected (or replayed) uop from `Waiting` to `Issued`.
    pub(crate) fn mark_issued(&mut self, tag: RobTag) {
        debug_assert!(
            self.rob.live(tag),
            "issue-queue entry outlived its ROB slot"
        );
        let e = self.rob.hot_mut(tag.idx);
        debug_assert_eq!(e.state, RobState::Waiting, "stale IQ entry picked");
        e.state = RobState::Issued;
        self.rob.cold_mut(tag.idx).life.issued = self.cycle;
    }

    /// Report a store entering the cache hierarchy this cycle.
    pub(crate) fn emit_drain(&mut self, paddr: u64, size: u64, data: u64) {
        self.perf.sbuffer_drains += 1;
        self.out.drains.push(SbufferDrainEvent {
            hart: self.hart,
            paddr,
            size,
            data,
            cycle: self.cycle,
        });
    }

    /// The lifecycle record of the uop in `idx` as it stands.
    fn lifecycle_record(&self, idx: RobIdx) -> Lifecycle {
        let c = self.rob.cold(idx);
        Lifecycle {
            hart: self.hart as u64,
            seq: self.rob.hot(idx).seq,
            pc: c.uop.pc,
            inst: c.uop.inst.raw,
            fused: c.uop.fused.is_some(),
            mem: c.uop.inst.is_load() || c.uop.inst.is_store(),
            stamps: c.life,
            committed: 0,
            squashed_at: 0,
            cause: None,
        }
    }

    fn record_lifecycle(&mut self, rec: Lifecycle) {
        self.life_ring.push(rec);
        if self.cfg.run.lifecycle {
            self.life_trace.push(rec);
        }
    }

    /// Finalize a committed uop's lifecycle record. Stamps a stage never
    /// passed through individually (commit-time execution, eliminated
    /// moves) inherit the commit cycle so retired records stay monotone.
    #[inline]
    pub(crate) fn finalize_retired(&mut self, idx: RobIdx) {
        let mut rec = self.lifecycle_record(idx);
        let s = &mut rec.stamps;
        if s.fetched == 0 {
            s.fetched = s.renamed;
        }
        if s.decoded == 0 {
            s.decoded = s.fetched;
        }
        if s.issued == 0 {
            s.issued = self.cycle;
        }
        if s.executed == 0 {
            s.executed = self.cycle;
        }
        if s.writeback == 0 {
            s.writeback = self.cycle;
        }
        rec.committed = self.cycle;
        self.perf.lifecycle.observe_retired(&rec);
        self.record_lifecycle(rec);
    }

    /// Finalize a squashed uop's lifecycle record (stamps are left as-is
    /// to show how far the uop got before the flush).
    fn finalize_squashed(&mut self, idx: RobIdx, cause: SquashCause) {
        let mut rec = self.lifecycle_record(idx);
        rec.squashed_at = self.cycle;
        rec.cause = Some(cause);
        self.perf.lifecycle.observe_squashed(&rec, cause);
        self.record_lifecycle(rec);
    }
}

/// Picks the CPI-stack component idle commit slots are charged to.
type IdleCause = fn(&mut CpiStack) -> &mut u64;

/// Output of one core cycle.
#[derive(Debug, Default, Clone)]
pub struct CycleOutput {
    /// Instructions committed this cycle (probe events).
    pub commits: Vec<CommitEvent>,
    /// Stores that entered the cache hierarchy this cycle.
    pub drains: Vec<SbufferDrainEvent>,
    /// Atomic writes (`paddr`, `size`) that linearized this cycle: an SC
    /// that decided success or an AMO whose store value was computed.
    /// The system applies these to every *other* hart's reservation in
    /// the same cycle — a remote SC deciding any later must fail. The
    /// drain-completion snoop alone fires a full memory round-trip after
    /// the decision, leaving a window where two harts' SCs both succeed
    /// from the same loaded value (a lost update).
    pub res_kills: Vec<(u64, u64)>,
}

/// The pipeline stages, each owning the state only it mutates.
#[derive(Debug, Clone)]
pub(crate) struct Stages {
    pub frontend: Frontend,
    pub rename: Rename,
    pub exec: Exec,
    pub lsu: LsuIssue,
    pub commit: Commit,
    pub atomics: Atomics,
}

impl Stages {
    /// Squash every uop younger than `seq` — the ROB entries past the
    /// `keep` oldest — out of every structure that holds a handle to one.
    fn squash_younger(&mut self, sh: &mut Shared, seq: u64, keep: usize, cause: SquashCause) {
        for k in keep..sh.rob.len() {
            let idx = sh.rob.nth(k);
            let e = sh.rob.hot(idx);
            if e.has_dest {
                let (fp, p) = (e.dest_fp, e.phys_rd);
                sh.regs.prf(fp).release(p);
            }
            sh.finalize_squashed(idx, cause);
        }
        sh.rob.truncate(keep);
        for iq in &mut sh.regs.iqs {
            iq.flush_after(seq, &mut sh.regs.int, &mut sh.regs.fp);
        }
        self.exec.squash(seq);
        self.lsu.squash(seq);
        sh.lsq.flush_after(seq);
        self.rename.pubs_def.clear();
    }

    /// Apply a stage's redirect: squash, restore the rename maps, open
    /// the CPI-stack recovery window (closed by the first commit past
    /// `r.seq`) and restart fetch.
    fn redirect(&mut self, sh: &mut Shared, r: Redirect) {
        match r.cause {
            SquashCause::Mispredict => sh.perf.flushes_mispredict += 1,
            SquashCause::MemOrderViolation => sh.perf.flushes_violation += 1,
            SquashCause::Serialize | SquashCause::Exception => sh.perf.flushes_system += 1,
        }
        self.commit.recovery = Some((r.cause, r.seq));
        let bubble = if let Some(idx) = r.after {
            let keep = sh.rob.rank(idx) + 1;
            self.squash_younger(sh, r.seq, keep, r.cause);
            (self.rename.rat_int, self.rename.rat_fp) = sh.rob.cold(idx).rat_snapshot;
            2
        } else {
            self.squash_younger(sh, 0, 0, r.cause);
            self.rename.rat_int = self.commit.arat_int;
            self.rename.rat_fp = self.commit.arat_fp;
            3
        };
        self.frontend.redirect(sh, r.new_pc, bubble);
    }

    /// Route one memory completion to the stage that issued the request.
    fn complete(&mut self, sh: &mut Shared, c: &Completion) {
        if self.frontend.fetch_done(sh, c) {
            return;
        }
        let end = match self.lsu.complete(sh, c) {
            Some(MemReqKind::AtomicLoad) => self.atomics.loaded(sh, &mut self.lsu.inflight, c.data),
            Some(MemReqKind::AtomicStore) => self.atomics.stored(sh),
            _ => None,
        };
        self.finish_atomic(sh, end);
    }

    /// Retire (or fault) the atomic whose memory side just ended.
    fn finish_atomic(&mut self, sh: &mut Shared, end: Option<AtomicEnd>) {
        if let Some(end) = end {
            let r = self.commit.retire_atomic(sh, end);
            self.redirect(sh, r);
        }
    }

    /// The commit slot of the cycle: the commit stage, or the atomics
    /// unit while it holds the ROB head (from the cycle commit hands over).
    fn commit(&mut self, sh: &mut Shared) -> Progress {
        let mut progress = Progress(false);
        if !self.atomics.busy() {
            let (p, end) = self.commit.tick(sh);
            progress |= p;
            match end {
                Some(CommitEnd::Redirect(r)) => self.redirect(sh, r),
                Some(CommitEnd::Atomic) => self.atomics.begin(),
                None => {}
            }
        }
        if self.atomics.busy() {
            let (p, end) = self.atomics.tick(sh, &mut self.lsu.inflight);
            progress |= p;
            self.finish_atomic(sh, end);
        }
        progress
    }
}

/// One XiangShan-style core.
#[derive(Debug, Clone)]
pub struct Core {
    /// Configuration.
    pub cfg: XsConfig,
    hart: usize,
    cycle: u64,
    /// Control and status registers (architectural).
    pub csr: CsrFile,
    rob: Rob,
    regs: Regs,
    lsq: Lsu,
    /// The MMU (public for scenario tests).
    pub mmu: CoreMmu,
    /// The branch prediction unit.
    pub bpu: Bpu,
    pubs_conf: ConfTable,
    /// Performance counters.
    pub perf: PerfCounters,
    /// Scheduled future work, for idle-cycle skipping.
    events: EventQueue,
    /// Exit code once halted (ebreak convention).
    pub halted: Option<u64>,
    /// UART output bytes.
    pub output: Vec<u8>,
    // Lifecycle tracing: the last-N ring is always on; the full-trace
    // buffer only fills when `cfg.run.lifecycle` is set (drained by the
    // co-sim layer into ArchDB).
    life_ring: LifecycleRing,
    life_trace: Vec<Lifecycle>,
    stages: Stages,
    /// The OR of the stages' reports for the last tick.
    progressed: Progress,
}

// The issue queues live inline; beyond them the per-core footprint may
// not grow past what it was with heap-backed queues (LightSSS clones a
// core per snapshot, a campaign boots one per job).
const _: () =
    assert!(std::mem::size_of::<Core>() <= 4624 + WAIT_QUEUES * std::mem::size_of::<IssueQueue>());

impl Core {
    /// Create a core resetting to `boot_pc`.
    pub fn new(cfg: XsConfig, hart: usize, boot_pc: u64) -> Self {
        let mut int = Prf::new(cfg.int_prf);
        let mut fp = Prf::new(cfg.fp_prf);
        let rat_int = int.reset_rat();
        let rat_fp = fp.reset_rat();
        let iq_specs = [
            (FuClass::Alu, cfg.alu_iq_width),
            (FuClass::Alu, cfg.alu_iq_width),
            (FuClass::Mdu, 1),
            // Stores issue before loads within a cycle so a same-cycle
            // store/load pair forwards instead of racing.
            (FuClass::Store, cfg.store_units),
            (FuClass::Load, cfg.load_units),
            (FuClass::Fma, cfg.fma_units),
            (FuClass::Fmisc, 1),
        ];
        let iqs = std::array::from_fn(|i| {
            let (class, width) = iq_specs[i];
            IssueQueue::new(i, class, cfg.iq_entries, width, cfg.issue_policy)
        });
        Core {
            hart,
            cycle: 0,
            csr: CsrFile::new(hart as u64),
            rob: Rob::new(cfg.rob_entries),
            regs: Regs { int, fp, iqs },
            lsq: Lsu::new(cfg.lq_entries, cfg.sq_entries, cfg.sbuffer_entries),
            mmu: CoreMmu::new(
                cfg.itlb_entries,
                cfg.dtlb_entries,
                cfg.stlb_entries,
                3,
                cfg.ptw_level_latency,
            ),
            bpu: Bpu::new(
                cfg.ubtb_entries,
                cfg.btb_entries,
                cfg.tage_entries,
                cfg.ittage,
                cfg.ras_depth,
            ),
            pubs_conf: ConfTable::new(1024, 3),
            perf: PerfCounters::default(),
            events: EventQueue::default(),
            halted: None,
            output: Vec::new(),
            life_ring: LifecycleRing::new(LIFECYCLE_RING_CAP),
            life_trace: Vec::new(),
            stages: Stages {
                frontend: Frontend::new(boot_pc),
                rename: Rename {
                    rat_int,
                    rat_fp,
                    ..Default::default()
                },
                exec: Exec::default(),
                lsu: LsuIssue::default(),
                commit: Commit {
                    arat_int: rat_int,
                    arat_fp: rat_fp,
                    ..Default::default()
                },
                atomics: Atomics::default(),
            },
            progressed: Progress(false),
            cfg,
        }
    }

    /// Lend the shared structures out, next to the stages that use them.
    pub(crate) fn split<'a>(
        &'a mut self,
        mem: &'a mut MemSystem,
        out: &'a mut CycleOutput,
    ) -> (Shared<'a>, &'a mut Stages) {
        let sh = Shared {
            mem,
            out,
            cfg: &self.cfg,
            hart: self.hart,
            cycle: self.cycle,
            csr: &mut self.csr,
            rob: &mut self.rob,
            regs: &mut self.regs,
            lsq: &mut self.lsq,
            mmu: &mut self.mmu,
            bpu: &mut self.bpu,
            pubs_conf: &mut self.pubs_conf,
            perf: &mut self.perf,
            events: &mut self.events,
            halted: &mut self.halted,
            output: &mut self.output,
            life_ring: &mut self.life_ring,
            life_trace: &mut self.life_trace,
        };
        (sh, &mut self.stages)
    }

    /// Snapshot of the always-on ring of the most recently finalized
    /// lifecycle records (retired and squashed), oldest first.
    pub fn lifecycle_ring(&self) -> Vec<Lifecycle> {
        self.life_ring.snapshot()
    }

    /// Drain the full-trace lifecycle records accumulated since the last
    /// call (the buffer is kept for the next cycle's). Always empty unless
    /// `cfg.run.lifecycle` is enabled.
    pub fn take_lifecycle_trace(&mut self) -> std::vec::Drain<'_, Lifecycle> {
        self.life_trace.drain(..)
    }

    /// True once the core executed the halt convention (ebreak).
    pub fn is_halted(&self) -> bool {
        self.halted.is_some()
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Retired instruction count.
    pub fn instret(&self) -> u64 {
        self.stages.commit.instret
    }

    // ------------------------------------------------------------------
    // Architectural state bridging (checkpoints, DiffTest).
    // ------------------------------------------------------------------

    /// Project the committed architectural state (the `f_Pi` mapping of
    /// paper §III-A).
    pub fn arch_state(&self) -> ArchState {
        let commit = &self.stages.commit;
        // PC of the next instruction to commit (fetch PC when idle).
        let idle_pc = self.stages.frontend.fetch_pc;
        let pc = self.rob.head().map_or(idle_pc, |h| self.rob.cold(h).uop.pc);
        let mut s = ArchState::new(pc, self.hart as u64);
        for i in 1..32 {
            s.gpr[i] = self.regs.int.read(commit.arat_int[i]);
            s.fpr[i] = self.regs.fp.read(commit.arat_fp[i]);
        }
        s.fpr[0] = self.regs.fp.read(commit.arat_fp[0]);
        s.csr = self.csr.clone();
        s
    }

    /// Restore architectural state (checkpoint restore / boot).
    pub fn restore_arch_state(&mut self, s: &ArchState) {
        assert!(self.rob.is_empty(), "restore only into an idle core");
        let Stages {
            frontend,
            rename,
            commit,
            atomics,
            ..
        } = &mut self.stages;
        for i in 1..32 {
            self.regs.write(false, commit.arat_int[i], s.gpr[i]);
            self.regs.write(true, commit.arat_fp[i], s.fpr[i]);
        }
        // Reset leaves f0 mapped to the always-zero physical register,
        // which drops writes: f0 is an ordinary register, so give it a
        // real one before restoring its value.
        if commit.arat_fp[0] == Prf::ZERO {
            commit.arat_fp[0] = self
                .regs
                .fp
                .alloc()
                .expect("idle core has a free fp register");
        }
        self.regs.write(true, commit.arat_fp[0], s.fpr[0]);
        self.csr = s.csr.clone();
        frontend.fetch_pc = s.pc;
        rename.rat_int = commit.arat_int;
        rename.rat_fp = commit.arat_fp;
        // A reservation acquired before the restore (e.g. by a replayed
        // LR on the pre-rollback path) must not give a post-restore SC a
        // stale success window.
        atomics.clear_reservation();
        self.mmu.flush();
    }

    // ------------------------------------------------------------------
    // The cycle driver.
    // ------------------------------------------------------------------

    /// Advance one cycle, writing the outputs into a caller-owned buffer
    /// (cleared first). Reusing one buffer across cycles keeps the hot
    /// loop free of per-cycle heap churn — the commit/drain vectors keep
    /// their steady-state capacity.
    pub fn tick_into(
        &mut self,
        mem: &mut MemSystem,
        completions: &[Completion],
        out: &mut CycleOutput,
    ) {
        out.commits.clear();
        out.drains.clear();
        out.res_kills.clear();
        if self.is_halted() {
            // A halted core's tick is the idle cycle the skipper charges.
            return self.charge_idle_cycles(mem, 1);
        }
        self.cycle += 1;
        self.perf.cycles += 1;
        let (mut sh, st) = self.split(mem, out);
        let sh = &mut sh;
        // The stages, back to front. Even a completion for squashed work
        // consumed queue state.
        let mut progress = Progress(!completions.is_empty());
        for c in completions {
            st.complete(sh, c);
        }
        let (p, redirect) = st.exec.writeback(sh);
        progress |= p;
        if let Some(r) = redirect {
            st.redirect(sh, r);
        }
        progress |= st.commit(sh);
        progress |= st.lsu.tick(sh);
        progress |= st.exec.issue(sh);
        progress |= st.rename.tick(sh, &mut st.frontend.ibuf);
        progress |= st.frontend.tick(sh);
        progress |= st.lsu.drain(sh);
        self.progressed = progress;
        // Top-down CPI attribution: one slot per retired event, the rest
        // to the single dominant reason the commit stage idled.
        let width = self.cfg.commit_width as u64;
        let retired = (out.commits.len() as u64).min(width);
        self.perf.cpi.retired += retired;
        self.account(mem, 1, width - retired);
    }

    /// Close the books on `n` cycles ending now: the cycle CSRs,
    /// occupancy telemetry, and `idle_slots` commit slots charged to the
    /// dominant idle cause — so `cpi.total() == cycles * commit_width`
    /// holds by construction, ticked or skipped.
    fn account(&mut self, mem: &MemSystem, n: u64, idle_slots: u64) {
        self.csr.mcycle = self.cycle;
        self.csr.time = self.cycle;
        if self.cfg.run.telemetry {
            self.record_occupancies(mem, n);
        }
        if idle_slots > 0 {
            *self.idle_cause()(&mut self.perf.cpi) += idle_slots;
        }
    }

    /// The single dominant reason the commit stage idles this cycle,
    /// most specific first. Pure: reads the same state whether evaluated
    /// on a live tick or over a skipped idle span (where that state is
    /// provably frozen).
    fn idle_cause(&self) -> IdleCause {
        let rename = &self.stages.rename;
        // What rename was blocked on, if it was.
        let blocked: Option<IdleCause> = if rename.blocked_rob {
            Some(|c| &mut c.rob_full)
        } else if rename.blocked_iq {
            Some(|c| &mut c.iq_full)
        } else {
            None
        };
        if self.is_halted() {
            |c| &mut c.other
        } else if self.stages.atomics.busy() {
            // Atomic executing at the commit point.
            |c| &mut c.serialization
        } else if let Some((cause, _)) = self.stages.commit.recovery {
            match cause {
                SquashCause::Mispredict => |c| &mut c.mispredict_recovery,
                SquashCause::MemOrderViolation => |c| &mut c.memory_stall,
                SquashCause::Serialize | SquashCause::Exception => |c| &mut c.serialization,
            }
        } else if let Some(h) = self.rob.head() {
            let head = self.rob.hot(h);
            let done = head.state == RobState::Done;
            // Only a `Done` entry can carry an exception: the cold half
            // is not touched for a head that is still executing.
            if head.commit_exec || done && self.rob.cold(h).exception.is_some() {
                |c| &mut c.serialization
            } else if !done && head.lq_idx.is_some() {
                // Load at the head still in flight.
                |c| &mut c.memory_stall
            } else if done && head.sq_idx.is_some() && self.lsq.sbuffer_full() {
                // Store ready but the store buffer is full.
                |c| &mut c.memory_stall
            } else if !done {
                // Executing (ALU/FPU latency, issue wait).
                |c| &mut c.other
            } else {
                blocked.unwrap_or(|c| &mut c.other)
            }
        } else {
            // Empty ROB and rename had nothing: the frontend starved us.
            blocked.unwrap_or(|c| &mut c.frontend_starved)
        }
    }

    /// Record `n` cycles of occupancy telemetry at the current values.
    fn record_occupancies(&mut self, mem: &MemSystem, n: u64) {
        let iqs = &self.regs.iqs;
        self.perf.rob_occupancy.record_n(self.rob.len() as u64, n);
        self.perf
            .iq_alu_occupancy
            .record_n((iqs[0].len() + iqs[1].len()) as u64, n);
        self.perf
            .iq_ls_occupancy
            .record_n((iqs[3].len() + iqs[4].len()) as u64, n);
        self.perf
            .sbuffer_occupancy
            .record_n(self.lsq.sbuffer.len() as u64, n);
        self.perf
            .l1d_mshr_occupancy
            .record_n(mem.l1d_active_txns(self.hart) as u64, n);
    }

    // The skipper interface: what `XsSystem::tick_skipping_into` needs to
    // jump over provable no-op cycles.

    /// True when the tick just executed changed any core state. A false
    /// return proves the next ticks repeat identically until the next
    /// scheduled event (core or memory) lands.
    pub(crate) fn made_progress(&self) -> bool {
        self.progressed.0
    }

    /// The earliest future cycle at which this core has scheduled work.
    /// `None` for a halted core (nothing it schedules matters anymore)
    /// or when no work is queued. May be early (stale or squashed
    /// entries) but never late: every state transition that would end a
    /// no-op streak has an entry here or in the memory system's queues.
    pub(crate) fn next_event_cycle(&mut self) -> Option<u64> {
        if self.is_halted() {
            return None;
        }
        // Hot per-issue work deliberately never touches the event heap;
        // its completion times are folded in here from the flat state
        // the stages already maintain (this path only runs after a
        // provable no-op tick, so the scans are off the hot path).
        let heap = self.events.next_after(self.cycle);
        let (exec, lsu) = (&self.stages.exec, &self.stages.lsu);
        [heap, exec.next_done(), lsu.next_due()]
            .into_iter()
            .flatten()
            .min()
    }

    /// Bulk-charge `n` skipped cycles, reproducing exactly what `n`
    /// repeats of the preceding no-op tick would have recorded: cycle
    /// and CPI-stack totals (preserving `sum == cycles × width`), the
    /// Fig. 15 ready histogram, ROB-full stall cycles, occupancy
    /// telemetry at the frozen values, and the cycle CSRs. Only sound
    /// when that tick made no progress and no event lands in the span.
    pub(crate) fn charge_idle_cycles(&mut self, mem: &MemSystem, n: u64) {
        self.cycle += n;
        self.perf.cycles += n;
        self.progressed = Progress(false);
        let width = self.cfg.commit_width as u64;
        if self.is_halted() {
            // Keep the CPI identity over the whole run: a halted core's
            // commit slots all idle, and its CSRs stay frozen.
            self.perf.cpi.other += width * n;
            return;
        }
        if self.stages.rename.blocked_rob {
            self.perf.rob_full_cycles += n;
        }
        self.perf.record_ready_n(self.stages.exec.last_ready_alu, n);
        self.account(mem, n, width * n);
    }

    /// Fault injection for verification demos (the paper's artifact
    /// "intentionally injects a fault into XiangShan"): XOR a mask into
    /// the current architectural value of an integer register. The next
    /// consumer commits a wrong value, which DiffTest must catch.
    pub fn inject_fault_gpr(&mut self, reg: u8, xor_mask: u64) {
        if reg == 0 {
            return;
        }
        let p = self.stages.rename.rat_int[reg as usize];
        let v = self.regs.int.read(p);
        self.regs.write(false, p, v ^ xor_mask);
        let ap = self.stages.commit.arat_int[reg as usize];
        if ap != p {
            let av = self.regs.int.read(ap);
            self.regs.write(false, ap, av ^ xor_mask);
        }
    }

    /// DiffTest hook: force the next SC to fail (models a timeout even
    /// when the timing window would not produce one).
    pub fn force_sc_fail(&mut self) {
        self.stages.atomics.force_sc_fail = true;
    }

    /// Observe another hart's store entering the shared memory (clears a
    /// matching LR reservation, like a remote write invalidating the
    /// reservation set).
    pub fn snoop_remote_store(&mut self, paddr: u64, size: u64) {
        self.stages.atomics.snoop(&mut self.perf, paddr, size);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use riscv_isa::mem::SparseMemory;

    #[test]
    fn coherent_view_read_straddles_to_the_last_mapped_byte() {
        let cfg = XsConfig::nh();
        let base = 0x8000_0000u64;
        let mut backing = SparseMemory::new();
        let pat: Vec<u8> = (0u8..16).collect();
        backing.write(base, &pat);
        let mut mem = MemSystem::new(cfg.mem_system_config(), cfg.memory.build(), backing);
        let mut view = CoherentView(&mut mem);
        // Straddle the 8-byte boundary with a tail chunk shorter than the
        // alignment span: the span math must clamp to the buffer end, not
        // run past it.
        let mut mid = [0u8; 5];
        view.read(base + 6, &mut mid);
        assert_eq!(mid, [6, 7, 8, 9, 10]);
        // A straddling read ending exactly on the last mapped byte.
        let mut tail = [0u8; 9];
        view.read(base + 7, &mut tail);
        assert_eq!(tail, [7, 8, 9, 10, 11, 12, 13, 14, 15]);
        // Write path round-trips through backing memory.
        view.write(base + 6, &[0xaa, 0xbb, 0xcc]);
        let mut back = [0u8; 3];
        view.read(base + 6, &mut back);
        assert_eq!(back, [0xaa, 0xbb, 0xcc]);
    }

    #[test]
    fn event_queue_skips_spent_entries() {
        let mut q = EventQueue::default();
        q.push(10);
        q.push(4);
        q.push(10);
        q.push(25);
        assert_eq!(
            q.next_after(10),
            Some(25),
            "entries at or before now are spent"
        );
        assert_eq!(
            q.next_after(24),
            Some(25),
            "future entry is peeked, not consumed"
        );
        assert_eq!(q.next_after(25), None);
        assert_eq!(q.next_after(0), None, "queue drained");
    }
}
