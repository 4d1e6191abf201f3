//! The cycle-level core pipeline: decoupled frontend, rename with move
//! elimination, distributed issue, out-of-order execution with full
//! misspeculation recovery, and in-order commit with probes.
//!
//! The model follows Fig. 10 of the paper at stage granularity. Stages
//! are evaluated back-to-front each cycle so results latch one cycle
//! later, and every speculative structure (RAT, RAS, global history, LQ/
//! SQ, issue queues) recovers precisely on redirects.

use crate::bpu::{cf_kind, Bpu, BranchPrediction};
use crate::config::{IssuePolicy, XsConfig};
use crate::issue::{ConfTable, DefTable, IssueQueue};
use crate::lifecycle::{Lifecycle, LifecycleRing, SquashCause, LIFECYCLE_RING_CAP};
use crate::lsu::{ForwardResult, Lsu};
use crate::perf::PerfCounters;
use crate::prf::{PReg, Prf, Rat};
use crate::rob::{Rob, RobIdx, RobState, RobTag};
use crate::tlbs::{CoreMmu, MmuResult};
use crate::uop::{
    dest_of, exec_fused, fuse, is_reg_move, try_fuse, CommitEvent, CommitMem, SbufferDrainEvent,
    Uop,
};
use riscv_isa::csr::{CsrFile, Privilege};
use riscv_isa::exec::{branch_taken, int_compute, load_extend};
use riscv_isa::fpu::fp_execute;
use riscv_isa::mem::PhysMem;
use riscv_isa::mmu::AccessType;
use riscv_isa::op::{DecodedInst, FuClass, Op};
use riscv_isa::state::ArchState;
use riscv_isa::trap::{Exception, Trap};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::collections::VecDeque;
use uncore::{AccessKind, Completion, CoreReq, MemSystem};

/// UART transmit MMIO address (matches the NEMU REF device map).
pub const UART_TX: u64 = 0x1000_0000;
/// CLINT mtime MMIO address.
pub const MTIME: u64 = 0x0200_bff8;
/// LR/SC reservation granule.
pub const RESERVATION_GRANULE: u64 = 64;

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
            let n = (8 - (addr + off as u64) % 8).min(buf.len().saturating_sub(off) as u64) as usize;
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

#[derive(Debug, Clone)]
struct PreUop {
    pc: u64,
    inst: DecodedInst,
    pred: Option<BranchPrediction>,
    npc: u64,
    fault: Option<(Exception, u64)>,
    /// Cycle the instruction entered the ibuf (lifecycle fetch stamp).
    fetched_at: u64,
}

/// How one ibuf entry (or fused pair) renames: everything the
/// structural-hazard checks need, known before a uop is built.
#[derive(Debug, Clone, Copy)]
struct RenamePlan {
    is_load: bool,
    is_store: bool,
    commit_exec: bool,
    /// Issue queue the uop dispatches to.
    qi: usize,
    move_elim: bool,
    /// Register class of the destination to allocate, if any.
    alloc_fp: Option<bool>,
}

#[derive(Debug, Clone, Copy)]
struct FuInFlight {
    done_at: u64,
    tag: RobTag,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MemReqKind {
    Load { tag: RobTag },
    SbufferDrain,
    AtomicLoad,
    AtomicStore,
}

/// Marks a request id as an instruction fetch (fetch ids are matched
/// against `pending_fetch` directly and never enter the data arena).
const FETCH_ID_FLAG: u64 = 1 << 55;

/// Number of distributed issue queues.
const NUM_IQS: usize = crate::prf::WAIT_QUEUES;

#[derive(Debug, Clone, Copy)]
struct InflightSlot {
    gen: u64,
    kind: MemReqKind,
    live: bool,
}

/// Flat slot arena for in-flight data-side requests, replacing the old
/// `HashMap<u64, MemReqKind>`: O(1) insert/remove with no hashing on the
/// hot path, fully deterministic iteration order (slot index order), and
/// ids that encode `hart | generation | slot` so a completion for a
/// squashed-and-reused slot is recognized as stale by its generation.
#[derive(Debug, Clone, Default)]
struct InflightArena {
    slots: Vec<InflightSlot>,
    free: Vec<u16>,
    live: usize,
}

impl InflightArena {
    /// Generation bits sit between the slot (low 16) and the fetch flag
    /// (bit 55): 39 bits, wrapping after 2^39 reuses of one slot.
    const GEN_MASK: u64 = (1 << 39) - 1;

    fn insert(&mut self, hart: usize, kind: MemReqKind) -> u64 {
        let slot = match self.free.pop() {
            Some(s) => {
                let e = &mut self.slots[s as usize];
                e.gen = (e.gen + 1) & Self::GEN_MASK;
                e.kind = kind;
                e.live = true;
                s
            }
            None => {
                let s = self.slots.len();
                debug_assert!(s < u16::MAX as usize, "in-flight arena overflow");
                self.slots.push(InflightSlot {
                    gen: 0,
                    kind,
                    live: true,
                });
                s as u16
            }
        };
        self.live += 1;
        ((hart as u64) << 56) | (self.slots[slot as usize].gen << 16) | slot as u64
    }

    /// Remove and return the request behind `id`. `None` for fetch ids,
    /// stale generations (the slot was squashed and reused), and ids
    /// already removed — exactly the cases the old map lookup missed on.
    fn remove(&mut self, id: u64) -> Option<MemReqKind> {
        if id & FETCH_ID_FLAG != 0 {
            return None;
        }
        let slot = (id & 0xffff) as usize;
        let gen = (id >> 16) & Self::GEN_MASK;
        let e = self.slots.get_mut(slot)?;
        if !e.live || e.gen != gen {
            return None;
        }
        e.live = false;
        self.free.push(slot as u16);
        self.live -= 1;
        Some(e.kind)
    }

    /// Drop every live request for which `keep` returns false (flush
    /// paths). Iterates in slot order: deterministic by construction.
    fn retain(&mut self, mut keep: impl FnMut(&MemReqKind) -> bool) {
        for (i, e) in self.slots.iter_mut().enumerate() {
            if e.live && !keep(&e.kind) {
                e.live = false;
                self.free.push(i as u16);
                self.live -= 1;
            }
        }
    }

    fn len(&self) -> usize {
        self.live
    }
}

/// Min-heap of future cycles at which this core has scheduled work:
/// FU completions, load replays, deferred load deliveries, store-buffer
/// drain deadlines, and fetch-stall expiries. Entries may be stale
/// (already passed, or for squashed work) — an early wakeup just runs
/// one provable no-op tick, which is charged identically to a skipped
/// cycle, so correctness never depends on queue precision.
#[derive(Debug, Clone, Default)]
struct EventQueue(BinaryHeap<Reverse<u64>>);

impl EventQueue {
    fn push(&mut self, at: u64) {
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

/// Why the pipeline is inside a flush-recovery window (set at the flush,
/// cleared at the first subsequent commit). Drives CPI-stack attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RecoveryKind {
    None,
    /// Branch-mispredict redirect.
    Mispredict,
    /// Serializing flush (system ops, exceptions, atomics).
    Serialize,
    /// Memory-order-violation replay.
    MemViolation,
}

/// The dominant idle cause the CPI attributor charges empty commit
/// slots to — one CPI-stack component per variant. Factored out of the
/// per-tick attributor so skipped idle spans charge through the exact
/// same decision chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IdleCause {
    Other,
    Serialization,
    MispredictRecovery,
    MemoryStall,
    RobFull,
    IqFull,
    FrontendStarved,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CommitStall {
    None,
    /// Atomic waiting for the store buffer to drain.
    AtomicDrain,
    /// Atomic load (LR / AMO read) in flight at physical address `pa`.
    AtomicLoad { pa: u64 },
    /// AMO write computed but not yet accepted by the L1D.
    AtomicStorePending { old: u64, newv: u64, pa: u64, size: u64 },
    /// Atomic store (SC / AMO write) in flight; `old` is the loaded value.
    AtomicStore { old: u64, pa: u64, size: u64, newv: u64 },
}

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

/// One XiangShan-style core.
#[derive(Debug, Clone)]
pub struct Core {
    /// Configuration.
    pub cfg: XsConfig,
    hart: usize,
    /// Control and status registers (architectural).
    pub csr: CsrFile,
    // Rename state.
    rat_int: Rat,
    rat_fp: Rat,
    arat_int: Rat,
    arat_fp: Rat,
    prf_int: Prf,
    prf_fp: Prf,
    rob: Rob,
    iqs: [IssueQueue; NUM_IQS],
    lsu: Lsu,
    /// The MMU (public for scenario tests).
    pub mmu: CoreMmu,
    /// The branch prediction unit.
    pub bpu: Bpu,
    // Frontend.
    fetch_pc: u64,
    fetch_stall_until: u64,
    fetch_fault_pending: bool,
    pending_fetch: Option<(u64, u64, u64)>, // (req id, va pc, epoch)
    partial_fetch: Option<(u64, u16)>,
    fetch_epoch: u64,
    ibuf: VecDeque<PreUop>,
    // Execution.
    fu_pipe: Vec<FuInFlight>,
    /// Earliest `done_at` in `fu_pipe`; lets [`Core::writeback`] skip
    /// scanning the pipe on cycles where nothing can complete.
    fu_pipe_min: u64,
    /// Reusable scratch for the due-this-cycle writeback batch.
    wb_scratch: Vec<FuInFlight>,
    mem_inflight: InflightArena,
    /// Fetch request id counter (data-side ids come from the arena).
    next_req: u64,
    replay_q: Vec<(u64, RobTag)>, // (retry_at, load)
    /// Scheduled future work, for idle-cycle skipping (DESIGN §5g).
    events: EventQueue,
    /// Whether the tick in progress changed any core state. A tick that
    /// ends with this false is a provable no-op that repeats identically
    /// until the next scheduled event lands.
    tick_progress: bool,
    /// ALU ready count observed by the last `issue()` call, so skipped
    /// idle spans can bulk-replicate the Fig. 15 histogram sample.
    last_ready_alu: usize,
    // Atomics.
    reservation: Option<u64>,
    lr_cycle: u64,
    commit_stall: CommitStall,
    /// DiffTest hook: force the next SC to fail (models a timeout even
    /// when the timing window would not produce one).
    pub force_sc_fail: bool,
    // Architectural results.
    /// Exit code once halted (ebreak convention).
    pub halted: Option<u64>,
    /// UART output bytes.
    pub output: Vec<u8>,
    cycle: u64,
    /// Performance counters.
    pub perf: PerfCounters,
    pubs_conf: ConfTable,
    pubs_def: DefTable,
    instret: u64,
    deferred_loads: Vec<(u64, RobTag, u64)>, // (deliver_at, load, value)
    deferred_commits: Vec<CommitEvent>,
    deferred_drains: Vec<SbufferDrainEvent>,
    // CPI-stack attribution state. The recovery window opens at a flush
    // and closes when the first post-flush instruction (seq beyond
    // `recovery_seq`) commits.
    recovery: RecoveryKind,
    recovery_seq: u64,
    rename_blocked_rob: bool,
    rename_blocked_iq: bool,
    // Lifecycle tracing: the last-N ring is always on; the full-trace
    // buffer only fills when `cfg.lifecycle` is set (drained by the
    // co-sim layer into ArchDB).
    life_ring: LifecycleRing,
    life_trace: Vec<Lifecycle>,
}

// The issue queues live inline; beyond them the per-core footprint may
// not grow past what it was with heap-backed queues (LightSSS clones a
// core per snapshot, a campaign boots one per job).
const _: () = assert!(
    std::mem::size_of::<Core>() <= 4624 + NUM_IQS * std::mem::size_of::<IssueQueue>()
);

impl Core {
    /// Create a core resetting to `boot_pc`.
    pub fn new(cfg: XsConfig, hart: usize, boot_pc: u64) -> Self {
        let mut prf_int = Prf::new(cfg.int_prf);
        let mut prf_fp = Prf::new(cfg.fp_prf);
        let rat_int = prf_int.reset_rat();
        let rat_fp = prf_fp.reset_rat();
        let policy = cfg.issue_policy;
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
            IssueQueue::new(i, class, cfg.iq_entries, width, policy)
        });
        Core {
            hart,
            csr: CsrFile::new(hart as u64),
            rat_fp,
            arat_int: rat_int,
            arat_fp: rat_fp,
            rat_int,
            prf_int,
            prf_fp,
            rob: Rob::new(cfg.rob_entries),
            lsu: Lsu::new(cfg.lq_entries, cfg.sq_entries, cfg.sbuffer_entries),
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
            iqs,
            fetch_pc: boot_pc,
            fetch_stall_until: 0,
            fetch_fault_pending: false,
            pending_fetch: None,
            partial_fetch: None,
            fetch_epoch: 0,
            ibuf: VecDeque::new(),
            fu_pipe: Vec::new(),
            fu_pipe_min: u64::MAX,
            wb_scratch: Vec::new(),
            mem_inflight: InflightArena::default(),
            next_req: 0,
            replay_q: Vec::new(),
            events: EventQueue::default(),
            tick_progress: false,
            last_ready_alu: 0,
            reservation: None,
            lr_cycle: 0,
            commit_stall: CommitStall::None,
            force_sc_fail: false,
            halted: None,
            output: Vec::new(),
            cycle: 0,
            perf: PerfCounters::default(),
            pubs_conf: ConfTable::new(1024, 3),
            pubs_def: DefTable::new(),
            instret: 0,
            deferred_loads: Vec::new(),
            deferred_commits: Vec::new(),
            deferred_drains: Vec::new(),
            recovery: RecoveryKind::None,
            recovery_seq: 0,
            rename_blocked_rob: false,
            rename_blocked_iq: false,
            life_ring: LifecycleRing::new(LIFECYCLE_RING_CAP),
            life_trace: Vec::new(),
            cfg,
        }
    }

    /// Snapshot of the always-on ring of the most recently finalized
    /// lifecycle records (retired and squashed), oldest first.
    pub fn lifecycle_ring(&self) -> Vec<Lifecycle> {
        self.life_ring.snapshot()
    }

    /// Drain the full-trace lifecycle records accumulated since the last
    /// call. Always empty unless `cfg.lifecycle` is enabled.
    pub fn take_lifecycle_trace(&mut self) -> Vec<Lifecycle> {
        std::mem::take(&mut self.life_trace)
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
        if self.cfg.lifecycle {
            self.life_trace.push(rec);
        }
    }

    /// Finalize a committed uop's lifecycle record. Stamps a stage never
    /// passed through individually (commit-time execution, eliminated
    /// moves) inherit the commit cycle so retired records stay monotone.
    fn finalize_retired(&mut self, idx: RobIdx) {
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
        self.instret
    }

    fn req_id(&mut self, kind: MemReqKind) -> u64 {
        self.mem_inflight.insert(self.hart, kind)
    }

    // ------------------------------------------------------------------
    // Architectural state bridging (checkpoints, DiffTest).
    // ------------------------------------------------------------------

    /// Project the committed architectural state (the `f_Pi` mapping of
    /// paper §III-A).
    pub fn arch_state(&self) -> ArchState {
        let mut s = ArchState::new(self.next_commit_pc(), self.hart as u64);
        for i in 1..32 {
            s.gpr[i] = self.prf_int.read(self.arat_int[i]);
            s.fpr[i] = self.prf_fp.read(self.arat_fp[i]);
        }
        s.fpr[0] = self.prf_fp.read(self.arat_fp[0]);
        s.csr = self.csr.clone();
        s
    }

    /// PC of the next instruction to commit (fetch PC when idle).
    pub fn next_commit_pc(&self) -> u64 {
        self.rob.head().map_or(self.fetch_pc, |h| self.rob.cold(h).uop.pc)
    }

    /// Restore architectural state (checkpoint restore / boot).
    pub fn restore_arch_state(&mut self, s: &ArchState) {
        assert!(self.rob.is_empty(), "restore only into an idle core");
        for i in 1..32 {
            self.write_preg(false, self.arat_int[i], s.gpr[i]);
            self.write_preg(true, self.arat_fp[i], s.fpr[i]);
        }
        // Reset leaves f0 mapped to the always-zero physical register,
        // which drops writes: f0 is an ordinary register, so give it a
        // real one before restoring its value.
        if self.arat_fp[0] == Prf::ZERO {
            self.arat_fp[0] = self.prf_fp.alloc().expect("idle core has a free fp register");
        }
        self.write_preg(true, self.arat_fp[0], s.fpr[0]);
        self.csr = s.csr.clone();
        self.fetch_pc = s.pc;
        self.rat_int = self.arat_int;
        self.rat_fp = self.arat_fp;
        // A reservation acquired before the restore (e.g. by a replayed
        // LR on the pre-rollback path) must not give a post-restore SC a
        // stale success window.
        self.reservation = None;
        self.lr_cycle = 0;
        self.mmu.flush();
    }

    fn read_src(&self, fp: bool, p: PReg) -> u64 {
        if fp {
            self.prf_fp.read(p)
        } else {
            self.prf_int.read(p)
        }
    }

    /// Write a physical register and wake the issue-queue slots that
    /// were waiting for it. Every write goes through here: a write that
    /// skipped the wakeup would leave its consumers asleep for good.
    fn write_preg(&mut self, fp: bool, p: PReg, v: u64) {
        let waiters = if fp {
            self.prf_fp.write(p, v)
        } else {
            self.prf_int.write(p, v)
        };
        for (iq, &slots) in self.iqs.iter_mut().zip(&waiters) {
            if slots != 0 {
                iq.wake(slots);
            }
        }
    }

    fn src_ready(&self, fp: bool, p: PReg) -> bool {
        if fp {
            self.prf_fp.is_ready(p)
        } else {
            self.prf_int.is_ready(p)
        }
    }

    // ------------------------------------------------------------------
    // The cycle driver.
    // ------------------------------------------------------------------

    /// Advance one cycle.
    pub fn tick(&mut self, mem: &mut MemSystem, completions: &[Completion]) -> CycleOutput {
        let mut out = CycleOutput::default();
        self.tick_into(mem, completions, &mut out);
        out
    }

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
        self.cycle += 1;
        self.perf.cycles += 1;
        self.tick_progress = false;
        if self.is_halted() {
            // Keep the CPI identity over the whole run: a halted core's
            // commit slots all idle.
            self.perf.cpi.other += self.cfg.commit_width as u64;
            return;
        }
        if !completions.is_empty() {
            // Even a completion for squashed work consumed queue state.
            self.tick_progress = true;
        }
        self.rename_blocked_rob = false;
        self.rename_blocked_iq = false;
        self.handle_mem_completions(mem, completions, out);
        self.writeback();
        self.commit(mem, out);
        self.replay_loads(mem);
        self.issue(mem);
        self.rename_dispatch();
        self.fetch(mem);
        self.drain_sbuffer(mem);
        self.csr.mcycle = self.cycle;
        self.csr.time = self.cycle;
        out.commits.append(&mut self.deferred_commits);
        out.drains.append(&mut self.deferred_drains);
        self.attribute_cycle(mem, out.commits.len() as u64);
    }

    /// Top-down CPI attribution: charge exactly `commit_width` slots this
    /// cycle — one per retired event, the rest to the single dominant
    /// reason the commit stage idled — so
    /// `cpi.total() == cycles * commit_width` holds by construction.
    fn attribute_cycle(&mut self, mem: &MemSystem, committed: u64) {
        let width = self.cfg.commit_width as u64;
        if self.cfg.telemetry {
            self.record_occupancies(mem, 1);
        }
        let retired = committed.min(width);
        self.perf.cpi.retired += retired;
        let empty = width - retired;
        if empty == 0 {
            return;
        }
        let cause = self.idle_cause();
        *self.cause_slot(cause) += empty;
    }

    /// The single dominant reason the commit stage idles this cycle,
    /// most specific first. Pure: reads the same state whether evaluated
    /// on a live tick or over a skipped idle span (where that state is
    /// provably frozen).
    fn idle_cause(&self) -> IdleCause {
        if self.is_halted() {
            IdleCause::Other
        } else if self.commit_stall != CommitStall::None {
            // Atomic executing at the commit point.
            IdleCause::Serialization
        } else if self.recovery != RecoveryKind::None {
            match self.recovery {
                RecoveryKind::Mispredict => IdleCause::MispredictRecovery,
                RecoveryKind::MemViolation => IdleCause::MemoryStall,
                _ => IdleCause::Serialization,
            }
        } else if let Some(h) = self.rob.head() {
            let head = self.rob.hot(h);
            let done = head.state == RobState::Done;
            // Only a `Done` entry can carry an exception: the cold half
            // is not touched for a head that is still executing.
            if head.commit_exec || done && self.rob.cold(h).exception.is_some() {
                IdleCause::Serialization
            } else if !done && head.lq_idx.is_some() {
                // Load at the head still in flight.
                IdleCause::MemoryStall
            } else if done && head.sq_idx.is_some() && self.lsu.sbuffer_full() {
                // Store ready but the store buffer is full.
                IdleCause::MemoryStall
            } else if !done {
                // Executing (ALU/FPU latency, issue wait).
                IdleCause::Other
            } else if self.rename_blocked_rob {
                IdleCause::RobFull
            } else if self.rename_blocked_iq {
                IdleCause::IqFull
            } else {
                IdleCause::Other
            }
        } else if self.rename_blocked_rob {
            IdleCause::RobFull
        } else if self.rename_blocked_iq {
            IdleCause::IqFull
        } else {
            // Empty ROB and rename had nothing: the frontend starved us.
            IdleCause::FrontendStarved
        }
    }

    fn cause_slot(&mut self, cause: IdleCause) -> &mut u64 {
        match cause {
            IdleCause::Other => &mut self.perf.cpi.other,
            IdleCause::Serialization => &mut self.perf.cpi.serialization,
            IdleCause::MispredictRecovery => &mut self.perf.cpi.mispredict_recovery,
            IdleCause::MemoryStall => &mut self.perf.cpi.memory_stall,
            IdleCause::RobFull => &mut self.perf.cpi.rob_full,
            IdleCause::IqFull => &mut self.perf.cpi.iq_full,
            IdleCause::FrontendStarved => &mut self.perf.cpi.frontend_starved,
        }
    }

    /// Record `n` cycles of occupancy telemetry at the current values.
    fn record_occupancies(&mut self, mem: &MemSystem, n: u64) {
        self.perf.rob_occupancy.record_n(self.rob.len() as u64, n);
        self.perf
            .iq_alu_occupancy
            .record_n((self.iqs[0].len() + self.iqs[1].len()) as u64, n);
        self.perf
            .iq_ls_occupancy
            .record_n((self.iqs[3].len() + self.iqs[4].len()) as u64, n);
        self.perf
            .sbuffer_occupancy
            .record_n(self.lsu.sbuffer.len() as u64, n);
        self.perf
            .l1d_mshr_occupancy
            .record_n(mem.l1d_active_txns(self.hart) as u64, n);
    }

    /// True when the tick just executed changed any core state. A false
    /// return proves the next ticks repeat identically until the next
    /// scheduled event (core or memory) lands.
    pub(crate) fn made_progress(&self) -> bool {
        self.tick_progress
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
        // the pipeline already maintains (this path only runs after a
        // provable no-op tick, so the scans are off the hot path).
        let mut next = self.events.next_after(self.cycle);
        let mut fold = |v: u64| match next {
            Some(n) if n <= v => {}
            _ => next = Some(v),
        };
        if !self.fu_pipe.is_empty() {
            fold(self.fu_pipe_min);
        }
        for &(at, _) in &self.replay_q {
            fold(at);
        }
        for &(at, _, _) in &self.deferred_loads {
            fold(at);
        }
        next
    }

    /// Bulk-charge `n` skipped cycles, reproducing exactly what `n`
    /// repeats of the preceding no-op tick would have recorded: cycle
    /// and CPI-stack totals (preserving `sum == cycles × width`), the
    /// Fig. 15 ready histogram, ROB-full stall cycles, occupancy
    /// telemetry at the frozen values, and the cycle CSRs. Only sound
    /// when that tick made no progress and no event lands in the span.
    pub(crate) fn charge_idle_cycles(&mut self, mem: &MemSystem, n: u64) {
        if n == 0 {
            return;
        }
        self.cycle += n;
        self.perf.cycles += n;
        let width = self.cfg.commit_width as u64;
        if self.is_halted() {
            // Mirror the halted tick: all slots idle, CSRs frozen.
            self.perf.cpi.other += width * n;
            return;
        }
        if self.rename_blocked_rob {
            self.perf.rob_full_cycles += n;
        }
        self.perf.record_ready_n(self.last_ready_alu, n);
        self.csr.mcycle = self.cycle;
        self.csr.time = self.cycle;
        if self.cfg.telemetry {
            self.record_occupancies(mem, n);
        }
        let cause = self.idle_cause();
        *self.cause_slot(cause) += width * n;
    }

    // ------------------------------------------------------------------
    // Memory completions.
    // ------------------------------------------------------------------

    fn handle_mem_completions(
        &mut self,
        mem: &mut MemSystem,
        completions: &[Completion],
        out: &mut CycleOutput,
    ) {
        for c in completions {
            // Fetch completions.
            if let Some((id, pc, epoch)) = self.pending_fetch {
                if c.req.id == id {
                    self.pending_fetch = None;
                    if epoch == self.fetch_epoch {
                        self.predecode(pc, c.fetch_block.expect("fetch block"));
                    }
                    continue;
                }
            }
            let Some(kind) = self.mem_inflight.remove(c.req.id) else {
                continue; // squashed request
            };
            match kind {
                MemReqKind::Load { tag } => {
                    if self.rob.live(tag) {
                        let v = load_extend(self.rob.cold(tag.idx).uop.inst.op, c.data);
                        self.finish_load(tag.idx, v);
                    }
                }
                MemReqKind::SbufferDrain => {
                    let head = self.lsu.sbuffer.front().expect("drain completes head");
                    self.perf.sbuffer_drains += 1;
                    out.drains.push(SbufferDrainEvent {
                        hart: self.hart,
                        paddr: head.paddr,
                        size: head.size,
                        data: head.data,
                        cycle: self.cycle,
                    });
                    self.lsu.pop_drained();
                }
                MemReqKind::AtomicLoad => {
                    let old = c.data;
                    self.atomic_loaded(mem, old, out);
                }
                MemReqKind::AtomicStore => {
                    if let CommitStall::AtomicStore { old, pa, size, newv } = self.commit_stall {
                        self.perf.sbuffer_drains += 1;
                        out.drains.push(SbufferDrainEvent {
                            hart: self.hart,
                            paddr: pa,
                            size,
                            data: newv,
                            cycle: self.cycle,
                        });
                        self.atomic_store_done(old);
                    }
                }
            }
        }
    }

    /// Deliver the value of the (live) load in `idx`.
    fn finish_load(&mut self, idx: RobIdx, value: u64) {
        let cycle = self.cycle;
        let e = self.rob.hot_mut(idx);
        e.wb_value = value;
        e.state = RobState::Done;
        let (has_dest, fp, p, lq_idx) = (e.has_dest, e.dest_fp, e.phys_rd, e.lq_idx);
        let c = self.rob.cold_mut(idx);
        if let Some(m) = &mut c.mem_info {
            m.value = value;
        }
        c.life.executed = cycle;
        c.life.writeback = cycle;
        let issued_at = c.issued_at;
        if let Some(li) = lq_idx {
            self.lsu.lq[li].done = true;
        }
        if has_dest {
            self.write_preg(fp, p, value);
        }
        if self.cfg.telemetry && issued_at > 0 {
            self.perf
                .load_to_use
                .record(self.cycle.saturating_sub(issued_at));
        }
    }

    // ------------------------------------------------------------------
    // Writeback + branch resolution.
    // ------------------------------------------------------------------

    fn writeback(&mut self) {
        // Nothing in flight completes before `fu_pipe_min`: skip the
        // scan (and the scratch churn) on cycles with nothing due.
        if self.fu_pipe.is_empty() || self.cycle < self.fu_pipe_min {
            return;
        }
        let cycle = self.cycle;
        let mut due = std::mem::take(&mut self.wb_scratch);
        due.clear();
        let mut min = u64::MAX;
        self.fu_pipe.retain(|f| {
            if f.done_at <= cycle {
                due.push(*f);
                false
            } else {
                min = min.min(f.done_at);
                true
            }
        });
        self.fu_pipe_min = min;
        if !due.is_empty() {
            self.tick_progress = true;
        }
        // Unique seqs: unstable sort is deterministic here.
        due.sort_unstable_by_key(|f| f.tag.seq);
        for f in &due {
            if !self.rob.live(f.tag) {
                continue; // squashed
            }
            self.execute_and_writeback(f.tag.idx);
        }
        self.wb_scratch = due;
    }

    /// Compute the result of a (non-memory) uop and write it back.
    fn execute_and_writeback(&mut self, idx: RobIdx) {
        let uop = &self.rob.cold(idx).uop;
        let d = uop.inst;
        let fused = uop.fused;
        let pc = uop.pc;
        let predicted_npc = uop.predicted_npc;
        let fallthrough = uop.fallthrough();
        // Positional operand read: slot i holds operand i+1's mapping,
        // or None for x0 / unused (which read as zero). Compacting here
        // instead would hand `sltu rd, x0, rs2` its rs2 as operand one.
        let mut srcs = [0u64; 3];
        for (i, s) in self.rob.hot(idx).phys_srcs.iter().enumerate() {
            if let Some((fp, p)) = s {
                srcs[i] = self.read_src(*fp, *p);
            }
        }
        let v = |i: usize| srcs[i];

        let mut value = 0u64;
        let mut fflags = 0u64;
        let mut taken = false;
        let mut target = 0u64;
        if let Some(b) = fused {
            value = exec_fused(&d, &b, v(0), v(1));
        } else if d.is_branch() {
            taken = branch_taken(d.op, v(0), v(1));
            target = pc.wrapping_add(d.imm as u64);
        } else if d.op == Op::Jal {
            taken = true;
            target = pc.wrapping_add(d.imm as u64);
            value = fallthrough;
        } else if d.op == Op::Jalr {
            taken = true;
            target = v(0).wrapping_add(d.imm as u64) & !1;
            value = fallthrough;
        } else if d.op == Op::Auipc {
            value = pc.wrapping_add(d.imm as u64);
        } else if d.op == Op::Lui {
            value = d.imm as u64;
        } else if let Some(r) = int_compute(
            d.op,
            v(0),
            if has_imm_operand(d.op) {
                d.imm as u64
            } else {
                v(1)
            },
        ) {
            value = r;
        } else {
            // Floating point through the host FPU.
            let rm = if d.rm == 7 { self.csr.frm() } else { d.rm };
            let r = fp_execute(d.op, v(0), v(1), v(2), rm);
            value = r.bits;
            fflags = r.flags;
        }
        if let Some(bug) = self.cfg.injected_bug {
            value = apply_injected_bug(bug, d.op, value);
        }

        let e = self.rob.hot_mut(idx);
        e.wb_value = value;
        e.fflags = fflags as u8;
        e.state = RobState::Done;
        e.actual_taken = taken;
        let (has_dest, fp, p) = (e.has_dest, e.dest_fp, e.phys_rd);
        let c = self.rob.cold_mut(idx);
        c.life.executed = self.cycle;
        c.life.writeback = self.cycle;
        c.actual_target = target;
        if has_dest {
            self.write_preg(fp, p, value);
        }
        // Branch resolution.
        if d.is_control_flow() {
            let actual_npc = if taken { target } else { fallthrough };
            if actual_npc != predicted_npc {
                self.resolve_mispredict(idx, actual_npc, taken, target);
            }
        }
    }

    fn resolve_mispredict(&mut self, idx: RobIdx, actual_npc: u64, taken: bool, target: u64) {
        let e = self.rob.hot_mut(idx);
        e.mispredicted = true;
        e.bpu_resolved = true;
        let seq = e.seq;
        let c = self.rob.cold(idx);
        let snapshot = c.rat_snapshot;
        if let Some(pred) = &c.uop.pred {
            self.bpu
                .resolve(c.uop.pc, &c.uop.inst, pred, taken, target, true);
        }
        self.perf.flushes_mispredict += 1;
        self.open_recovery(RecoveryKind::Mispredict, seq);
        self.flush_after(idx, actual_npc, &snapshot, SquashCause::Mispredict);
    }

    /// Open a CPI-attribution recovery window at a flush whose boundary
    /// (oldest surviving instruction) is `seq`.
    fn open_recovery(&mut self, kind: RecoveryKind, seq: u64) {
        self.recovery = kind;
        self.recovery_seq = seq;
    }

    /// Squash every uop younger than `seq` — the ROB entries past the
    /// `keep` oldest — out of every structure that holds a handle to one.
    fn squash_younger(&mut self, seq: u64, keep: usize, cause: SquashCause) {
        for k in keep..self.rob.len() {
            let idx = self.rob.nth(k);
            let e = self.rob.hot(idx);
            if e.has_dest {
                if e.dest_fp {
                    self.prf_fp.release(e.phys_rd);
                } else {
                    self.prf_int.release(e.phys_rd);
                }
            }
            self.finalize_squashed(idx, cause);
        }
        self.rob.truncate(keep);
        for iq in &mut self.iqs {
            iq.flush_after(seq, &mut self.prf_int, &mut self.prf_fp);
        }
        self.fu_pipe.retain(|f| f.tag.seq <= seq);
        self.mem_inflight
            .retain(|k| !matches!(k, MemReqKind::Load { tag } if tag.seq > seq));
        self.replay_q.retain(|&(_, t)| t.seq <= seq);
        self.lsu.flush_after(seq);
        self.pubs_def.clear();
    }

    /// Flush everything younger than the uop in `idx` and restart fetch
    /// at `new_pc`.
    fn flush_after(&mut self, idx: RobIdx, new_pc: u64, snapshot: &(Rat, Rat), cause: SquashCause) {
        let seq = self.rob.hot(idx).seq;
        self.squash_younger(seq, self.rob.rank(idx) + 1, cause);
        self.rat_int = snapshot.0;
        self.rat_fp = snapshot.1;
        self.redirect_fetch(new_pc, 2);
    }

    /// Full pipeline flush (exceptions, serializing instructions).
    fn flush_all(&mut self, new_pc: u64, cause: SquashCause) {
        self.squash_younger(0, 0, cause);
        self.fu_pipe_min = u64::MAX;
        self.rat_int = self.arat_int;
        self.rat_fp = self.arat_fp;
        self.redirect_fetch(new_pc, 3);
    }

    fn redirect_fetch(&mut self, new_pc: u64, bubble: u64) {
        self.fetch_pc = new_pc;
        self.fetch_epoch += 1;
        self.pending_fetch = None;
        self.partial_fetch = None;
        self.ibuf.clear();
        self.fetch_fault_pending = false;
        self.fetch_stall_until = self.cycle + bubble;
        self.events.push(self.fetch_stall_until);
        self.tick_progress = true;
    }

    // ------------------------------------------------------------------
    // Commit.
    // ------------------------------------------------------------------

    fn commit(&mut self, mem: &mut MemSystem, out: &mut CycleOutput) {
        if self.commit_stall != CommitStall::None {
            self.advance_atomic(mem, out);
            return;
        }
        for slot in 0..self.cfg.commit_width {
            let Some(h) = self.rob.head() else { break };
            let head = self.rob.hot(h);
            if head.replay_at_commit {
                // Memory-order violation: squash and re-execute from the
                // load itself.
                let pc = self.rob.cold(h).uop.pc;
                let seq = head.seq;
                self.perf.flushes_violation += 1;
                self.open_recovery(RecoveryKind::MemViolation, seq);
                self.flush_all(pc, SquashCause::MemOrderViolation);
                break;
            }
            let done = head.state == RobState::Done;
            // An entry carrying an exception is always `Done`.
            if done || head.commit_exec {
                if let Some((cause, tval)) = self.rob.cold(h).exception {
                    self.take_exception(cause, tval, out);
                    break;
                }
            }
            if head.commit_exec {
                if slot != 0 {
                    break; // serialized: only at the first commit slot
                }
                self.commit_system(mem, out);
                break;
            }
            if !done {
                break;
            }
            // Stores need store-buffer space.
            if head.sq_idx.is_some() {
                let mmio = self.rob.cold(h).mem_info.map(|m| m.mmio).unwrap_or(false);
                if !mmio && self.lsu.sbuffer_full() {
                    break;
                }
            }
            self.retire(h, out);
        }
    }

    /// Retire the head in place, then free its slot.
    fn retire(&mut self, h: RobIdx, out: &mut CycleOutput) {
        let e = *self.rob.hot(h);
        let seq = e.seq;
        self.tick_progress = true;
        if self.recovery != RecoveryKind::None && seq > self.recovery_seq {
            self.recovery = RecoveryKind::None;
        }
        // Eliminated moves read their (shared) register at commit.
        let wb_value = if e.eliminated {
            self.prf_int.read(e.phys_rd)
        } else {
            e.wb_value
        };
        let c = self.rob.cold(h);
        // Update the architectural RAT and free the old mapping.
        if let Some(dest) = c.uop.dest {
            let arat = if dest.fp {
                &mut self.arat_fp
            } else {
                &mut self.arat_int
            };
            arat[dest.idx as usize] = e.phys_rd;
            if e.dest_fp {
                self.prf_fp.release(e.old_phys);
            } else {
                self.prf_int.release(e.old_phys);
            }
        }
        // LSQ bookkeeping.
        if e.lq_idx.is_some() {
            self.lsu.commit_load(seq);
            self.perf.loads += 1;
        }
        if e.sq_idx.is_some() {
            self.perf.stores += 1;
            let mmio = c.mem_info.map(|m| m.mmio).unwrap_or(false);
            if mmio {
                // Device store at commit (UART).
                let m = c.mem_info.expect("mmio store has info");
                if m.paddr == UART_TX {
                    self.output.push(m.value as u8);
                }
                self.lsu.pop_store(seq);
            } else {
                self.lsu
                    .commit_store(seq, self.cycle, self.cfg.sbuffer_drain_delay);
                self.events.push(self.cycle + self.cfg.sbuffer_drain_delay);
            }
        }
        // Branch training (at commit, if not already resolved).
        if c.uop.inst.is_control_flow() {
            if c.uop.inst.is_branch() {
                self.perf.branches += 1;
                if e.mispredicted {
                    self.perf.branch_mispredicts += 1;
                }
            }
            if !e.bpu_resolved {
                if let Some(pred) = &c.uop.pred {
                    self.bpu.resolve(
                        c.uop.pc,
                        &c.uop.inst,
                        pred,
                        e.actual_taken,
                        c.actual_target,
                        false,
                    );
                }
            }
            self.pubs_conf.update(c.uop.pc, e.mispredicted);
        }
        self.csr.set_fflags(e.fflags as u64);
        let arch_count = 1 + c.uop.fused.is_some() as u64;
        if c.uop.fused.is_some() {
            self.perf.fused_pairs += 1;
        }
        self.instret += arch_count;
        self.perf.instret += arch_count;
        self.perf.uops += 1;
        self.csr.minstret = self.instret;
        out.commits.push(CommitEvent {
            hart: self.hart,
            pc: c.uop.pc,
            inst: c.uop.inst,
            fused: c.uop.fused,
            wb: c.uop.dest.map(|d| (d.fp, d.idx, wb_value)),
            mem: c.mem_info,
            trap: None,
            // SCs retire through the atomic path, never through here.
            sc_failed: false,
            halted: false,
            cycle: self.cycle,
        });
        self.finalize_retired(h);
        self.rob.pop_head();
    }

    fn take_exception(&mut self, cause: Exception, tval: u64, out: &mut CycleOutput) {
        let h = self.rob.head().expect("exception at head");
        let pc = self.rob.cold(h).uop.pc;
        let inst = self.rob.cold(h).uop.inst;
        let seq = self.rob.hot(h).seq;
        self.open_recovery(RecoveryKind::Serialize, seq);
        self.perf.exceptions += 1;
        let trap = Trap::Exception(cause, tval);
        let handler = self.csr.take_trap(trap, pc);
        out.commits.push(CommitEvent {
            hart: self.hart,
            pc,
            inst,
            fused: None,
            wb: None,
            mem: None,
            trap: Some(trap),
            sc_failed: false,
            halted: false,
            cycle: self.cycle,
        });
        self.flush_all(handler, SquashCause::Exception);
        self.perf.flushes_system += 1;
    }

    /// Execute a serializing instruction at the commit point.
    fn commit_system(&mut self, mem: &mut MemSystem, out: &mut CycleOutput) {
        let h = self.rob.head().expect("system at head");
        let seq = self.rob.hot(h).seq;
        let uop = &self.rob.cold(h).uop;
        let (d, pc, dest, next_pc) = (uop.inst, uop.pc, uop.dest, uop.fallthrough());
        // Atomics get their own multi-cycle path.
        if d.is_amo() || matches!(d.op, Op::LrW | Op::LrD | Op::ScW | Op::ScD) {
            // Sources must be ready (they are: producers committed, but
            // producers may still be in flight if younger commit widths
            // allowed... they cannot be: commit is in order).
            if !self.entry_ready_commit(h) {
                return;
            }
            self.commit_stall = CommitStall::AtomicDrain;
            self.tick_progress = true;
            self.advance_atomic(mem, out);
            return;
        }
        if !self.entry_ready_commit(h) {
            return; // CSR source operand still in flight
        }
        let mut wb: Option<(bool, u8, u64)> = None;
        let mut redirect = next_pc;
        match d.op {
            Op::Csrrw | Op::Csrrs | Op::Csrrc | Op::Csrrwi | Op::Csrrsi | Op::Csrrci => {
                let csrno = d.csr();
                let src = if matches!(d.op, Op::Csrrwi | Op::Csrrsi | Op::Csrrci) {
                    d.rs1 as u64
                } else {
                    let first = self.rob.hot(h).phys_srcs.into_iter().flatten().next();
                    first.map_or(0, |(fp, p)| self.read_src(fp, p))
                };
                match self.csr.read(csrno) {
                    Ok(old) => {
                        let newv = match d.op {
                            Op::Csrrw | Op::Csrrwi => Some(src),
                            Op::Csrrs | Op::Csrrsi => (src != 0).then_some(old | src),
                            _ => (src != 0).then_some(old & !src),
                        };
                        if let Some(v) = newv {
                            if let Err(ex) = self.csr.write(csrno, v) {
                                self.fault_head(ex, d.raw as u64, out);
                                return;
                            }
                            if csrno == riscv_isa::csr::addr::SATP {
                                self.mmu.flush();
                            }
                        }
                        if let Some(dest) = dest {
                            self.write_dest_at_commit(h, old);
                            wb = Some((dest.fp, dest.idx, old));
                        }
                    }
                    Err(ex) => {
                        self.fault_head(ex, d.raw as u64, out);
                        return;
                    }
                }
            }
            Op::Fence => {
                // Fence semantics: committed stores reach the memory
                // system before the fence retires.
                if !self.lsu.sbuffer_empty() {
                    return;
                }
            }
            Op::Wfi => {}
            Op::FenceI => {
                mem.flush_l1i(self.hart);
            }
            Op::SfenceVma => {
                if self.csr.privilege == Privilege::User
                    || (self.csr.privilege == Privilege::Supervisor
                        && self.csr.mstatus & riscv_isa::csr::mstatus::TVM != 0)
                {
                    self.fault_head(Exception::IllegalInstruction, d.raw as u64, out);
                    return;
                }
                self.mmu.flush();
            }
            Op::Mret => match self.csr.mret() {
                Ok(t) => redirect = t,
                Err(ex) => {
                    self.fault_head(ex, 0, out);
                    return;
                }
            },
            Op::Sret => match self.csr.sret() {
                Ok(t) => redirect = t,
                Err(ex) => {
                    self.fault_head(ex, 0, out);
                    return;
                }
            },
            Op::Ecall => {
                let cause = match self.csr.privilege {
                    Privilege::User => Exception::EcallFromU,
                    Privilege::Supervisor => Exception::EcallFromS,
                    Privilege::Machine => Exception::EcallFromM,
                };
                self.fault_head(cause, 0, out);
                return;
            }
            Op::Ebreak => {
                // Halt only once every committed store reached the memory
                // system (other harts may depend on them).
                if !self.lsu.sbuffer_empty() {
                    return;
                }
                let a0 = self.prf_int.read(self.arat_int[10]);
                self.halted = Some(a0);
                self.tick_progress = true;
                out.commits.push(CommitEvent {
                    hart: self.hart,
                    pc,
                    inst: d,
                    fused: None,
                    wb: None,
                    mem: None,
                    trap: None,
                    sc_failed: false,
                    halted: true,
                    cycle: self.cycle,
                });
                self.instret += 1;
                self.perf.instret += 1;
                self.perf.uops += 1;
                self.finalize_retired(h);
                self.rob.pop_head();
                return;
            }
            other => panic!("unhandled commit-exec op {other:?}"),
        }
        // Retire the system op and flush younger (serialization).
        if let Some(dest) = dest {
            let e = self.rob.hot(h);
            let arat = if dest.fp {
                &mut self.arat_fp
            } else {
                &mut self.arat_int
            };
            arat[dest.idx as usize] = e.phys_rd;
            self.prf_int.release(e.old_phys);
        }
        self.instret += 1;
        self.perf.instret += 1;
        self.perf.uops += 1;
        self.csr.minstret = self.instret;
        out.commits.push(CommitEvent {
            hart: self.hart,
            pc,
            inst: d,
            fused: None,
            wb,
            mem: None,
            trap: None,
            sc_failed: false,
            halted: false,
            cycle: self.cycle,
        });
        self.finalize_retired(h);
        self.rob.pop_head();
        self.perf.flushes_system += 1;
        self.open_recovery(RecoveryKind::Serialize, seq);
        self.flush_all(redirect, SquashCause::Serialize);
    }

    /// Record an exception on the ROB head (taken next commit call).
    fn fault_head(&mut self, cause: Exception, tval: u64, out: &mut CycleOutput) {
        let h = self.rob.head().expect("head");
        self.rob.cold_mut(h).exception = Some((cause, tval));
        // Take it immediately (same cycle) for simplicity.
        self.take_exception(cause, tval, out);
    }

    fn entry_ready_commit(&self, idx: RobIdx) -> bool {
        self.rob
            .hot(idx)
            .phys_srcs
            .iter()
            .flatten()
            .all(|&(fp, p)| self.src_ready(fp, p))
    }

    fn write_dest_at_commit(&mut self, idx: RobIdx, value: u64) {
        let e = self.rob.hot_mut(idx);
        e.wb_value = value;
        let (fp, p, has) = (e.dest_fp, e.phys_rd, e.has_dest);
        if has {
            self.write_preg(fp, p, value);
        }
    }

    // ------------------------------------------------------------------
    // Atomics at commit (LR/SC/AMO).
    // ------------------------------------------------------------------

    fn advance_atomic(&mut self, mem: &mut MemSystem, out: &mut CycleOutput) {
        let Some(h) = self.rob.head() else {
            self.commit_stall = CommitStall::None;
            self.tick_progress = true;
            return;
        };
        let srcs = self.rob.hot(h).phys_srcs;
        let d = self.rob.cold(h).uop.inst;
        let addr = srcs[0].map_or(0, |(fp, p)| self.read_src(fp, p));
        let size = d.mem_size();
        match self.commit_stall {
            CommitStall::AtomicDrain => {
                if !self.lsu.sbuffer_empty() {
                    return; // wait for committed stores to reach memory
                }
                // Past the drain everything below mutates state (fault,
                // SC resolution, or a submit attempt retried every tick).
                self.tick_progress = true;
                if addr % size != 0 {
                    self.commit_stall = CommitStall::None;
                    self.fault_head(Exception::StoreAddrMisaligned, addr, out);
                    return;
                }
                // Translate (bare mode in practice for atomics tests).
                let mut view = CoherentView(mem);
                let pa = match self.mmu.translate(
                    &mut view,
                    &self.csr,
                    addr,
                    if matches!(d.op, Op::LrW | Op::LrD) {
                        AccessType::Load
                    } else {
                        AccessType::Store
                    },
                ) {
                    MmuResult::Done { pa, .. } => pa,
                    MmuResult::Fault { cause, .. } => {
                        self.commit_stall = CommitStall::None;
                        self.fault_head(cause, addr, out);
                        return;
                    }
                };
                if matches!(d.op, Op::ScW | Op::ScD) {
                    // Decide success now.
                    let granule = pa & !(RESERVATION_GRANULE - 1);
                    let timeout = self.cycle.saturating_sub(self.lr_cycle)
                        > self.cfg.sc_timeout_cycles;
                    let success = !self.force_sc_fail
                        && !timeout
                        && self.reservation == Some(granule);
                    self.force_sc_fail = false;
                    self.reservation = None;
                    if success {
                        let data = srcs[1].map_or(0, |(fp, p)| self.read_src(fp, p));
                        self.perf.sc_successes += 1;
                        // This decision is the linearization point: other
                        // harts' reservations on the granule must die NOW,
                        // not when the store completes in memory.
                        out.res_kills.push((pa, size));
                        self.commit_stall = CommitStall::AtomicStorePending {
                            old: 0,
                            newv: data,
                            pa,
                            size,
                        };
                        self.advance_atomic(mem, out);
                    } else {
                        // Failed SC: rd = 1, no store.
                        self.finish_atomic_inner(1, true, None);
                    }
                    return;
                }
                // LR / AMO: acquire the line exclusively and load.
                let id = self.req_id(MemReqKind::AtomicLoad);
                let req = CoreReq {
                    core: self.hart,
                    kind: AccessKind::LoadExclusive,
                    addr: pa,
                    size,
                    data: 0,
                    id,
                };
                if mem.submit_data(req) {
                    self.commit_stall = CommitStall::AtomicLoad { pa };
                    if matches!(d.op, Op::LrW | Op::LrD) {
                        self.reservation = Some(pa & !(RESERVATION_GRANULE - 1));
                        self.lr_cycle = self.cycle;
                    }
                } else {
                    self.mem_inflight.remove(id);
                }
            }
            CommitStall::AtomicStorePending { old, newv, pa, size } => {
                // A submit attempt every tick, successful or not.
                self.tick_progress = true;
                let id = self.req_id(MemReqKind::AtomicStore);
                let req = CoreReq {
                    core: self.hart,
                    kind: AccessKind::Store,
                    addr: pa,
                    size,
                    data: newv,
                    id,
                };
                if mem.submit_data(req) {
                    self.commit_stall = CommitStall::AtomicStore { old, pa, size, newv };
                } else {
                    self.mem_inflight.remove(id);
                }
            }
            CommitStall::AtomicLoad { .. } | CommitStall::AtomicStore { .. } => {
                // Waiting on a completion; handled in
                // handle_mem_completions via atomic_loaded/store_done.
            }
            CommitStall::None => {}
        }
    }

    fn atomic_loaded(&mut self, mem: &mut MemSystem, raw: u64, out: &mut CycleOutput) {
        let CommitStall::AtomicLoad { pa } = self.commit_stall else {
            return;
        };
        let Some(h) = self.rob.head() else { return };
        let d = self.rob.cold(h).uop.inst;
        let old = load_extend(
            if d.mem_size() == 4 { Op::Lw } else { Op::Ld },
            raw,
        );
        if matches!(d.op, Op::LrW | Op::LrD) {
            // LR completes here.
            let mem_info = CommitMem {
                vaddr: pa,
                paddr: pa,
                size: d.mem_size(),
                is_store: false,
                value: old,
                mmio: false,
            };
            self.finish_atomic_inner(old, false, Some(mem_info));
            return;
        }
        // AMO: compute the new value and store it back in the same cycle
        // (the line is exclusive; the write is effectively atomic).
        let src = self.rob.hot(h).phys_srcs[1].map_or(0, |(fp, p)| self.read_src(fp, p));
        let newv = riscv_isa::exec::amo_compute(d.op, old, src);
        let size = d.mem_size();
        // The AMO's write linearizes here (the line is exclusive): kill
        // remote reservations on the granule this cycle.
        out.res_kills.push((pa, size));
        self.commit_stall = CommitStall::AtomicStorePending {
            old,
            newv,
            pa,
            size,
        };
        // Try immediately to minimize the exclusivity window.
        let id = self.req_id(MemReqKind::AtomicStore);
        let req = CoreReq {
            core: self.hart,
            kind: AccessKind::Store,
            addr: pa,
            size,
            data: newv,
            id,
        };
        if mem.submit_data(req) {
            self.commit_stall = CommitStall::AtomicStore { old, pa, size, newv };
        } else {
            self.mem_inflight.remove(id);
        }
    }

    fn atomic_store_done(&mut self, old: u64) {
        let mem_info = if let CommitStall::AtomicStore { pa, size, newv, .. } = self.commit_stall {
            Some(CommitMem {
                vaddr: pa,
                paddr: pa,
                size,
                is_store: true,
                value: newv,
                mmio: false,
            })
        } else {
            None
        };
        self.finish_atomic_inner(old, false, mem_info);
    }

    fn finish_atomic_inner(&mut self, value: u64, sc_failed: bool, mem_info: Option<CommitMem>) {
        self.commit_stall = CommitStall::None;
        let h = self.rob.head().expect("atomic at head");
        let (seq, p, old_phys) = {
            let e = self.rob.hot(h);
            (e.seq, e.phys_rd, e.old_phys)
        };
        let uop = &self.rob.cold(h).uop;
        let (pc, inst, dest, next_pc) = (uop.pc, uop.inst, uop.dest, uop.fallthrough());
        if sc_failed {
            self.perf.sc_failures += 1;
        }
        if let Some(dest) = dest {
            self.write_preg(false, p, value);
            self.arat_int[dest.idx as usize] = p;
            self.prf_int.release(old_phys);
        }
        self.instret += 1;
        self.perf.instret += 1;
        self.perf.uops += 1;
        self.csr.minstret = self.instret;
        self.deferred_commits.push(CommitEvent {
            hart: self.hart,
            pc,
            inst,
            fused: None,
            wb: dest.map(|d| (d.fp, d.idx, value)),
            mem: mem_info,
            trap: None,
            sc_failed,
            halted: false,
            cycle: self.cycle,
        });
        self.finalize_retired(h);
        self.rob.pop_head();
        // Serialize after atomics.
        self.perf.flushes_system += 1;
        self.open_recovery(RecoveryKind::Serialize, seq);
        self.flush_all(next_pc, SquashCause::Serialize);
    }

    // ------------------------------------------------------------------
    // Issue + LSU pipelines.
    // ------------------------------------------------------------------

    fn issue(&mut self, mem: &mut MemSystem) {
        let mut ready_alu_total = 0usize;
        // Queue by queue: nothing an issued uop does this cycle (it
        // writes no register before the next tick) can change what a
        // later queue finds ready.
        for qi in 0..NUM_IQS {
            let class = self.iqs[qi].class;
            let (picked, ready) = self.iqs[qi].select();
            if class == FuClass::Alu {
                ready_alu_total += ready;
            }
            for tag in picked.iter() {
                debug_assert!(self.rob.live(tag), "issue-queue entry outlived its ROB slot");
                let e = self.rob.hot_mut(tag.idx);
                debug_assert_eq!(e.state, RobState::Waiting, "stale IQ entry picked");
                self.tick_progress = true;
                e.state = RobState::Issued;
                self.rob.cold_mut(tag.idx).life.issued = self.cycle;
                match class {
                    FuClass::Load => self.issue_load(mem, tag),
                    FuClass::Store => self.issue_store(mem, tag),
                    _ => {
                        let inst = &self.rob.cold(tag.idx).uop.inst;
                        let done_at = self.cycle + fu_latency(class, inst);
                        self.fu_pipe.push(FuInFlight { done_at, tag });
                        self.fu_pipe_min = self.fu_pipe_min.min(done_at);
                    }
                }
            }
        }
        self.perf.record_ready(ready_alu_total);
        self.last_ready_alu = ready_alu_total;
    }

    fn issue_load(&mut self, mem: &mut MemSystem, tag: RobTag) {
        let idx = tag.idx;
        if self.cfg.telemetry {
            let c = self.rob.cold_mut(idx);
            if c.issued_at == 0 {
                c.issued_at = self.cycle;
            }
        }
        let d = self.rob.cold(idx).uop.inst;
        let e = self.rob.hot(idx);
        let lq_idx = e.lq_idx.expect("load has an LQ entry");
        let va = e.phys_srcs[0]
            .map_or(0, |(fp, p)| self.read_src(fp, p))
            .wrapping_add(d.imm as u64);
        let size = d.mem_size();
        // Translate.
        let mut view = CoherentView(mem);
        let (pa, tlat) = match self.mmu.translate(&mut view, &self.csr, va, AccessType::Load) {
            MmuResult::Done { pa, latency } => (pa, latency),
            MmuResult::Fault { cause, .. } => {
                self.rob.cold_mut(idx).exception = Some((cause, va));
                self.rob.hot_mut(idx).state = RobState::Done;
                return;
            }
        };
        // Record in the LQ.
        let l = &mut self.lsu.lq[lq_idx];
        l.paddr = Some(pa);
        l.size = size;
        self.rob.cold_mut(idx).mem_info = Some(CommitMem {
            vaddr: va,
            paddr: pa,
            size,
            is_store: false,
            value: 0,
            mmio: pa == MTIME || pa == UART_TX,
        });
        // MMIO loads resolve functionally.
        if pa == MTIME {
            let v = self.csr.time;
            self.fu_finish_load_later(tag, v, 4 + tlat);
            return;
        }
        if pa == UART_TX {
            self.fu_finish_load_later(tag, 0, 4 + tlat);
            return;
        }
        // Store-to-load forwarding.
        match self.lsu.forward(tag.seq, pa, size) {
            ForwardResult::Forward(raw) => {
                self.perf.load_forwards += 1;
                let v = load_extend(d.op, raw);
                self.fu_finish_load_later(tag, v, 2 + tlat);
            }
            ForwardResult::Stall => self.replay_load_later(tag, 4),
            ForwardResult::None => {
                // Line-crossing loads take a slow functional path.
                if uncore::line_of(pa) != uncore::line_of(pa + size - 1) {
                    let raw = mem.coherent_read(pa, size);
                    let v = load_extend(d.op, raw);
                    self.fu_finish_load_later(tag, v, 8 + tlat);
                    return;
                }
                let id = self.req_id(MemReqKind::Load { tag });
                let req = CoreReq {
                    core: self.hart,
                    kind: AccessKind::Load,
                    addr: pa,
                    size,
                    data: 0,
                    id,
                };
                if !mem.submit_data(req) {
                    self.mem_inflight.remove(id);
                    self.replay_load_later(tag, 2);
                }
            }
        }
    }

    /// Put a load that could not proceed back to `Waiting`, to be
    /// re-issued in `delay` cycles.
    fn replay_load_later(&mut self, tag: RobTag, delay: u64) {
        self.rob.hot_mut(tag.idx).state = RobState::Waiting;
        self.rob.cold_mut(tag.idx).life.replays += 1;
        self.replay_q.push((self.cycle + delay, tag));
    }

    /// Finish a load after `lat` cycles with an already-known value.
    fn fu_finish_load_later(&mut self, tag: RobTag, value: u64, lat: u64) {
        // Store the value now; deliver at the right time via a small
        // deferred list.
        let at = self.cycle + lat.max(1);
        self.deferred_loads.push((at, tag, value));
    }

    fn issue_store(&mut self, mem: &mut MemSystem, tag: RobTag) {
        let idx = tag.idx;
        let d = self.rob.cold(idx).uop.inst;
        let e = self.rob.hot(idx);
        let sq_idx = e.sq_idx.expect("store has an SQ entry");
        let va = e.phys_srcs[0]
            .map_or(0, |(fp, p)| self.read_src(fp, p))
            .wrapping_add(d.imm as u64);
        let data = e.phys_srcs[1].map_or(0, |(fp, p)| self.read_src(fp, p));
        let size = d.mem_size();
        let mut view = CoherentView(mem);
        let pa = match self.mmu.translate(&mut view, &self.csr, va, AccessType::Store) {
            MmuResult::Done { pa, .. } => pa,
            MmuResult::Fault { cause, .. } => {
                self.rob.cold_mut(idx).exception = Some((cause, va));
                self.rob.hot_mut(idx).state = RobState::Done;
                return;
            }
        };
        let mmio = pa == UART_TX || pa == MTIME;
        let s = &mut self.lsu.sq[sq_idx];
        s.paddr = Some(pa);
        s.data = Some(data);
        s.size = size;
        s.mmio = mmio;
        self.rob.hot_mut(idx).state = RobState::Done;
        let c = self.rob.cold_mut(idx);
        c.mem_info = Some(CommitMem {
            vaddr: va,
            paddr: pa,
            size,
            is_store: true,
            value: data,
            mmio,
        });
        c.life.executed = self.cycle;
        c.life.writeback = self.cycle;
        // Memory-order check: younger loads that already executed on an
        // overlapping address must replay.
        if let Some(viol) = self.lsu.order_violation(tag.seq, pa, size) {
            debug_assert!(self.rob.live(viol), "LQ entry outlived its ROB slot");
            self.rob.hot_mut(viol.idx).replay_at_commit = true;
        }
    }

    fn replay_loads(&mut self, mem: &mut MemSystem) {
        let cycle = self.cycle;
        let mut due = Vec::new();
        self.replay_q.retain(|&(at, tag)| {
            if at <= cycle {
                due.push(tag);
                false
            } else {
                true
            }
        });
        if !due.is_empty() {
            self.tick_progress = true;
        }
        for tag in due {
            if !self.rob.live(tag) {
                continue;
            }
            self.rob.hot_mut(tag.idx).state = RobState::Issued;
            self.rob.cold_mut(tag.idx).life.issued = self.cycle;
            self.issue_load(mem, tag);
        }
        // Deliver deferred load values.
        let mut ready = Vec::new();
        self.deferred_loads.retain(|&(at, tag, v)| {
            if at <= cycle {
                ready.push((tag, v));
                false
            } else {
                true
            }
        });
        if !ready.is_empty() {
            self.tick_progress = true;
        }
        for (tag, v) in ready {
            if self.rob.live(tag) {
                self.finish_load(tag.idx, v);
            }
        }
    }

    // ------------------------------------------------------------------
    // Rename/dispatch.
    // ------------------------------------------------------------------

    fn rename_dispatch(&mut self) {
        for _ in 0..self.cfg.decode_width {
            let Some(front) = self.ibuf.front() else { break };
            if self.rob.is_full() {
                self.perf.rob_full_cycles += 1;
                self.rename_blocked_rob = true;
                break;
            }
            // Fetch fault pseudo-op: becomes an exception-carrying entry.
            if let Some((cause, tval)) = front.fault {
                self.tick_progress = true;
                let pu = self.ibuf.pop_front().expect("front");
                let uop = Uop::new(pu.pc, pu.inst, None, pu.npc);
                let idx = self.rob.push(uop).idx;
                self.rob.hot_mut(idx).state = RobState::Done;
                let c = self.rob.cold_mut(idx);
                c.exception = Some((cause, tval));
                c.life.fetched = pu.fetched_at;
                c.life.decoded = pu.fetched_at;
                c.life.renamed = self.cycle;
                c.life.dispatched = self.cycle;
                break;
            }
            // Try fusion with the next entry.
            let fuse_next = self.cfg.fusion
                && self.ibuf.get(1).is_some_and(|b| {
                    front.pred.is_none()
                        && b.pred.is_none()
                        && b.fault.is_none()
                        && b.pc == front.pc + front.inst.len as u64
                        && try_fuse(&front.inst, &b.inst)
                });
            // Structural hazards are tested on the ibuf entry itself: a
            // stalled cycle builds no uop and moves nothing.
            let plan = self.rename_plan(front.pc, &front.inst, fuse_next);
            if self.rename_stalls(&plan) {
                break;
            }
            let a = self.ibuf.pop_front().expect("front");
            let uop = if fuse_next {
                let b = self.ibuf.pop_front().expect("fusion partner");
                fuse(a.pc, a.inst, b.inst, b.npc)
            } else {
                Uop::new(a.pc, a.inst, a.pred, a.npc)
            };
            self.rename_one(uop, a.fetched_at, &plan);
            self.tick_progress = true;
        }
    }

    fn rename_plan(&self, pc: u64, d: &DecodedInst, fused: bool) -> RenamePlan {
        // A fused pair writes the integer register both halves name.
        let dest_fp = if fused { Some(false) } else { dest_of(d).map(|r| r.fp) };
        let move_elim = self.cfg.move_elimination && !fused && is_reg_move(d);
        RenamePlan {
            is_load: d.is_load() && !matches!(d.op, Op::LrW | Op::LrD),
            is_store: d.is_store() && !d.is_amo() && !matches!(d.op, Op::ScW | Op::ScD),
            commit_exec: d.is_system()
                || d.is_amo()
                || matches!(d.op, Op::LrW | Op::LrD | Op::ScW | Op::ScD | Op::Illegal),
            qi: match d.fu_class() {
                FuClass::Alu | FuClass::Bru => (pc >> 2) as usize % 2,
                FuClass::Mdu => 2,
                FuClass::Store => 3,
                FuClass::Load => 4,
                FuClass::Fma => 5,
                FuClass::Fmisc => 6,
            },
            move_elim,
            alloc_fp: dest_fp.filter(|_| !move_elim),
        }
    }

    /// True when a structural hazard (LQ/SQ, issue queue, free list)
    /// keeps the planned uop from renaming this cycle.
    fn rename_stalls(&mut self, plan: &RenamePlan) -> bool {
        if plan.is_load && self.lsu.lq_full() || plan.is_store && self.lsu.sq_full() {
            return true;
        }
        if !plan.commit_exec && self.iqs[plan.qi].is_full() {
            self.rename_blocked_iq = true;
            return true;
        }
        plan.alloc_fp.is_some_and(|fp| {
            let prf = if fp { &self.prf_fp } else { &self.prf_int };
            prf.free_count() == 0
        })
    }

    /// Rename and dispatch one uop whose plan found no hazard.
    fn rename_one(&mut self, uop: Uop, fetched_at: u64, plan: &RenamePlan) {
        let d = uop.inst;
        // Map sources.
        let mut phys_srcs: [Option<(bool, PReg)>; 3] = [None; 3];
        for (i, s) in uop.srcs.iter().enumerate() {
            if let Some(s) = s {
                let p = if s.fp {
                    self.rat_fp[s.idx as usize]
                } else {
                    self.rat_int[s.idx as usize]
                };
                phys_srcs[i] = Some((s.fp, p));
            }
        }
        let is_cf = d.is_control_flow();
        let pc = uop.pc;
        let dest = uop.dest;
        let move_src = plan.move_elim.then(|| uop.move_src());
        let tag = self.rob.push(uop);
        let idx = tag.idx;
        self.perf.dispatched += 1;
        let mut e = *self.rob.hot(idx);
        e.phys_srcs = phys_srcs;
        e.commit_exec = plan.commit_exec;
        let c = self.rob.cold_mut(idx);
        let at = if fetched_at != 0 { fetched_at } else { self.cycle };
        c.life.fetched = at;
        c.life.decoded = at;
        c.life.renamed = self.cycle;
        c.life.dispatched = self.cycle;
        if d.op == Op::Illegal {
            c.exception = Some((Exception::IllegalInstruction, d.raw as u64));
            e.state = RobState::Done;
        }
        // Destination renaming.
        if let Some(dest) = dest {
            let rat = if dest.fp { &mut self.rat_fp } else { &mut self.rat_int };
            e.old_phys = rat[dest.idx as usize];
            e.has_dest = true;
            if let Some(src) = move_src {
                let shared = rat[src as usize];
                self.prf_int.addref(shared);
                e.phys_rd = shared;
                e.eliminated = true;
                e.state = RobState::Done;
                self.perf.moves_eliminated += 1;
            } else {
                let prf = if dest.fp { &mut self.prf_fp } else { &mut self.prf_int };
                e.phys_rd = prf.alloc().expect("checked free");
                e.dest_fp = dest.fp;
            }
            rat[dest.idx as usize] = e.phys_rd;
        }
        // Control-flow snapshot (after renaming own dest).
        if is_cf {
            c.rat_snapshot = (self.rat_int, self.rat_fp);
        }
        // LSQ allocation.
        if plan.is_load {
            e.lq_idx = Some(self.lsu.alloc_load(tag, d.mem_size()));
        }
        if plan.is_store {
            e.sq_idx = Some(self.lsu.alloc_store(tag.seq, d.mem_size()));
        }
        // PUBS marking.
        let mut high_priority = false;
        if self.cfg.issue_policy == IssuePolicy::Pubs
            && d.is_branch()
            && self.pubs_conf.unconfident(pc)
        {
            high_priority = true;
            self.perf.high_priority_dispatched += 1;
            // Mark in-flight producers of the branch's operands.
            for r in [d.rs1, d.rs2] {
                let producer = self.pubs_def.producer_of(r);
                if producer != 0 {
                    for iq in &mut self.iqs {
                        iq.mark_high_priority(producer);
                    }
                }
            }
        }
        if let Some(dest) = dest {
            if !dest.fp {
                self.pubs_def.define(dest.idx, tag.seq);
            }
        }
        *self.rob.hot_mut(idx) = e;
        // Dispatch.
        if !plan.commit_exec && !e.eliminated {
            let (int, fp) = (&mut self.prf_int, &mut self.prf_fp);
            self.iqs[plan.qi].dispatch(tag, high_priority, phys_srcs, int, fp);
        }
    }

    // ------------------------------------------------------------------
    // Fetch + predecode.
    // ------------------------------------------------------------------

    fn fetch(&mut self, mem: &mut MemSystem) {
        if self.pending_fetch.is_some()
            || self.fetch_fault_pending
            || self.cycle < self.fetch_stall_until
            || self.ibuf.len() >= 48
        {
            return;
        }
        // Past the guards the MMU walk below can fill TLBs even when the
        // L1I later rejects the request, so this tick mutated state.
        self.tick_progress = true;
        let pc = self.fetch_pc;
        let mut view = CoherentView(mem);
        let pa = match self.mmu.translate(&mut view, &self.csr, pc, AccessType::Fetch) {
            MmuResult::Done { pa, latency } => {
                if latency > 0 {
                    self.fetch_stall_until = self.cycle + latency;
                    self.events.push(self.fetch_stall_until);
                }
                pa
            }
            MmuResult::Fault { cause, .. } => {
                self.ibuf.push_back(PreUop {
                    pc,
                    inst: DecodedInst::default(),
                    pred: None,
                    npc: pc,
                    fault: Some((cause, pc)),
                    fetched_at: self.cycle,
                });
                self.fetch_fault_pending = true;
                return;
            }
        };
        let block = pa & !31;
        let id = ((self.hart as u64) << 56) | FETCH_ID_FLAG | self.next_req;
        self.next_req += 1;
        if mem.submit_fetch(self.hart, block, id) {
            self.pending_fetch = Some((id, pc, self.fetch_epoch));
        }
    }

    fn predecode(&mut self, start_pc: u64, block: [u8; 32]) {
        let block_base = start_pc & !31;
        let mut pc = start_pc;
        let mut count = 0;
        // Combine with a previous partial 4-byte instruction.
        if let Some((ppc, low)) = self.partial_fetch.take() {
            let hi = u16::from_le_bytes([block[0], block[1]]) as u32;
            let raw = (hi << 16) | low as u32;
            let inst = riscv_isa::decode32(raw);
            if self.push_predecoded(ppc, inst) {
                return; // taken branch redirected fetch
            }
            pc = ppc + 4;
            count += 1;
        }
        while count < 8 && pc >= block_base && pc < block_base + 32 {
            let off = (pc - block_base) as usize;
            // pc is 2-byte aligned, so off <= 30 and off + 1 is in range.
            let low = u16::from_le_bytes([block[off], block[off + 1]]);
            let is32 = low & 3 == 3;
            if is32 && off + 4 > 32 {
                // Spans the block: save the low half.
                self.partial_fetch = Some((pc, low));
                self.fetch_pc = block_base + 32;
                return;
            }
            let inst = if is32 {
                let raw = u32::from_le_bytes([
                    block[off],
                    block[off + 1],
                    block[off + 2],
                    block[off + 3],
                ]);
                riscv_isa::decode32(raw)
            } else {
                riscv_isa::decode16(low)
            };
            let ilen = inst.len as u64;
            if self.push_predecoded(pc, inst) {
                return;
            }
            pc += ilen;
            count += 1;
        }
        self.fetch_pc = pc;
    }

    /// Push one predecoded instruction; returns true when a predicted-
    /// taken control flow redirected fetch (ending the block).
    fn push_predecoded(&mut self, pc: u64, inst: DecodedInst) -> bool {
        if cf_kind(&inst).is_some() {
            let pred = self.bpu.predict(pc, &inst);
            let npc = if pred.taken {
                pred.target
            } else {
                pc + inst.len as u64
            };
            let taken = pred.taken;
            let ubtb_hit = pred.ubtb_hit;
            self.ibuf.push_back(PreUop {
                pc,
                inst,
                pred: Some(pred),
                npc,
                fault: None,
                fetched_at: self.cycle,
            });
            if taken {
                self.fetch_pc = npc;
                if !ubtb_hit {
                    self.fetch_stall_until = self.cycle + 2;
                    self.events.push(self.fetch_stall_until);
                }
                return true;
            }
            false
        } else {
            self.ibuf.push_back(PreUop {
                pc,
                inst,
                pred: None,
                npc: pc + inst.len as u64,
                fault: None,
                fetched_at: self.cycle,
            });
            false
        }
    }

    // ------------------------------------------------------------------
    // Store buffer drain.
    // ------------------------------------------------------------------

    fn drain_sbuffer(&mut self, mem: &mut MemSystem) {
        let cycle = self.cycle;
        let Some(head) = self.lsu.sbuffer.front() else {
            return;
        };
        if head.issued || head.drain_at > cycle {
            return;
        }
        // A submit attempt (hit or rejected) counts as progress: MSHR
        // rejection statistics accrue per attempted cycle.
        self.tick_progress = true;
        let (paddr, size, data) = (head.paddr, head.size, head.data);
        let id = self.req_id(MemReqKind::SbufferDrain);
        let req = CoreReq {
            core: self.hart,
            kind: AccessKind::Store,
            addr: paddr,
            size,
            data,
            id,
        };
        if mem.submit_data(req) {
            self.lsu.sbuffer.front_mut().expect("head").issued = true;
        } else {
            self.mem_inflight.remove(id);
        }
    }
}

impl Core {
    /// Fault injection for verification demos (the paper's artifact
    /// "intentionally injects a fault into XiangShan"): XOR a mask into
    /// the current architectural value of an integer register. The next
    /// consumer commits a wrong value, which DiffTest must catch.
    pub fn inject_fault_gpr(&mut self, reg: u8, xor_mask: u64) {
        if reg == 0 {
            return;
        }
        let p = self.rat_int[reg as usize];
        let v = self.prf_int.read(p);
        self.write_preg(false, p, v ^ xor_mask);
        let ap = self.arat_int[reg as usize];
        if ap != p {
            let av = self.prf_int.read(ap);
            self.write_preg(false, ap, av ^ xor_mask);
        }
    }

    /// Diagnostic view of the ROB head and pipeline state.
    pub fn debug_head(&self) -> String {
        let head = self.rob.head().map(|h| {
            let (e, uop) = (self.rob.hot(h), &self.rob.cold(h).uop);
            format!(
                "seq {} pc {:#x} {:?} state {:?} lq {:?} sq {:?} replay {}",
                e.seq, uop.pc, uop.inst.op, e.state, e.lq_idx, e.sq_idx, e.replay_at_commit
            )
        });
        format!(
            "head={head:?} rob={} iqs={:?} fu={} inflight={} replayq={} stall={:?} sbuf={} ibuf={} pend_fetch={}",
            self.rob.len(),
            self.iqs.iter().map(|q| q.len()).collect::<Vec<_>>(),
            self.fu_pipe.len(),
            self.mem_inflight.len(),
            self.replay_q.len(),
            self.commit_stall,
            self.lsu.sbuffer.len(),
            self.ibuf.len(),
            self.pending_fetch.is_some(),
        )
    }

    /// Observe another hart's store entering the shared memory (clears a
    /// matching LR reservation, like a remote write invalidating the
    /// reservation set).
    pub fn snoop_remote_store(&mut self, paddr: u64, size: u64) {
        if let Some(g) = self.reservation {
            let start = paddr & !(RESERVATION_GRANULE - 1);
            let end = (paddr + size - 1) & !(RESERVATION_GRANULE - 1);
            if g == start || g == end {
                self.reservation = None;
                self.perf.reservation_snoop_kills += 1;
            }
        }
    }
}

/// Corrupt a writeback value according to an armed [`InjectedBug`].
fn apply_injected_bug(bug: crate::config::InjectedBug, op: Op, value: u64) -> u64 {
    use crate::config::InjectedBug::*;
    match bug {
        MulLowBit if op == Op::Mul => value ^ 1,
        AddwNoSext if op == Op::Addw => value & 0xffff_ffff,
        _ => value,
    }
}

#[inline]
fn has_imm_operand(op: Op) -> bool {
    use Op::*;
    matches!(
        op,
        Addi | Slti | Sltiu | Xori | Ori | Andi | Slli | Srli | Srai | Addiw | Slliw | Srliw
            | Sraiw | Rori | Roriw | SlliUw
    )
}

fn fu_latency(class: FuClass, d: &DecodedInst) -> u64 {
    use Op::*;
    match class {
        FuClass::Alu | FuClass::Bru => 1,
        FuClass::Mdu => match d.op {
            Mul | Mulh | Mulhsu | Mulhu | Mulw => 3,
            _ => 20, // divide
        },
        FuClass::Fma => 5, // cascade FMA (paper §IV-A)
        FuClass::Fmisc => match d.op {
            FdivS | FdivD => 12,
            FsqrtS | FsqrtD => 14,
            _ => 3,
        },
        FuClass::Load | FuClass::Store => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::XsConfig;
    use riscv_isa::mem::{PhysMem, SparseMemory};
    use riscv_isa::state::ArchState;

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
    fn restore_arch_state_invalidates_lr_reservation() {
        // A reservation acquired on the pre-rollback path (a replayed or
        // squashed LR) must not give a post-restore SC a stale success
        // window.
        let boot = 0x8000_0000u64;
        let mut core = Core::new(XsConfig::nh(), 0, boot);
        core.reservation = Some(0x8002_0000 & !(RESERVATION_GRANULE - 1));
        core.lr_cycle = 42;
        core.restore_arch_state(&ArchState::new(boot, 0));
        assert_eq!(core.reservation, None, "stale LR reservation survived restore");
        assert_eq!(core.lr_cycle, 0, "stale LR timestamp survived restore");
    }

    #[test]
    fn inflight_arena_rejects_stale_and_fetch_ids() {
        let mut a = InflightArena::default();
        let load = |seq| MemReqKind::Load { tag: RobTag { seq, ..Default::default() } };
        let id0 = a.insert(1, load(7));
        assert_eq!(id0 >> 56, 1, "hart tag in the top byte");
        assert_eq!(a.remove(id0), Some(load(7)));
        assert_eq!(a.remove(id0), None, "double completion ignored");
        // The slot is reused with a bumped generation: the old id is
        // recognized as stale instead of matching the new request.
        let id1 = a.insert(1, MemReqKind::SbufferDrain);
        assert_eq!(id0 & 0xffff, id1 & 0xffff, "slot reused");
        assert_ne!(id0, id1, "generation distinguishes reuse");
        assert_eq!(a.remove(id0), None, "stale generation ignored");
        assert_eq!(a.remove(id1), Some(MemReqKind::SbufferDrain));
        assert_eq!(a.len(), 0);
        // Fetch ids never enter the arena.
        assert_eq!(a.remove(FETCH_ID_FLAG | 3), None);
    }

    #[test]
    fn inflight_arena_retain_flushes_in_slot_order() {
        let mut a = InflightArena::default();
        let load = |seq| MemReqKind::Load { tag: RobTag { seq, ..Default::default() } };
        let keep = a.insert(0, load(3));
        let drop1 = a.insert(0, load(9));
        let drain = a.insert(0, MemReqKind::SbufferDrain);
        a.retain(|k| !matches!(k, MemReqKind::Load { tag } if tag.seq > 5));
        assert_eq!(a.len(), 2);
        assert_eq!(a.remove(drop1), None, "flushed entry gone");
        assert_eq!(a.remove(keep), Some(load(3)));
        assert_eq!(a.remove(drain), Some(MemReqKind::SbufferDrain));
    }

    #[test]
    fn event_queue_skips_spent_entries() {
        let mut q = EventQueue::default();
        q.push(10);
        q.push(4);
        q.push(10);
        q.push(25);
        assert_eq!(q.next_after(10), Some(25), "entries at or before now are spent");
        assert_eq!(q.next_after(24), Some(25), "future entry is peeked, not consumed");
        assert_eq!(q.next_after(25), None);
        assert_eq!(q.next_after(0), None, "queue drained");
    }
}
