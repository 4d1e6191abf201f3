//! The superblock trace-execution tier: one step past the uop cache of
//! [`crate::fast`] (paper §III-D1, ROADMAP item 1's DBT-successor).
//!
//! Where [`crate::fast::Nemu`] memoizes one basic block per trace and
//! re-enters the dispatch loop at every control transfer, this tier
//! builds **superblocks** — linear trace buffers that span multiple
//! basic blocks — and keeps control inside them:
//!
//! - **superblock formation**: decode continues straight through
//!   conditional branches (the fall-through is the next trace slot) and
//!   follows direct `jal` targets inline, so a loop body with calls
//!   flattens into one linear buffer. A trace ends at an indirect jump,
//!   a slow (system) instruction, the length cap, or when it reaches a
//!   pc that already heads another trace (a chain sentinel joins them).
//! - **direct-threaded dispatch**: every uop carries a pre-resolved
//!   handler index (a dense `u8` dispatched through one jump table), and
//!   the hot integer ops get dedicated handlers with fully inlined
//!   semantics instead of a generic `int_compute` dispatch. The handlers
//!   are one function, `exec`, that both `run()` and `step_one()` expand
//!   (`arm.rs`).
//! - **hot-trace chaining with patch-on-resolve**: a taken branch whose
//!   target trace does not exist yet exits through the outer loop and
//!   records the exiting uop; when the target trace is resolved, the
//!   exit edge is patched to transfer directly on every later execution.
//!   Backward branches whose target is already inside the trace being
//!   built are resolved at fill time (loops chain immediately).
//! - **inline TLB micro-caches**: when data translation is active, loads
//!   and stores probe a 2-entry `{vpn, ppn}` micro-cache before falling
//!   back to the full Sv39 walk; load and store caches are separate so a
//!   store-fill always reflects a D-bit-updating walk.
//!
//! Invalidation is deliberately coarse — whole-cache flush on `fence.i`,
//! `sfence.vma`, privilege transitions (`mret`/`sret`/any trap), and
//! `csrrw` to `satp`; micro-TLBs additionally clear on *any* CSR write
//! (which is what can retarget `satp`/`mstatus.MPRV` without a flush).
//! Because traces only ever grow between flushes, a patched chain link
//! can never dangle, so chained transfers skip the target-revalidation
//! that [`crate::fast::Nemu`]'s `chase` pays on every branch.

use crate::arm::{self, Flow, Lane, Machine, Record};
use crate::hart::{self, Hart, StepInfo};
use crate::interp::{CommitSink, Granularity, Interpreter, RunResult};
use riscv_isa::exec::{has_imm_operand, int_compute};
use riscv_isa::fpu::Host;
use riscv_isa::mem::{IntBuildHasher, PhysMem, SparseMemory};
use riscv_isa::mmu::{self, AccessType};
use riscv_isa::op::{DecodedInst, Op};
use std::collections::HashMap;

const UNRESOLVED: u32 = u32::MAX;
/// Length cap of one superblock in uops (sentinels excluded).
const MAX_SUPERBLOCK: usize = 256;

// Handler indices. Dense u8 codes dispatched through a single `match`
// (one jump table) — the "pre-resolved handler index" of the trace tier.
// Branches are kept contiguous so fill-time logic can range-test them.
const H_LI: u8 = 0;
const H_MV: u8 = 1;
const H_ADDI: u8 = 2;
const H_ADD: u8 = 3;
const H_SUB: u8 = 4;
const H_AND: u8 = 5;
const H_OR: u8 = 6;
const H_XOR: u8 = 7;
const H_ANDI: u8 = 8;
const H_ORI: u8 = 9;
const H_XORI: u8 = 10;
const H_SLLI: u8 = 11;
const H_SRLI: u8 = 12;
const H_SRAI: u8 = 13;
const H_ADDW: u8 = 14;
const H_ADDIW: u8 = 15;
const H_SLT: u8 = 16;
const H_SLTU: u8 = 17;
const H_ALU_RI: u8 = 18;
const H_ALU_RR: u8 = 19;
const H_LD: u8 = 20;
const H_LW: u8 = 21;
const H_LWU: u8 = 22;
const H_LH: u8 = 23;
const H_LHU: u8 = 24;
const H_LB: u8 = 25;
const H_LBU: u8 = 26;
const H_SD: u8 = 27;
const H_SW: u8 = 28;
const H_SH: u8 = 29;
const H_SB: u8 = 30;
const H_FLW: u8 = 31;
const H_FLD: u8 = 32;
const H_FSW: u8 = 33;
const H_FSD: u8 = 34;
const H_HOSTFP: u8 = 35;
const H_BEQ: u8 = 36;
const H_BNE: u8 = 37;
const H_BLT: u8 = 38;
const H_BGE: u8 = 39;
const H_BLTU: u8 = 40;
const H_BGEU: u8 = 41;
const H_JAL_INLINE: u8 = 42;
const H_JAL_CHAIN: u8 = 43;
const H_JALR: u8 = 44;
const H_RET: u8 = 45;
const H_NOP: u8 = 46;
const H_SLOW: u8 = 47;
/// Sentinel: join another trace at `link` without executing anything.
const H_CHAIN: u8 = 48;
/// Sentinel: length cap hit — re-enter the outer loop at `pc`.
const H_GOTO: u8 = 49;

#[inline]
fn is_branch(h: u8) -> bool {
    (H_BEQ..=H_BGEU).contains(&h)
}

/// One trace-buffer entry.
#[derive(Debug, Clone, Copy)]
struct TUop {
    h: u8,
    /// Destination register, redirected to 32 when the instruction
    /// architecturally targets `x0`.
    rd: u8,
    rs1: u8,
    rs2: u8,
    /// Chained upc of the taken/indirect target (`UNRESOLVED` until the
    /// target trace exists and the edge gets patched).
    link: u32,
    /// The immediate; for `auipc`, `pc` folded in; for a host-FP op (which
    /// has none), its operands' register files (`arm::fp_shape`).
    imm: i64,
    pc: u64,
    next_pc: u64,
    /// Static taken-target pc (branches, chained jal); for indirect
    /// jumps the last target the link was patched for, re-validated at
    /// dispatch.
    tpc: u64,
    /// Full decode result for the generic handlers.
    inst: DecodedInst,
}

/// Template for sentinel uops (every field overridden that matters).
fn dead_tuop() -> TUop {
    TUop {
        h: H_GOTO,
        rd: 32,
        rs1: 0,
        rs2: 0,
        link: UNRESOLVED,
        imm: 0,
        pc: 0,
        next_pc: 0,
        tpc: 0,
        inst: DecodedInst::default(),
    }
}

/// One micro-TLB entry (4 KiB granule, also used for superpage leaves).
#[derive(Debug, Clone, Copy)]
struct TlbEntry {
    vpn: u64,
    ppn: u64,
}

/// A 2-entry `{vpn, ppn}` micro-TLB.
#[derive(Debug, Clone)]
struct MicroTlb {
    entries: [TlbEntry; 2],
    next: usize,
}

impl MicroTlb {
    const EMPTY: MicroTlb = MicroTlb {
        entries: [TlbEntry {
            vpn: u64::MAX,
            ppn: 0,
        }; 2],
        next: 0,
    };

    /// The physical address of `va`, from an entry or from a walk that
    /// fills one; `None` when the walk faults.
    #[inline]
    fn pa(
        &mut self,
        m: &mut Machine,
        stats: &mut TraceStats,
        va: u64,
        access: AccessType,
    ) -> Option<u64> {
        let vpn = va >> 12;
        for e in &self.entries {
            if e.vpn == vpn {
                stats.tlb_hits += 1;
                return Some((e.ppn << 12) | (va & 0xfff));
            }
        }
        stats.tlb_misses += 1;
        let t = mmu::translate(m.mem, &m.hart.state.csr, va, access).ok()?;
        let e = TlbEntry {
            vpn,
            ppn: t.pa >> 12,
        };
        self.entries[self.next] = e;
        self.next ^= 1;
        Some((e.ppn << 12) | (va & 0xfff))
    }
}

/// The data side's translation. Load and store micro-TLBs are separate,
/// so that a store entry always comes from a walk that performed the
/// D-bit update and a hit never skips one.
#[derive(Debug, Clone)]
struct DataTlb {
    /// Data accesses translate.
    on: bool,
    load: MicroTlb,
    store: MicroTlb,
}

impl DataTlb {
    /// The physical address of a `size`-byte access at `va`, or `None`
    /// when it must take the architectural path, which re-raises a fault
    /// with full state: it crosses a page, its walk faults, or it is a
    /// recorded step's (which must equal `hart::step`'s, walk included).
    #[inline(always)]
    fn pa<L: Lane>(
        &mut self,
        m: &mut Machine,
        stats: &mut TraceStats,
        va: u64,
        size: u64,
        store: bool,
    ) -> Option<u64> {
        if !self.on {
            return Some(va);
        }
        if L::RECORDS || (va & 0xfff) + size > 0x1000 {
            return None;
        }
        if store {
            self.store.pa(m, stats, va, AccessType::Store)
        } else {
            self.load.pa(m, stats, va, AccessType::Load)
        }
    }

    fn clear(&mut self) {
        self.load = MicroTlb::EMPTY;
        self.store = MicroTlb::EMPTY;
    }
}

/// Trace-tier statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Trace-entry hits in the pc→upc map plus chained transfers.
    pub trace_hits: u64,
    /// Uops decoded into trace buffers.
    pub trace_fills: u64,
    /// Superblocks built.
    pub traces_built: u64,
    /// Exit edges patched on resolve.
    pub links_patched: u64,
    /// Whole-cache flushes (capacity or system events).
    pub flushes: u64,
    /// Instructions executed through the slow path.
    pub slow_steps: u64,
    /// Micro-TLB hits on the data fast path.
    pub tlb_hits: u64,
    /// Micro-TLB misses that took a full walk.
    pub tlb_misses: u64,
}

/// The superblock trace-execution interpreter.
#[derive(Debug, Clone)]
pub struct NemuTrace {
    hart: Hart,
    mem: SparseMemory,
    /// The record [`Interpreter::step_one`] lends: the last step's.
    info: StepInfo,
    /// Shadow GPR file of the trace loop (slot 32 swallows `x0` writes).
    /// Live only inside [`Self::run_fast`]; `hart.state.gpr` is the
    /// truth everywhere else.
    regs: [u64; 33],
    code: Vec<TUop>,
    map: HashMap<u64, u32, IntBuildHasher>,
    /// Where `step_one` expects its next uop: the slot after the one it
    /// last executed.
    cursor: u32,
    capacity: usize,
    /// Traces may be built and entered: instruction fetch is
    /// untranslated and `mstatus.FS` is on (no FP arm tests it).
    fast_path: bool,
    /// Loads and stores translate through it when data accesses translate.
    tlb: DataTlb,
    /// Exiting uop awaiting a chain patch once its target resolves.
    pending_patch: Option<u32>,
    /// Trace statistics.
    pub stats: TraceStats,
}

impl NemuTrace {
    /// Default trace-buffer capacity in uops (matches the uop cache).
    pub const DEFAULT_CAPACITY: usize = 16384;

    /// Boot a program with the default trace-buffer capacity.
    pub fn new(program: &riscv_isa::asm::Program) -> Self {
        Self::with_capacity(program, Self::DEFAULT_CAPACITY)
    }

    /// Boot a program with an explicit trace-buffer capacity.
    pub fn with_capacity(program: &riscv_isa::asm::Program, capacity: usize) -> Self {
        let (hart, mem) = crate::interp::boot(program);
        Self::from_parts_with_capacity(hart, mem, capacity)
    }

    /// Construct directly from a hart + memory (checkpoint restore path).
    pub fn from_parts(hart: Hart, mem: SparseMemory) -> Self {
        Self::from_parts_with_capacity(hart, mem, Self::DEFAULT_CAPACITY)
    }

    fn from_parts_with_capacity(hart: Hart, mem: SparseMemory, capacity: usize) -> Self {
        let mut n = NemuTrace {
            info: StepInfo::at(hart.state.pc),
            hart,
            mem,
            regs: [0; 33],
            code: Vec::with_capacity(capacity),
            map: HashMap::default(),
            cursor: 0,
            capacity,
            fast_path: true,
            tlb: DataTlb {
                on: false,
                load: MicroTlb::EMPTY,
                store: MicroTlb::EMPTY,
            },
            pending_patch: None,
            stats: TraceStats::default(),
        };
        n.refresh_modes();
        n
    }

    fn refresh_modes(&mut self) {
        let csr = &self.hart.state.csr;
        self.fast_path = !mmu::translation_active(csr, AccessType::Fetch) && csr.fp_enabled();
        self.tlb.on = mmu::translation_active(csr, AccessType::Load);
    }

    /// Leave the shadow domain: export the GPR file and credit the
    /// `retired` instructions the trace loop executed since it entered.
    fn sync_regs_to_hart(&mut self, retired: u64) {
        self.hart.state.gpr.copy_from_slice(&self.regs[..32]);
        self.hart.instret += retired;
        let csr = &mut self.hart.state.csr;
        csr.minstret = csr.minstret.wrapping_add(retired);
        csr.mcycle = csr.mcycle.wrapping_add(retired);
    }

    fn sync_regs_from_hart(&mut self) {
        self.regs[..32].copy_from_slice(&self.hart.state.gpr);
        self.regs[0] = 0;
    }

    fn flush(&mut self) {
        self.code.clear();
        self.map.clear();
        self.pending_patch = None;
        self.tlb.clear();
        self.stats.flushes += 1;
    }

    /// Build a superblock starting at `pc`, returning the upc of its
    /// head, or `None` when the fast path cannot run.
    fn fill(&mut self, pc: u64) -> Option<u32> {
        if !self.fast_path {
            return None;
        }
        if self.code.len() + MAX_SUPERBLOCK + 1 > self.capacity {
            self.flush();
        }
        let head = self.code.len() as u32;
        self.stats.traces_built += 1;
        let mut p = pc;
        for _ in 0..MAX_SUPERBLOCK {
            if p != pc {
                if let Some(&u) = self.map.get(&p) {
                    // The superblock ran into an existing trace: join it
                    // through a chain sentinel instead of duplicating.
                    self.code.push(TUop {
                        h: H_CHAIN,
                        link: u,
                        pc: p,
                        next_pc: p,
                        ..dead_tuop()
                    });
                    return Some(head);
                }
            }
            let raw = self.mem.fetch32(p);
            let d = riscv_isa::decode(raw);
            let h = classify(&d);
            let rd = if d.rd == 0 { 32 } else { d.rd };
            let imm = match (h, d.op) {
                // auipc folds pc into the immediate at decode time.
                (H_LI, Op::Auipc) => p.wrapping_add(d.imm as u64) as i64,
                (H_HOSTFP, _) => arm::fp_shape(&d),
                _ => d.imm,
            };
            let next_pc = p.wrapping_add(d.len as u64);
            let tpc = if is_branch(h) || h == H_JAL_INLINE {
                p.wrapping_add(d.imm as u64)
            } else {
                0
            };
            // Backward branches whose target is already in a trace chain
            // at fill time — loops transfer directly from day one.
            let link = if is_branch(h) {
                self.map.get(&tpc).copied().unwrap_or(UNRESOLVED)
            } else {
                UNRESOLVED
            };
            let idx = self.code.len() as u32;
            self.code.push(TUop {
                h,
                rd,
                rs1: d.rs1,
                rs2: d.rs2,
                link,
                imm,
                pc: p,
                next_pc,
                tpc,
                inst: d,
            });
            self.map.insert(p, idx);
            self.stats.trace_fills += 1;
            match h {
                // Indirect/system: the superblock ends here.
                H_JALR | H_RET | H_SLOW => return Some(head),
                // Direct jump: follow it inline — the target's uops are
                // decoded straight into this trace. If the target is
                // already mapped (including `j .` self-loops, whose pc
                // was mapped by the push above), chain instead.
                H_JAL_INLINE => {
                    if let Some(&u) = self.map.get(&tpc) {
                        self.code[idx as usize].h = H_JAL_CHAIN;
                        self.code[idx as usize].link = u;
                        return Some(head);
                    }
                    p = tpc;
                }
                // Conditional branches fall through inside the trace.
                _ => p = next_pc,
            }
        }
        // Length cap hit mid-flow; continue through the outer loop at the
        // unfinished pc (not mapped: the instruction there gets its own
        // trace later).
        self.code.push(TUop {
            h: H_GOTO,
            pc: p,
            next_pc: p,
            ..dead_tuop()
        });
        Some(head)
    }

    /// One architectural step through [`hart::step_into`], followed by
    /// the invalidation its system events call for.
    fn arch_step(&mut self) -> &StepInfo {
        hart::step_into(&mut self.hart, &mut self.mem, &mut self.info);
        self.stats.slow_steps += 1;
        self.after_system_step();
        &self.info
    }

    /// System events (the step in `self.info`) invalidate cached
    /// traces/translations.
    fn after_system_step(&mut self) {
        if self.info.invalidates_decodes() {
            self.flush();
        } else if self.info.inst.is_system() {
            // The micro-TLBs were filled under mstatus' MPRV, SUM and MXR,
            // which a CSR write changes without a flush: drop them.
            self.tlb.clear();
        }
        self.refresh_modes();
    }

    /// A slow step taken from inside the trace loop: leave the shadow
    /// domain (crediting the loop's `retired` count), step, re-enter.
    fn slow_step(&mut self, retired: u64) -> &StepInfo {
        self.sync_regs_to_hart(retired);
        self.arch_step();
        self.sync_regs_from_hart();
        &self.info
    }

    /// The upc of the trace at `pc`, built if need be, or `None` when no
    /// trace can serve `pc`. Patch-on-resolve: the edge that exited last
    /// now has a live target. Static edges (branch/jal) patch only when
    /// `pc` is their own target; indirect edges re-validate `tpc` at
    /// dispatch, so they always adopt the newest target.
    fn enter(&mut self, pc: u64) -> Option<u32> {
        let cached = self.map.get(&pc).filter(|_| self.fast_path);
        let head = match cached {
            Some(&u) => {
                self.stats.trace_hits += 1;
                u
            }
            None => match self.fill(pc) {
                Some(u) => u,
                None => {
                    self.pending_patch = None;
                    return None;
                }
            },
        };
        if let Some(i) = self.pending_patch.take() {
            let u = &mut self.code[i as usize];
            let indirect = u.h == H_JALR || u.h == H_RET;
            if indirect {
                u.link = head;
                u.tpc = pc;
                self.stats.links_patched += 1;
            } else if u.tpc == pc {
                u.link = head;
                self.stats.links_patched += 1;
            }
        }
        Some(head)
    }

    /// The trace execution loop. With `BLOCKS`, `sink.block` hears every
    /// basic block (from the control-flow handlers and the slow steps).
    /// Out of line so that `run_until` stays a small dispatcher.
    #[inline(never)]
    fn run_fast<const BLOCKS: bool>(&mut self, max_steps: u64, sink: &mut dyn CommitSink) {
        self.sync_regs_from_hart();
        let mut steps = 0u64;
        // Instructions the loop retired that `hart.instret` has not been
        // credited with yet (see `sync_regs_to_hart`).
        let mut retired = 0u64;
        let mut block_pc = self.hart.state.pc;
        let mut block_mark = 0u64;
        // The current block ends with the step just counted.
        macro_rules! end_block {
            ($next_pc:expr) => {
                if BLOCKS {
                    sink.block(block_pc, steps - block_mark);
                    block_pc = $next_pc;
                    block_mark = steps;
                }
            };
        }
        macro_rules! slow_step {
            () => {{
                let info = self.slow_step(retired);
                retired = 0;
                steps += 1;
                if info.ends_block() {
                    end_block!(self.hart.state.pc);
                }
            }};
        }
        'outer: while steps < max_steps && !self.hart.is_halted() {
            if self.hart.pending_injection.is_some() || hart::interrupt_pending(&self.hart) {
                // Control is being redirected: the pending exit edge must
                // not be patched with the trap vector's trace.
                self.pending_patch = None;
                slow_step!();
                continue;
            }
            let Some(mut upc) = self.enter(self.hart.state.pc) else {
                slow_step!();
                continue;
            };
            let NemuTrace {
                hart,
                mem,
                regs,
                code,
                tlb,
                pending_patch,
                stats,
                ..
            } = &mut *self;
            let mut m = Machine { hart, mem };
            let code = &code[..];
            // Tight dispatch loop: stays inside the trace buffers until a
            // slow event, an unresolved edge, or fuel runs out.
            while steps < max_steps {
                let uop = &code[upc as usize];
                steps += 1;
                retired += 1;
                let flow = exec(uop, regs, &mut m, tlb, stats);
                match flow {
                    Flow::Next => upc += 1,
                    // A control transfer, which ends the block: chained, or
                    // an exit recorded for patching when its target
                    // resolves.
                    Flow::Edge { target, .. } | Flow::Jump(target) => {
                        end_block!(target);
                        match follow(uop, upc, flow, stats) {
                            Some(u) => upc = u,
                            None => {
                                m.hart.state.pc = target;
                                *pending_patch = Some(upc);
                                continue 'outer;
                            }
                        }
                    }
                    Flow::Sentinel => {
                        // No instruction executed: hop to the joined trace,
                        // or re-enter via the outer loop at the
                        // continuation pc.
                        steps -= 1;
                        retired -= 1;
                        if uop.h == H_CHAIN {
                            stats.trace_hits += 1;
                            upc = uop.link;
                        } else {
                            m.hart.state.pc = uop.pc;
                            continue 'outer;
                        }
                    }
                    Flow::Decline => {
                        // Take back the optimistic count, then slow-step
                        // (which re-executes it, retiring or trapping with
                        // full state).
                        steps -= 1;
                        retired -= 1;
                        m.hart.state.pc = uop.pc;
                        slow_step!();
                        continue 'outer;
                    }
                }
            }
            // Fuel exhausted inside the trace: record the resume pc.
            m.hart.state.pc = code[upc as usize].pc;
            break;
        }
        if BLOCKS && steps > block_mark {
            sink.block(block_pc, steps - block_mark);
        }
        self.sync_regs_to_hart(retired);
    }
}

/// The uop at `upc`, executed against the register view `x` — the one arm
/// per op that `run()` (the shadow file) and `step_one()` (the hart's
/// file and its record) both expand.
#[inline(always)]
fn exec<L: Lane>(
    uop: &TUop,
    x: &mut L,
    m: &mut Machine,
    tlb: &mut DataTlb,
    stats: &mut TraceStats,
) -> Flow {
    macro_rules! alu_rr {
        (|$a:ident, $b:ident| $v:expr) => {{
            let $a = x.x(m.hart, uop.rs1);
            let $b = x.x(m.hart, uop.rs2);
            x.set_x(m.hart, uop.rd, $v);
            Flow::Next
        }};
    }
    macro_rules! alu_ri {
        (|$a:ident, $i:ident| $v:expr) => {{
            let $a = x.x(m.hart, uop.rs1);
            let $i = uop.imm as u64;
            x.set_x(m.hart, uop.rd, $v);
            Flow::Next
        }};
    }
    // The virtual and physical address of a `$size`-byte access, or a
    // decline when this path cannot translate it.
    macro_rules! addr {
        ($size:expr, $store:expr) => {{
            let va = x.x(m.hart, uop.rs1).wrapping_add(uop.imm as u64);
            match tlb.pa::<L>(m, stats, va, $size, $store) {
                Some(pa) => (va, pa),
                None => return Flow::Decline,
            }
        }};
    }
    macro_rules! load {
        ($size:expr, |$raw:ident| $v:expr) => {{
            let (va, pa) = addr!($size, false);
            arm::load(x, m, uop.rd, va, pa, $size, |$raw| $v);
            Flow::Next
        }};
    }
    macro_rules! load_f {
        ($size:expr) => {{
            // `fpr` is indexed by the unredirected rd.
            let (va, pa) = addr!($size, false);
            arm::load_f(x, m, uop.inst.rd, va, pa, $size);
            Flow::Next
        }};
    }
    macro_rules! store {
        ($size:expr, $v:expr) => {{
            let (va, pa) = addr!($size, true);
            let v = $v;
            arm::store(x, m, va, pa, $size, v);
            Flow::Next
        }};
    }
    macro_rules! branch {
        (|$a:ident, $b:ident| $taken:expr) => {{
            let $a = x.x(m.hart, uop.rs1);
            let $b = x.x(m.hart, uop.rs2);
            let taken = $taken;
            let target = if taken { uop.tpc } else { uop.next_pc };
            Flow::Edge { taken, target }
        }};
    }
    match uop.h {
        H_LI => {
            x.set_x(m.hart, uop.rd, uop.imm as u64);
            Flow::Next
        }
        H_MV => {
            let v = x.x(m.hart, uop.rs1);
            x.set_x(m.hart, uop.rd, v);
            Flow::Next
        }
        H_ADDI => alu_ri!(|a, i| a.wrapping_add(i)),
        H_ADD => alu_rr!(|a, b| a.wrapping_add(b)),
        H_SUB => alu_rr!(|a, b| a.wrapping_sub(b)),
        H_AND => alu_rr!(|a, b| a & b),
        H_OR => alu_rr!(|a, b| a | b),
        H_XOR => alu_rr!(|a, b| a ^ b),
        H_ANDI => alu_ri!(|a, i| a & i),
        H_ORI => alu_ri!(|a, i| a | i),
        H_XORI => alu_ri!(|a, i| a ^ i),
        H_SLLI => alu_ri!(|a, i| a << (i & 63)),
        H_SRLI => alu_ri!(|a, i| a >> (i & 63)),
        H_SRAI => alu_ri!(|a, i| ((a as i64) >> (i & 63)) as u64),
        H_ADDW => alu_rr!(|a, b| a.wrapping_add(b) as i32 as i64 as u64),
        H_ADDIW => alu_ri!(|a, i| a.wrapping_add(i) as i32 as i64 as u64),
        H_SLT => alu_rr!(|a, b| ((a as i64) < (b as i64)) as u64),
        H_SLTU => alu_rr!(|a, b| (a < b) as u64),
        H_ALU_RI => {
            alu_ri!(|a, i| int_compute(uop.inst.op, a, i).expect("ALU_RI ops are int_compute-able"))
        }
        H_ALU_RR => {
            alu_rr!(|a, b| int_compute(uop.inst.op, a, b).expect("ALU_RR ops are int_compute-able"))
        }
        H_LD => load!(8, |raw| raw),
        H_LW => load!(4, |raw| raw as i32 as i64 as u64),
        H_LWU => load!(4, |raw| raw),
        H_LH => load!(2, |raw| raw as i16 as i64 as u64),
        H_LHU => load!(2, |raw| raw),
        H_LB => load!(1, |raw| raw as i8 as i64 as u64),
        H_LBU => load!(1, |raw| raw),
        H_SD => store!(8, x.x(m.hart, uop.rs2)),
        H_SW => store!(4, x.x(m.hart, uop.rs2)),
        H_SH => store!(2, x.x(m.hart, uop.rs2)),
        H_SB => store!(1, x.x(m.hart, uop.rs2)),
        H_FLW => load_f!(4),
        H_FLD => load_f!(8),
        H_FSW => store!(4, m.hart.state.fpr[uop.rs2 as usize]),
        H_FSD => store!(8, m.hart.state.fpr[uop.rs2 as usize]),
        H_HOSTFP => {
            if arm::host_fp(x, m, &uop.inst, uop.rd, uop.imm) {
                Flow::Next
            } else {
                Flow::Decline
            }
        }
        H_BEQ => branch!(|a, b| a == b),
        H_BNE => branch!(|a, b| a != b),
        H_BLT => branch!(|a, b| (a as i64) < (b as i64)),
        H_BGE => branch!(|a, b| (a as i64) >= (b as i64)),
        H_BLTU => branch!(|a, b| a < b),
        H_BGEU => branch!(|a, b| a >= b),
        H_JAL_INLINE | H_JAL_CHAIN => {
            x.set_x(m.hart, uop.rd, uop.next_pc);
            Flow::Edge {
                taken: true,
                target: uop.tpc,
            }
        }
        H_JALR => {
            // The target first: rd may alias rs1.
            let target = x.x(m.hart, uop.rs1).wrapping_add(uop.imm as u64) & !1;
            x.set_x(m.hart, uop.rd, uop.next_pc);
            Flow::Jump(target)
        }
        H_RET => Flow::Jump(x.x(m.hart, 1) & !1),
        H_NOP => Flow::Next,
        H_CHAIN | H_GOTO => Flow::Sentinel,
        _ => Flow::Decline,
    }
}

/// The upc that control reaches after the uop at `upc` went `flow`: the
/// next slot (straight-line code, a fall-through, an inlined `jal`), or
/// the uop's chain link — `None` while that is unresolved, or, for an
/// indirect jump, patched for another target.
#[inline(always)]
fn follow(uop: &TUop, upc: u32, flow: Flow, stats: &mut TraceStats) -> Option<u32> {
    let linked = match flow {
        Flow::Edge { taken: true, .. } if uop.h != H_JAL_INLINE => uop.link != UNRESOLVED,
        Flow::Jump(target) => uop.link != UNRESOLVED && uop.tpc == target,
        _ => return Some(upc + 1),
    };
    if linked {
        stats.trace_hits += 1;
        Some(uop.link)
    } else {
        None
    }
}

/// Classify an instruction into its trace-tier handler index.
fn classify(d: &DecodedInst) -> u8 {
    use Op::*;
    match d.op {
        Illegal | Ecall | Ebreak | Mret | Sret | Wfi | FenceI | SfenceVma | Csrrw | Csrrs
        | Csrrc | Csrrwi | Csrrsi | Csrrci | LrW | LrD | ScW | ScD => H_SLOW,
        _ if d.is_amo() => H_SLOW,
        Fence => H_NOP,
        Lui | Auipc => H_LI,
        Addi if d.rs1 == 0 => H_LI,
        Addi if d.imm == 0 => H_MV,
        Addi => H_ADDI,
        Add => H_ADD,
        Sub => H_SUB,
        And => H_AND,
        Or => H_OR,
        Xor => H_XOR,
        Andi => H_ANDI,
        Ori => H_ORI,
        Xori => H_XORI,
        Slli => H_SLLI,
        Srli => H_SRLI,
        Srai => H_SRAI,
        Addw => H_ADDW,
        Addiw => H_ADDIW,
        Slt => H_SLT,
        Sltu => H_SLTU,
        Jal => H_JAL_INLINE,
        Jalr if d.rd == 0 && d.rs1 == 1 && d.imm == 0 => H_RET,
        Jalr => H_JALR,
        Beq => H_BEQ,
        Bne => H_BNE,
        Blt => H_BLT,
        Bge => H_BGE,
        Bltu => H_BLTU,
        Bgeu => H_BGEU,
        Lb => H_LB,
        Lh => H_LH,
        Lw => H_LW,
        Ld => H_LD,
        Lbu => H_LBU,
        Lhu => H_LHU,
        Lwu => H_LWU,
        Flw => H_FLW,
        Fld => H_FLD,
        Sb => H_SB,
        Sh => H_SH,
        Sw => H_SW,
        Sd => H_SD,
        Fsw => H_FSW,
        Fsd => H_FSD,
        op => {
            if int_compute(op, 0, 0).is_some() {
                if has_imm_operand(op) {
                    H_ALU_RI
                } else {
                    H_ALU_RR
                }
            } else {
                // Remaining ops are floating point.
                H_HOSTFP
            }
        }
    }
}

impl Interpreter for NemuTrace {
    fn name(&self) -> &'static str {
        "nemu-trace"
    }
    fn hart(&self) -> &Hart {
        &self.hart
    }
    fn hart_mut(&mut self) -> &mut Hart {
        &mut self.hart
    }
    fn mem_mut(&mut self) -> &mut SparseMemory {
        &mut self.mem
    }
    fn clone_box(&self) -> Box<dyn Interpreter> {
        Box::new(self.clone())
    }
    fn resync(&mut self) {
        self.sync_regs_from_hart();
    }
    /// The trace uop's own arm (`exec`, the one `run()` runs) on
    /// `hart.state` and the lent record, with no micro-TLB: a translated
    /// access declines. `hart::execute_and_retire` serves a `Slow` uop or
    /// one its arm declines. Falls back to [`hart::step_into`] when no trace
    /// can serve the pc (fetch translation active, odd pc) or a trap is
    /// pending.
    fn step_one(&mut self) -> &StepInfo {
        if self.hart.is_halted() {
            hart::step_into(&mut self.hart, &mut self.mem, &mut self.info);
            return &self.info;
        }
        let pc = self.hart.state.pc;
        if !self.fast_path
            || pc & 1 != 0
            || self.hart.pending_injection.is_some()
            || hart::interrupt_pending(&self.hart)
        {
            self.pending_patch = None;
            return self.arch_step();
        }
        let upc = match self.code.get(self.cursor as usize) {
            Some(u) if u.pc == pc && u.h < H_CHAIN => self.cursor,
            _ => self.enter(pc).expect("fast_path holds, so fill succeeds"),
        };
        let NemuTrace {
            hart,
            mem,
            info,
            code,
            tlb,
            cursor,
            pending_patch,
            stats,
            ..
        } = self;
        let uop = &code[upc as usize];
        *info = StepInfo {
            inst: uop.inst,
            ..StepInfo::at(pc)
        };
        let flow = exec(
            uop,
            &mut Record(info),
            &mut Machine { hart, mem },
            tlb,
            stats,
        );
        let next_pc = match flow {
            Flow::Next => uop.next_pc,
            Flow::Edge { target, .. } | Flow::Jump(target) => target,
            Flow::Sentinel | Flow::Decline => {
                let slow = uop.h == H_SLOW;
                *cursor = upc + 1;
                let retired = hart::execute_and_retire::<Host, _>(hart, mem, &uop.inst, info);
                if slow || !retired {
                    self.after_system_step();
                }
                return &self.info;
            }
        };
        hart::retire(hart);
        hart.state.pc = next_pc;
        *cursor = follow(uop, upc, flow, stats).unwrap_or_else(|| {
            *pending_patch = Some(upc);
            UNRESOLVED
        });
        &self.info
    }
    fn run_until(&mut self, max_steps: u64, sink: &mut dyn CommitSink) -> RunResult {
        let start = self.hart.instret;
        match sink.granularity() {
            Granularity::Block => self.run_fast::<true>(max_steps, sink),
            Granularity::Nothing => self.run_fast::<false>(max_steps, sink),
        }
        RunResult {
            instructions: self.hart.instret - start,
            exit_code: self.hart.halted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::DromajoLike;
    use riscv_isa::asm::{reg::*, Asm};

    fn sum_program(n: i64) -> riscv_isa::asm::Program {
        let mut a = Asm::new(0x8000_0000);
        a.li(T0, 0);
        a.li(T1, n);
        a.li(T2, 0);
        let top = a.bound_label();
        a.add(T2, T2, T0);
        a.addi(T0, T0, 1);
        a.bne(T0, T1, top);
        a.mv(A0, T2);
        a.ebreak();
        a.assemble()
    }

    #[test]
    fn trace_loop_matches_reference() {
        let p = sum_program(1000);
        let mut t = NemuTrace::new(&p);
        let mut d = DromajoLike::new(&p);
        let rt = t.run(10_000_000);
        let rd = d.run(10_000_000);
        assert_eq!(rt.exit_code, Some((0..1000u64).sum()));
        assert_eq!(rt.exit_code, rd.exit_code);
        assert_eq!(rt.instructions, rd.instructions);
        assert_eq!(t.hart().state.gpr, d.hart().state.gpr);
    }

    #[test]
    fn loop_back_edge_chains_at_fill_time() {
        let p = sum_program(10_000);
        let mut t = NemuTrace::new(&p);
        t.run(10_000_000);
        // One superblock covers the whole program: the loop back-edge is
        // resolved during fill, so no runtime patching is ever needed.
        assert_eq!(t.stats.traces_built, 1, "{:?}", t.stats);
        assert_eq!(t.stats.links_patched, 0, "{:?}", t.stats);
        assert!(t.stats.trace_hits > 9_000, "{:?}", t.stats);
    }

    #[test]
    fn call_ret_patches_on_resolve() {
        let mut a = Asm::new(0x8000_0000);
        let func = a.label();
        let done = a.label();
        a.li(A0, 0);
        a.li(T0, 5);
        let top = a.bound_label();
        a.call(func);
        a.addi(T0, T0, -1);
        a.bnez(T0, top);
        a.j(done);
        a.bind(func);
        a.addi(A0, A0, 10);
        a.ret();
        a.bind(done);
        a.ebreak();
        let p = a.assemble();
        let mut t = NemuTrace::new(&p);
        assert_eq!(t.run(100_000).exit_code, Some(50));
        // The `ret` edge resolves once, then chains for the remaining
        // four iterations.
        assert!(t.stats.links_patched >= 1, "{:?}", t.stats);
    }

    #[test]
    fn capacity_flush() {
        // 1200 straight-line instructions split into length-capped
        // superblocks that overflow a 512-entry buffer.
        let mut a = Asm::new(0x8000_0000);
        for _ in 0..1200 {
            a.addi(T0, T0, 1);
        }
        a.mv(A0, T0);
        a.ebreak();
        let p = a.assemble();
        let mut t = NemuTrace::with_capacity(&p, 512);
        let r = t.run(100_000);
        assert_eq!(r.exit_code, Some(1200));
        assert!(
            t.stats.flushes >= 1,
            "capacity flush expected: {:?}",
            t.stats
        );
    }

    #[test]
    fn fuel_stops_mid_trace_and_resumes() {
        let p = sum_program(1000);
        let mut t = NemuTrace::new(&p);
        let mut total = 0;
        loop {
            let r = t.run(7);
            total += r.instructions;
            if r.exit_code.is_some() {
                break;
            }
            assert!(r.instructions <= 7);
        }
        let mut d = DromajoLike::new(&p);
        let rd = d.run(10_000_000);
        assert_eq!(total, rd.instructions);
        assert_eq!(t.hart().halted, rd.exit_code);
    }

    #[test]
    fn slow_path_csr_and_amo() {
        let mut a = Asm::new(0x8000_0000);
        a.li(T0, 0x8001_0000);
        a.li(T1, 7);
        a.amoadd_d(T2, T1, T0);
        a.amoadd_d(T3, T1, T0);
        a.csrrw(ZERO, riscv_isa::csr::addr::MSCRATCH, T3);
        a.csrrs(A0, riscv_isa::csr::addr::MSCRATCH, ZERO);
        a.ebreak();
        let p = a.assemble();
        let mut t = NemuTrace::new(&p);
        assert_eq!(t.run(1000).exit_code, Some(7));
        assert!(t.stats.slow_steps >= 4);
    }

    #[test]
    fn fp_in_trace_loop() {
        let mut a = Asm::new(0x8000_0000);
        a.li(T0, 2);
        a.fcvt_d_l(FT0, T0);
        a.fmv_d_x(FT1, ZERO);
        a.li(T1, 50);
        let top = a.bound_label();
        a.fmadd_d(FT1, FT0, FT0, FT1);
        a.addi(T1, T1, -1);
        a.bnez(T1, top);
        a.fcvt_l_d(A0, FT1);
        a.ebreak();
        let p = a.assemble();
        let mut t = NemuTrace::new(&p);
        assert_eq!(t.run(100_000).exit_code, Some(200));
    }

    #[test]
    fn step_one_equals_run() {
        let p = sum_program(50);
        let mut a = NemuTrace::new(&p);
        let mut b = NemuTrace::new(&p);
        while !a.hart().is_halted() {
            a.step_one();
        }
        b.run(1_000_000);
        assert_eq!(a.hart().state.gpr, b.hart().state.gpr);
        assert_eq!(a.hart().instret, b.hart().instret);
    }

    #[test]
    fn self_modifying_code_with_fence_i() {
        let mut a = Asm::new(0x8000_0000);
        let patch_site = a.label();
        let new_insn = a.label();
        a.la(T0, patch_site);
        a.la(T1, new_insn);
        a.lw(T2, 0, T1);
        a.sw(T2, 0, T0);
        a.fence_i();
        a.bind(patch_site);
        a.li(A0, 1); // replaced by li a0, 77
        a.ebreak();
        a.align(2);
        a.bind(new_insn);
        a.data_u32(0x04d0_0513); // li a0, 77
        let p = a.assemble();
        let mut t = NemuTrace::new(&p);
        assert_eq!(t.run(1000).exit_code, Some(77));
    }

    #[test]
    fn self_jump_becomes_chain() {
        // `j .` would inline forever without the already-mapped check.
        let mut a = Asm::new(0x8000_0000);
        a.li(A0, 3);
        let spin = a.bound_label();
        a.j(spin);
        let p = a.assemble();
        let mut t = NemuTrace::new(&p);
        let r = t.run(10_000);
        assert_eq!(r.exit_code, None);
        assert_eq!(r.instructions, 10_000);
        assert_eq!(t.stats.traces_built, 1, "{:?}", t.stats);
    }
}
