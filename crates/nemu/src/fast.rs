//! NEMU: the fast threaded-code interpreter with a trace-organized uop
//! cache (paper §III-D1).
//!
//! The optimizations of Fig. 7 are reproduced structurally:
//!
//! - **uop cache**: decode results (operation, pre-extracted operands,
//!   handler) are cached; fetch+decode happen only on uop-cache misses.
//! - **trace organization**: entries for a basic block are allocated
//!   sequentially, so advancing within a block is `upc + 1` — no hashing
//!   and no conflict misses. The cache is flushed only when full or on a
//!   system event (fence.i, sfence.vma, privilege/translation changes).
//! - **block chaining**: direct jumps and both edges of conditional
//!   branches cache the uop index of their target; indirect jumps query
//!   the pc→upc hash map (the slow path).
//! - **zero-register redirection**: writes to `x0` are redirected at
//!   decode time to a 33rd scratch register, removing the `rd != 0` check
//!   from every handler.
//! - **pseudo-instruction specialization**: `li`/`mv`/`ret`/`auipc` get
//!   dedicated handlers with fully inlined operands (`auipc` folds
//!   `pc + imm` into a load-immediate at decode time).
//! - **per-op handlers**: the hot integer ops, every load and store width
//!   and every branch condition have their semantics inline in their own
//!   arm; only the cold tail dispatches again through [`int_compute`].
//! - **host floating point**: FP arithmetic uses the host FPU
//!   ([`riscv_isa::fpu`]) rather than softfloat.

use crate::hart::{self, Hart, StepInfo};
use crate::interp::{CommitSink, Granularity, Interpreter, RunResult};
use riscv_isa::exec::{has_imm_operand, int_compute};
use riscv_isa::fpu::fp_execute;
use riscv_isa::mem::{IntBuildHasher, PhysMem, SparseMemory, MTIME, UART_TX};
use riscv_isa::mmu::{self, AccessType};
use riscv_isa::op::{DecodedInst, Op};
use std::collections::HashMap;

const UNRESOLVED: u32 = u32::MAX;
const MAX_TRACE: usize = 64;

/// Dispatch class of a uop (the "execution routine" pointer of Fig. 7).
/// The hot integer ops, every load and store width and every branch
/// condition have an arm of their own; the rest of the integer ALU (M,
/// Zb*, the other W forms) shares `AluRR`/`AluRI`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Handler {
    /// `rd = imm` (li, lui, and auipc with the pc folded in).
    Li,
    /// `rd = rs1` (mv).
    Mv,
    Add,
    Sub,
    And,
    Or,
    Xor,
    Slt,
    Sltu,
    Addw,
    Addi,
    Andi,
    Ori,
    Xori,
    Slli,
    Srli,
    Srai,
    Addiw,
    /// Any other two-register ALU op, via [`int_compute`].
    AluRR,
    /// Any other register-immediate ALU op, via [`int_compute`].
    AluRI,
    Lb,
    Lh,
    Lw,
    /// The one integer load that can read `MTIME`.
    Ld,
    Lbu,
    Lhu,
    Lwu,
    Flw,
    /// The one FP load that can read `MTIME`.
    Fld,
    Sb,
    Sh,
    Sw,
    Sd,
    Fsw,
    Fsd,
    /// Direct jump with link.
    Jal,
    /// Indirect jump (hash-list query).
    Jalr,
    /// `ret` — jalr x0, 0(ra), specialized.
    Ret,
    /// Conditional branches, chained on both edges.
    Beq,
    Bne,
    Blt,
    Bge,
    Bltu,
    Bgeu,
    /// Trace-length-cap sentinel: transfer to `pc` through the outer loop
    /// without consuming an instruction.
    Goto,
    /// Host-FPU floating-point operation.
    HostFp,
    /// `nop` / fence treated as no-op.
    Nop,
    /// Anything else: synchronize and take the interpreter slow path.
    Slow,
}

/// One uop-cache entry.
#[derive(Debug, Clone, Copy)]
struct Uop {
    handler: Handler,
    /// Destination register, redirected to 32 when the instruction
    /// architecturally targets `x0`.
    rd: u8,
    rs1: u8,
    rs2: u8,
    imm: i64,
    pc: u64,
    next_pc: u64,
    /// Chained upc of the taken target (branches, jal).
    target: u32,
    /// Chained upc of the fall-through (branches only).
    fallthru: u32,
    /// Full decode result for generic handlers.
    inst: DecodedInst,
}

/// uop-cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NemuStats {
    /// Block-entry hits in the pc→upc map plus chained transfers.
    pub uop_hits: u64,
    /// Fills (fetch+decode) performed.
    pub uop_fills: u64,
    /// Whole-cache flushes (capacity or system events).
    pub flushes: u64,
    /// Instructions executed through the slow path.
    pub slow_steps: u64,
}

/// The NEMU fast interpreter.
#[derive(Debug, Clone)]
pub struct Nemu {
    hart: Hart,
    mem: SparseMemory,
    /// The record [`Interpreter::step_one`] lends: the last step's.
    info: StepInfo,
    /// Shadow GPR file of the fast loop (slot 32 swallows `x0` writes).
    /// Live only inside [`Self::run_fast`]; `hart.state.gpr` is the
    /// truth everywhere else.
    regs: [u64; 33],
    /// The uop cache: grows with the uops filled, up to `capacity`.
    code: Vec<Uop>,
    map: UopMap,
    /// Where `step_one` expects its next uop: the slot after the one it
    /// last executed.
    cursor: u32,
    /// Entries at which `fill` flushes the cache (a bound, not a
    /// reservation: a boot allocates no uop).
    capacity: usize,
    fast_mem: bool,
    /// Cache/trace statistics.
    pub stats: NemuStats,
}

impl Nemu {
    /// Default uop-cache capacity in entries (the paper selects 16384).
    pub const DEFAULT_CAPACITY: usize = 16384;

    /// Boot a program with the default uop-cache capacity.
    pub fn new(program: &riscv_isa::asm::Program) -> Self {
        Self::with_capacity(program, Self::DEFAULT_CAPACITY)
    }

    /// Boot a program with an explicit uop-cache capacity.
    pub fn with_capacity(program: &riscv_isa::asm::Program, capacity: usize) -> Self {
        let (hart, mem) = crate::interp::boot(program);
        Self::from_parts_with_capacity(hart, mem, capacity)
    }

    /// Construct directly from a hart + memory (checkpoint restore path).
    pub fn from_parts(hart: Hart, mem: SparseMemory) -> Self {
        Self::from_parts_with_capacity(hart, mem, Self::DEFAULT_CAPACITY)
    }

    fn from_parts_with_capacity(hart: Hart, mem: SparseMemory, capacity: usize) -> Self {
        let mut n = Nemu {
            info: StepInfo::at(hart.state.pc),
            hart,
            mem,
            regs: [0; 33],
            code: Vec::new(),
            map: HashMap::default(),
            cursor: 0,
            capacity,
            fast_mem: true,
            stats: NemuStats::default(),
        };
        n.refresh_fast_mem();
        n
    }

    fn refresh_fast_mem(&mut self) {
        // The fast path assumes flat physical memory: machine mode (or
        // bare satp) and no MPRV redirection.
        let csr = &self.hart.state.csr;
        self.fast_mem = !mmu::translation_active(csr, AccessType::Fetch)
            && !mmu::translation_active(csr, AccessType::Load)
            && !self.hart.proxy_kernel_needs_slow();
    }

    /// Leave the shadow domain: export the GPR file and credit the
    /// `retired` instructions the fast loop executed since it entered.
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
        self.stats.flushes += 1;
    }

    /// Decode a trace starting at `pc` into the uop cache, returning the
    /// upc of its head, or `None` when the fast path cannot run.
    fn fill(&mut self, pc: u64) -> Option<u32> {
        if !self.fast_mem {
            return None;
        }
        if self.code.len() + MAX_TRACE > self.capacity {
            self.flush();
        }
        let head = self.code.len() as u32;
        let mut p = pc;
        let mut block_ended = false;
        for _ in 0..MAX_TRACE {
            let raw = self.mem.fetch32(p);
            let d = riscv_isa::decode(raw);
            let handler = classify(&d);
            let rd = if d.rd == 0 { 32 } else { d.rd };
            let imm = match (handler, d.op) {
                // auipc folds pc into the immediate at decode time.
                (Handler::Li, Op::Auipc) => p.wrapping_add(d.imm as u64) as i64,
                _ => d.imm,
            };
            let idx = self.code.len() as u32;
            self.code.push(Uop {
                handler,
                rd,
                rs1: d.rs1,
                rs2: d.rs2,
                imm,
                pc: p,
                next_pc: p.wrapping_add(d.len as u64),
                target: UNRESOLVED,
                fallthru: UNRESOLVED,
                inst: d,
            });
            self.map.insert(p, idx);
            self.stats.uop_fills += 1;
            p = p.wrapping_add(d.len as u64);
            if d.ends_block() || handler == Handler::Slow {
                block_ended = true;
                break;
            }
        }
        if !block_ended {
            // The trace hit its length cap mid-block; continue through the
            // outer loop at the unfinished pc (not mapped: the real
            // instruction there gets its own trace later).
            self.code.push(Uop {
                handler: Handler::Goto,
                rd: 32,
                rs1: 0,
                rs2: 0,
                imm: 0,
                pc: p,
                next_pc: p,
                target: UNRESOLVED,
                fallthru: UNRESOLVED,
                inst: DecodedInst::default(),
            });
        }
        Some(head)
    }

    fn lookup_or_fill(&mut self, pc: u64) -> Option<u32> {
        lookup(&self.map, &mut self.stats, pc).or_else(|| self.fill(pc))
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
    /// translations/uops.
    fn after_system_step(&mut self) {
        if self.info.invalidates_decodes() {
            self.flush();
        }
        self.refresh_fast_mem();
    }

    /// A slow step taken from inside the fast loop: leave the shadow
    /// domain (crediting the loop's `retired` count), step, re-enter.
    fn slow_step(&mut self, retired: u64) -> &StepInfo {
        self.sync_regs_to_hart(retired);
        self.arch_step();
        self.sync_regs_from_hart();
        &self.info
    }

    /// The fast execution loop. With `BLOCKS`, `sink.block` hears every
    /// basic block (from the control-flow handlers and the slow steps).
    /// Out of line so that `run_until` stays a small dispatcher.
    ///
    /// The dispatch loop runs on disjoint borrows of the shadow register
    /// file, the uop array, the pc→upc map, the stats, the memory and the
    /// hart, so that `upc`, `steps` and those pointers stay in registers
    /// across the handlers; each uop is read in place.
    #[inline(never)]
    fn run_fast<const BLOCKS: bool>(&mut self, max_steps: u64, sink: &mut dyn CommitSink) {
        self.sync_regs_from_hart();
        // Instructions executed; `hart.instret` has been credited with
        // the first `synced` of them (see `sync_regs_to_hart`).
        let mut steps = 0u64;
        let mut synced = 0u64;
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
                let info = self.slow_step(steps - synced);
                steps += 1;
                synced = steps;
                if info.ends_block() {
                    end_block!(self.hart.state.pc);
                }
            }};
        }
        'outer: while steps < max_steps && !self.hart.is_halted() {
            if self.hart.pending_injection.is_some()
                || self.hart.state.csr.pending_interrupt().is_some()
            {
                slow_step!();
                continue;
            }
            let Some(mut upc) = self.lookup_or_fill(self.hart.state.pc) else {
                slow_step!();
                continue;
            };
            let Nemu {
                hart,
                mem,
                regs,
                code,
                map,
                stats,
                ..
            } = &mut *self;
            // A slice: its pointer and length are values, not a `Vec`
            // header to re-read after every call the arms make.
            let code = &mut code[..];
            // Tight dispatch loop: stays inside the uop cache until a
            // slow event, an unresolved edge, or fuel runs out.
            while steps < max_steps {
                let uop = &code[upc as usize];
                steps += 1;
                // Control transfer to `$target_pc`, which ends the block:
                // on to `$next` when the target is cached, else through
                // the outer loop.
                macro_rules! transfer {
                    ($next:expr, $target_pc:expr) => {{
                        let target_pc = $target_pc;
                        end_block!(target_pc);
                        match $next {
                            Some(u) => upc = u,
                            None => {
                                hart.state.pc = target_pc;
                                continue 'outer;
                            }
                        }
                    }};
                }
                macro_rules! alu_rr {
                    (|$a:ident, $b:ident| $v:expr) => {{
                        let $a = regs[uop.rs1 as usize];
                        let $b = regs[uop.rs2 as usize];
                        regs[uop.rd as usize] = $v;
                        upc += 1;
                    }};
                }
                macro_rules! alu_ri {
                    (|$a:ident, $i:ident| $v:expr) => {{
                        let $a = regs[uop.rs1 as usize];
                        let $i = uop.imm as u64;
                        regs[uop.rd as usize] = $v;
                        upc += 1;
                    }};
                }
                macro_rules! load {
                    ($size:expr, |$raw:ident| $v:expr) => {{
                        let va = regs[uop.rs1 as usize].wrapping_add(uop.imm as u64);
                        let $raw = mem.read_uint(va, $size);
                        regs[uop.rd as usize] = $v;
                        upc += 1;
                    }};
                }
                // `UART_TX` takes a store of any width, integer or FP.
                macro_rules! store {
                    ($size:expr, $v:expr) => {{
                        let va = regs[uop.rs1 as usize].wrapping_add(uop.imm as u64);
                        let v = $v;
                        if va == UART_TX {
                            hart.output.push(v as u8);
                        } else {
                            mem.write_uint(va, $size, v);
                        }
                        upc += 1;
                    }};
                }
                macro_rules! branch {
                    (|$a:ident, $b:ident| $taken:expr) => {{
                        let $a = regs[uop.rs1 as usize];
                        let $b = regs[uop.rs2 as usize];
                        let taken = $taken;
                        let target_pc = if taken {
                            uop.pc.wrapping_add(uop.imm as u64)
                        } else {
                            uop.next_pc
                        };
                        transfer!(chase(code, map, stats, upc, target_pc, taken), target_pc);
                    }};
                }
                match uop.handler {
                    Handler::Li => {
                        regs[uop.rd as usize] = uop.imm as u64;
                        upc += 1;
                    }
                    Handler::Mv => {
                        regs[uop.rd as usize] = regs[uop.rs1 as usize];
                        upc += 1;
                    }
                    Handler::Add => alu_rr!(|a, b| a.wrapping_add(b)),
                    Handler::Sub => alu_rr!(|a, b| a.wrapping_sub(b)),
                    Handler::And => alu_rr!(|a, b| a & b),
                    Handler::Or => alu_rr!(|a, b| a | b),
                    Handler::Xor => alu_rr!(|a, b| a ^ b),
                    Handler::Slt => alu_rr!(|a, b| ((a as i64) < (b as i64)) as u64),
                    Handler::Sltu => alu_rr!(|a, b| (a < b) as u64),
                    Handler::Addw => alu_rr!(|a, b| a.wrapping_add(b) as i32 as i64 as u64),
                    Handler::Addi => alu_ri!(|a, i| a.wrapping_add(i)),
                    Handler::Andi => alu_ri!(|a, i| a & i),
                    Handler::Ori => alu_ri!(|a, i| a | i),
                    Handler::Xori => alu_ri!(|a, i| a ^ i),
                    Handler::Slli => alu_ri!(|a, i| a << (i & 63)),
                    Handler::Srli => alu_ri!(|a, i| a >> (i & 63)),
                    Handler::Srai => alu_ri!(|a, i| ((a as i64) >> (i & 63)) as u64),
                    Handler::Addiw => alu_ri!(|a, i| a.wrapping_add(i) as i32 as i64 as u64),
                    Handler::AluRR => alu_rr!(|a, b| int_compute(uop.inst.op, a, b)
                        .expect("AluRR ops are int_compute-able")),
                    Handler::AluRI => alu_ri!(|a, i| int_compute(uop.inst.op, a, i)
                        .expect("AluRI ops are int_compute-able")),
                    Handler::Lb => load!(1, |raw| raw as i8 as i64 as u64),
                    Handler::Lh => load!(2, |raw| raw as i16 as i64 as u64),
                    Handler::Lw => load!(4, |raw| raw as i32 as i64 as u64),
                    Handler::Lbu => load!(1, |raw| raw),
                    Handler::Lhu => load!(2, |raw| raw),
                    Handler::Lwu => load!(4, |raw| raw),
                    Handler::Ld => {
                        // `MTIME` answers 8-byte loads only (`hart`'s rule).
                        let va = regs[uop.rs1 as usize].wrapping_add(uop.imm as u64);
                        regs[uop.rd as usize] = if va == MTIME {
                            hart.state.csr.time
                        } else {
                            mem.read_uint(va, 8)
                        };
                        upc += 1;
                    }
                    Handler::Flw => {
                        // NaN-boxed; `fpr` is indexed by the unredirected rd.
                        let va = regs[uop.rs1 as usize].wrapping_add(uop.imm as u64);
                        hart.state.fpr[uop.inst.rd as usize] =
                            0xffff_ffff_0000_0000 | mem.read_uint(va, 4);
                        upc += 1;
                    }
                    Handler::Fld => {
                        let va = regs[uop.rs1 as usize].wrapping_add(uop.imm as u64);
                        hart.state.fpr[uop.inst.rd as usize] = if va == MTIME {
                            hart.state.csr.time
                        } else {
                            mem.read_uint(va, 8)
                        };
                        upc += 1;
                    }
                    Handler::Sb => store!(1, regs[uop.rs2 as usize]),
                    Handler::Sh => store!(2, regs[uop.rs2 as usize]),
                    Handler::Sw => store!(4, regs[uop.rs2 as usize]),
                    Handler::Sd => store!(8, regs[uop.rs2 as usize]),
                    Handler::Fsw => store!(4, hart.state.fpr[uop.rs2 as usize]),
                    Handler::Fsd => store!(8, hart.state.fpr[uop.rs2 as usize]),
                    Handler::Nop => upc += 1,
                    Handler::HostFp => {
                        let d = &uop.inst;
                        let a = if d.rs1_is_fpr() {
                            hart.state.fpr[d.rs1 as usize]
                        } else {
                            regs[d.rs1 as usize]
                        };
                        let b = if d.rs2_is_fpr() {
                            hart.state.fpr[d.rs2 as usize]
                        } else {
                            regs[d.rs2 as usize]
                        };
                        let c = hart.state.fpr[d.rs3 as usize];
                        let rm = if d.rm == 7 {
                            hart.state.csr.frm()
                        } else {
                            d.rm
                        };
                        let r = fp_execute(d.op, a, b, c, rm);
                        hart.state.csr.set_fflags(r.flags);
                        if d.writes_fpr() {
                            hart.state.fpr[d.rd as usize] = r.bits;
                        } else {
                            regs[uop.rd as usize] = r.bits;
                        }
                        upc += 1;
                    }
                    Handler::Jal => {
                        regs[uop.rd as usize] = uop.next_pc;
                        let target_pc = uop.pc.wrapping_add(uop.imm as u64);
                        transfer!(chase(code, map, stats, upc, target_pc, true), target_pc);
                    }
                    Handler::Ret => {
                        let target_pc = regs[1] & !1;
                        transfer!(lookup(map, stats, target_pc), target_pc);
                    }
                    Handler::Jalr => {
                        // The target first: rd may alias rs1.
                        let target_pc = regs[uop.rs1 as usize].wrapping_add(uop.imm as u64) & !1;
                        regs[uop.rd as usize] = uop.next_pc;
                        transfer!(lookup(map, stats, target_pc), target_pc);
                    }
                    Handler::Beq => branch!(|a, b| a == b),
                    Handler::Bne => branch!(|a, b| a != b),
                    Handler::Blt => branch!(|a, b| (a as i64) < (b as i64)),
                    Handler::Bge => branch!(|a, b| (a as i64) >= (b as i64)),
                    Handler::Bltu => branch!(|a, b| a < b),
                    Handler::Bgeu => branch!(|a, b| a >= b),
                    Handler::Goto => {
                        // Sentinel: no instruction executed, re-enter via
                        // the outer loop at the continuation pc.
                        steps -= 1;
                        hart.state.pc = uop.pc;
                        continue 'outer;
                    }
                    Handler::Slow => {
                        // Take back the optimistic count; the slow step
                        // retires (or traps) architecturally.
                        steps -= 1;
                        hart.state.pc = uop.pc;
                        slow_step!();
                        continue 'outer;
                    }
                }
            }
            // Fuel exhausted inside the block: record the resume pc.
            hart.state.pc = code[upc as usize].pc;
            break;
        }
        if BLOCKS && steps > block_mark {
            sink.block(block_pc, steps - block_mark);
        }
        self.sync_regs_to_hart(steps - synced);
    }
}

type UopMap = HashMap<u64, u32, IntBuildHasher>;

/// The upc of an already-cached `pc`.
#[inline]
fn lookup(map: &UopMap, stats: &mut NemuStats, pc: u64) -> Option<u32> {
    let u = *map.get(&pc)?;
    stats.uop_hits += 1;
    Some(u)
}

/// Follow a chained control-flow edge of the uop at `upc`, memoizing it
/// on first use.
#[inline]
fn chase(
    code: &mut [Uop],
    map: &UopMap,
    stats: &mut NemuStats,
    upc: u32,
    target_pc: u64,
    taken_edge: bool,
) -> Option<u32> {
    let uop = &code[upc as usize];
    let cached = if taken_edge { uop.target } else { uop.fallthru };
    if cached != UNRESOLVED && code[cached as usize].pc == target_pc {
        stats.uop_hits += 1;
        return Some(cached);
    }
    let u = lookup(map, stats, target_pc)?;
    let uop = &mut code[upc as usize];
    *(if taken_edge {
        &mut uop.target
    } else {
        &mut uop.fallthru
    }) = u;
    Some(u)
}

/// Classify an instruction into its fast-path handler.
fn classify(d: &DecodedInst) -> Handler {
    use Op::*;
    match d.op {
        Illegal | Ecall | Ebreak | Mret | Sret | Wfi | FenceI | SfenceVma | Csrrw | Csrrs
        | Csrrc | Csrrwi | Csrrsi | Csrrci | LrW | LrD | ScW | ScD => Handler::Slow,
        _ if d.is_amo() => Handler::Slow,
        Fence => Handler::Nop,
        Lui | Auipc => Handler::Li,
        Addi if d.rs1 == 0 => Handler::Li,
        Addi if d.imm == 0 => Handler::Mv,
        Addi => Handler::Addi,
        Add => Handler::Add,
        Sub => Handler::Sub,
        And => Handler::And,
        Or => Handler::Or,
        Xor => Handler::Xor,
        Slt => Handler::Slt,
        Sltu => Handler::Sltu,
        Addw => Handler::Addw,
        Andi => Handler::Andi,
        Ori => Handler::Ori,
        Xori => Handler::Xori,
        Slli => Handler::Slli,
        Srli => Handler::Srli,
        Srai => Handler::Srai,
        Addiw => Handler::Addiw,
        Jal => Handler::Jal,
        Jalr if d.rd == 0 && d.rs1 == 1 && d.imm == 0 => Handler::Ret,
        Jalr => Handler::Jalr,
        Beq => Handler::Beq,
        Bne => Handler::Bne,
        Blt => Handler::Blt,
        Bge => Handler::Bge,
        Bltu => Handler::Bltu,
        Bgeu => Handler::Bgeu,
        Lb => Handler::Lb,
        Lh => Handler::Lh,
        Lw => Handler::Lw,
        Ld => Handler::Ld,
        Lbu => Handler::Lbu,
        Lhu => Handler::Lhu,
        Lwu => Handler::Lwu,
        Flw => Handler::Flw,
        Fld => Handler::Fld,
        Sb => Handler::Sb,
        Sh => Handler::Sh,
        Sw => Handler::Sw,
        Sd => Handler::Sd,
        Fsw => Handler::Fsw,
        Fsd => Handler::Fsd,
        op => {
            if int_compute(op, 0, 0).is_some() {
                if has_imm_operand(op) {
                    Handler::AluRI
                } else {
                    Handler::AluRR
                }
            } else {
                // Remaining ops are floating point.
                Handler::HostFp
            }
        }
    }
}

impl Hart {
    /// True when this hart's configuration forces NEMU onto the slow path
    /// for memory accesses (currently only proxy-kernel syscalls need it,
    /// and those are `ecall`s which are always slow anyway).
    fn proxy_kernel_needs_slow(&self) -> bool {
        false
    }
}

impl Interpreter for Nemu {
    fn name(&self) -> &'static str {
        "nemu"
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
    /// `hart::execute` on the uop cache's decoded instruction, directly on
    /// `hart.state` (no shadow file). Falls back to [`hart::step_into`] when the
    /// uop cache cannot serve the pc (translation active, odd pc) or a
    /// trap is pending.
    fn step_one(&mut self) -> &StepInfo {
        if self.hart.is_halted() {
            hart::step_into(&mut self.hart, &mut self.mem, &mut self.info);
            return &self.info;
        }
        let pc = self.hart.state.pc;
        if !self.fast_mem
            || pc & 1 != 0
            || self.hart.pending_injection.is_some()
            || self.hart.state.csr.pending_interrupt().is_some()
        {
            return self.arch_step();
        }
        let upc = match self.code.get(self.cursor as usize) {
            Some(u) if u.pc == pc && u.handler != Handler::Goto => self.cursor,
            _ => self.lookup_or_fill(pc).expect("fast_mem holds, so fill succeeds"),
        };
        let uop = &self.code[upc as usize];
        let slow = uop.handler == Handler::Slow;
        self.cursor = upc + 1;
        self.info = StepInfo::at(pc);
        let retired =
            hart::execute_and_retire(&mut self.hart, &mut self.mem, &uop.inst, &mut self.info);
        if slow || !retired {
            self.after_system_step();
        }
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
    fn fast_loop_matches_reference() {
        let p = sum_program(1000);
        let mut n = Nemu::new(&p);
        let mut d = DromajoLike::new(&p);
        let rn = n.run(10_000_000);
        let rd = d.run(10_000_000);
        assert_eq!(rn.exit_code, Some((0..1000u64).sum()));
        assert_eq!(rn.exit_code, rd.exit_code);
        assert_eq!(rn.instructions, rd.instructions);
        assert_eq!(n.hart().state.gpr, d.hart().state.gpr);
    }

    #[test]
    fn uop_cache_hits_dominate() {
        let p = sum_program(10_000);
        let mut n = Nemu::new(&p);
        n.run(10_000_000);
        assert!(
            n.stats.uop_fills < 50,
            "fills should be one per static instruction, got {}",
            n.stats.uop_fills
        );
        assert!(n.stats.uop_hits > 1000);
    }

    #[test]
    fn capacity_flush() {
        // A tiny cache forces flushes on a program with many blocks.
        let mut a = Asm::new(0x8000_0000);
        // A long chain of jumps creating many 1-instruction blocks.
        for _ in 0..200 {
            let l = a.label();
            a.j(l);
            a.bind(l);
        }
        a.li(A0, 9);
        a.ebreak();
        let p = a.assemble();
        let mut n = Nemu::with_capacity(&p, 128);
        assert_eq!(n.code.capacity(), 0, "a boot reserves no uop");
        let r = n.run(100_000);
        assert_eq!(r.exit_code, Some(9));
        assert!(n.stats.flushes >= 1, "capacity flush expected");
        assert!(n.code.len() <= 128, "the capacity bounds the cache");
    }

    #[test]
    fn function_calls_and_ret() {
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
        let mut n = Nemu::new(&p);
        assert_eq!(n.run(100_000).exit_code, Some(50));
    }

    #[test]
    fn fuel_stops_mid_block_and_resumes() {
        let p = sum_program(1000);
        let mut n = Nemu::new(&p);
        let mut total = 0;
        loop {
            let r = n.run(7);
            total += r.instructions;
            if r.exit_code.is_some() {
                break;
            }
            assert!(r.instructions <= 7);
        }
        // Compare against the uninterrupted count.
        let mut d = DromajoLike::new(&p);
        let rd = d.run(10_000_000);
        assert_eq!(total, rd.instructions);
        assert_eq!(n.hart().halted, rd.exit_code);
    }

    #[test]
    fn slow_path_csr_and_amo() {
        let mut a = Asm::new(0x8000_0000);
        a.li(T0, 0x8001_0000);
        a.li(T1, 7);
        a.amoadd_d(T2, T1, T0); // mem += 7 (from 0)
        a.amoadd_d(T3, T1, T0); // t3 = 7
        a.csrrw(ZERO, riscv_isa::csr::addr::MSCRATCH, T3);
        a.csrrs(A0, riscv_isa::csr::addr::MSCRATCH, ZERO);
        a.ebreak();
        let p = a.assemble();
        let mut n = Nemu::new(&p);
        assert_eq!(n.run(1000).exit_code, Some(7));
        assert!(n.stats.slow_steps >= 4);
    }

    #[test]
    fn fp_in_fast_loop() {
        let mut a = Asm::new(0x8000_0000);
        a.li(T0, 2);
        a.fcvt_d_l(FT0, T0);
        a.fmv_d_x(FT1, ZERO);
        a.li(T1, 50);
        let top = a.bound_label();
        a.fmadd_d(FT1, FT0, FT0, FT1); // acc += 4
        a.addi(T1, T1, -1);
        a.bnez(T1, top);
        a.fcvt_l_d(A0, FT1);
        a.ebreak();
        let p = a.assemble();
        let mut n = Nemu::new(&p);
        assert_eq!(n.run(100_000).exit_code, Some(200));
    }

    #[test]
    fn step_one_equals_run() {
        let p = sum_program(50);
        let mut a = Nemu::new(&p);
        let mut b = Nemu::new(&p);
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
        // Overwrite the instruction at patch_site with "li a0, 77".
        a.la(T0, patch_site);
        a.la(T1, new_insn);
        a.lw(T2, 0, T1);
        a.sw(T2, 0, T0);
        a.fence_i();
        a.bind(patch_site);
        a.li(A0, 1); // will be replaced by li a0, 77
        a.ebreak();
        a.align(2);
        a.bind(new_insn);
        // li a0, 77 == addi a0, x0, 77
        a.data_u32(0x04d0_0513);
        let p = a.assemble();
        let mut n = Nemu::new(&p);
        assert_eq!(n.run(1000).exit_code, Some(77));
    }
}
