//! The interpreter trait and the three baseline interpreters NEMU is
//! compared against in the paper's Fig. 8: a Spike-like ISS (decoded-
//! instruction cache + SoftFloat arithmetic), a Dromajo-like ISS (plain
//! decode-and-execute, no cache), and a QEMU-TCI-like ISS (an extra
//! bytecode dispatch layer per instruction).

use crate::hart::{self, Hart, StepInfo};
use riscv_isa::fpu::{Host, Soft};
use riscv_isa::mem::SparseMemory;
use riscv_isa::op::DecodedInst;

/// Outcome of [`Interpreter::run_until`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunResult {
    /// Instructions retired during this run call.
    pub instructions: u64,
    /// Exit code if the program halted.
    pub exit_code: Option<u64>,
}

/// How much of the executed stream a [`CommitSink`] wants to see. A tier
/// picks its execution loop from this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Granularity {
    /// Nothing: only the architectural effect is wanted.
    Nothing,
    /// [`CommitSink::block`] once per BBV basic block.
    Block,
}

/// The consumer side of [`Interpreter::run_until`].
///
/// A *block* is a maximal run of steps ending at a step for which
/// [`StepInfo::ends_block`] holds (control flow, a system instruction,
/// or a trap). When fuel runs out mid-block the steps executed so far
/// are reported as a block of their own, and the next call starts a
/// fresh block at the resume pc — so block lengths always sum to the
/// steps executed.
pub trait CommitSink {
    /// What this sink needs to be told.
    fn granularity(&self) -> Granularity;
    /// A block of `len` steps that started at `pc` has ended.
    fn block(&mut self, _pc: u64, _len: u64) {}
}

/// The sink of [`Interpreter::run`]: wants nothing.
struct NoSink;

impl CommitSink for NoSink {
    fn granularity(&self) -> Granularity {
        Granularity::Nothing
    }
}

/// A whole-system RISC-V interpreter owning one hart and its memory.
pub trait Interpreter: std::fmt::Debug + Send {
    /// Human-readable name used by the benchmark harness.
    fn name(&self) -> &'static str;
    /// The hart.
    fn hart(&self) -> &Hart;
    /// Mutable hart access.
    fn hart_mut(&mut self) -> &mut Hart;
    /// The guest physical memory.
    fn mem_mut(&mut self) -> &mut SparseMemory;
    /// A boxed copy: what makes `Box<dyn Interpreter>` [`Clone`], so a
    /// runtime-selected REF can be snapshotted and trial-executed.
    fn clone_box(&self) -> Box<dyn Interpreter>;
    /// Re-import architectural state after an external write to the
    /// hart. Every `run_until` call re-imports on entry, so this is only
    /// a courtesy to callers that patch `hart.state` and want a tier's
    /// shadow register file coherent at once; tiers without one do
    /// nothing.
    fn resync(&mut self) {}

    /// Execute one step and lend its commit information, exactly what
    /// [`hart::step`] returns (a halted hart reports `halted` and executes
    /// nothing): the tier's own single-step body, the one DiffTest and
    /// every other per-commit consumer call. The record is the tier's
    /// own, reset and refilled by every step, so nothing is moved per
    /// step; a caller that needs a field past its next call into the
    /// tier copies that field.
    fn step_one(&mut self) -> &StepInfo;

    /// Run until halt or until `max_steps` steps execute, reporting to
    /// `sink` at the granularity it asks for.
    ///
    /// A step is one instruction or one trap entry, so a trap storm still
    /// consumes fuel; `instructions` in the result counts actual retires.
    fn run_until(&mut self, max_steps: u64, sink: &mut dyn CommitSink) -> RunResult;

    /// [`Self::run_until`] with nothing observed: the tier's fastest path.
    fn run(&mut self, max_steps: u64) -> RunResult {
        self.run_until(max_steps, &mut NoSink)
    }
}

impl Clone for Box<dyn Interpreter> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// [`Interpreter::run_until`] for a tier that executes through its own
/// [`Interpreter::step_one`]: blocks are derived from the [`StepInfo`]
/// stream.
pub(crate) fn drive<I: Interpreter>(
    interp: &mut I,
    max_steps: u64,
    sink: &mut dyn CommitSink,
) -> RunResult {
    let blocks = sink.granularity() == Granularity::Block;
    let start = interp.hart().instret;
    let (mut block_pc, mut block_len) = (interp.hart().state.pc, 0u64);
    let mut steps = 0;
    while steps < max_steps && !interp.hart().is_halted() {
        let info = interp.step_one();
        steps += 1;
        if blocks {
            block_len += 1;
            if info.ends_block() {
                sink.block(block_pc, block_len);
                block_pc = interp.hart().state.pc;
                block_len = 0;
            }
        }
    }
    if block_len > 0 {
        sink.block(block_pc, block_len);
    }
    RunResult {
        instructions: interp.hart().instret - start,
        exit_code: interp.hart().halted,
    }
}

/// Load a program image and create a hart at its entry point.
pub fn boot(program: &riscv_isa::asm::Program) -> (Hart, SparseMemory) {
    let mut mem = SparseMemory::new();
    program.load_into(&mut mem);
    (Hart::new(program.entry, 0), mem)
}

// ---------------------------------------------------------------------
// Dromajo-like: straightforward fetch/decode/execute, no caching.
// ---------------------------------------------------------------------

/// A Dromajo-like interpreter: no decode cache at all (the paper notes
/// "there is no cache in Dromajo", §III-D2).
#[derive(Debug, Clone)]
pub struct DromajoLike {
    hart: Hart,
    mem: SparseMemory,
    info: StepInfo,
}

impl DromajoLike {
    /// Boot a program.
    pub fn new(program: &riscv_isa::asm::Program) -> Self {
        let (hart, mem) = boot(program);
        DromajoLike {
            info: StepInfo::at(hart.state.pc),
            hart,
            mem,
        }
    }
}

impl Interpreter for DromajoLike {
    fn name(&self) -> &'static str {
        "dromajo-like"
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
    fn step_one(&mut self) -> &StepInfo {
        hart::step_into(&mut self.hart, &mut self.mem, &mut self.info);
        &self.info
    }
    fn run_until(&mut self, max_steps: u64, sink: &mut dyn CommitSink) -> RunResult {
        drive(self, max_steps, sink)
    }
}

// ---------------------------------------------------------------------
// Spike-like: direct-mapped decoded-instruction cache + SoftFloat.
// ---------------------------------------------------------------------

/// A Spike-like interpreter: a direct-mapped software instruction cache of
/// decoded instructions (subject to conflict misses, unlike NEMU's
/// trace-organized uop cache) and SoftFloat-style software arithmetic for
/// FP add/sub/mul/FMA — the two structural properties the paper credits
/// for Spike's performance profile.
#[derive(Debug, Clone)]
pub struct SpikeLike {
    hart: Hart,
    mem: SparseMemory,
    info: StepInfo,
    cache: Vec<CacheEntry>,
    mask: u64,
    /// Decode-cache hits.
    pub hits: u64,
    /// Decode-cache misses (including conflict misses).
    pub misses: u64,
}

#[derive(Debug, Clone, Copy)]
struct CacheEntry {
    tag: u64,
    inst: DecodedInst,
}

impl SpikeLike {
    /// Default software instruction-cache size (the paper sweeps 1024 to
    /// 32768 and selects 16384 as best for Spike).
    pub const DEFAULT_CACHE_SIZE: usize = 16384;

    /// Boot a program with the default cache size.
    pub fn new(program: &riscv_isa::asm::Program) -> Self {
        Self::with_cache_size(program, Self::DEFAULT_CACHE_SIZE)
    }

    /// Boot a program with a specific (power-of-two) cache size.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not a power of two.
    pub fn with_cache_size(program: &riscv_isa::asm::Program, size: usize) -> Self {
        assert!(size.is_power_of_two(), "cache size must be a power of two");
        let (hart, mem) = boot(program);
        SpikeLike {
            info: StepInfo::at(hart.state.pc),
            hart,
            mem,
            cache: vec![
                CacheEntry {
                    tag: u64::MAX,
                    inst: DecodedInst::default(),
                };
                size
            ],
            mask: size as u64 - 1,
            hits: 0,
            misses: 0,
        }
    }

    /// Whether slot `idx` holds the decode of the instruction at `pc`
    /// (filling it on a miss); false when the fetch faults.
    fn lookup(&mut self, pc: u64, idx: usize) -> bool {
        if self.cache[idx].tag == pc {
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        match hart::fetch(&mut self.hart, &mut self.mem) {
            Ok(inst) => {
                self.cache[idx] = CacheEntry { tag: pc, inst };
                true
            }
            Err(_) => false,
        }
    }

    fn flush_cache(&mut self) {
        for e in &mut self.cache {
            e.tag = u64::MAX;
        }
    }
}

impl Interpreter for SpikeLike {
    fn name(&self) -> &'static str {
        "spike-like"
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
    fn step_one(&mut self) -> &StepInfo {
        let pc = self.hart.state.pc;
        let idx = ((pc >> 1) & self.mask) as usize;
        let uncached = self.hart.is_halted()
            || self.hart.pending_injection.is_some()
            || self.hart.state.csr.pending_interrupt().is_some()
            || !self.lookup(pc, idx);
        let info = &mut self.info;
        if uncached {
            hart::step_into(&mut self.hart, &mut self.mem, info);
        } else {
            let d = &self.cache[idx].inst;
            *info = StepInfo::at(pc);
            hart::execute_and_retire::<Soft, _>(&mut self.hart, &mut self.mem, d, info);
        }
        // The cache is keyed by virtual pc.
        if self.info.invalidates_decodes() {
            self.flush_cache();
        }
        &self.info
    }
    fn run_until(&mut self, max_steps: u64, sink: &mut dyn CommitSink) -> RunResult {
        drive(self, max_steps, sink)
    }
}

// ---------------------------------------------------------------------
// QEMU-TCI-like: per-instruction lowering to a bytecode dispatch layer.
// ---------------------------------------------------------------------

/// Micro-op bytecode of the TCI-like dispatch layer.
#[derive(Debug, Clone, Copy)]
enum TciOp {
    /// Read the source operands into the virtual accumulators.
    LoadOperands,
    /// Perform the architectural operation.
    Exec,
    /// Retire: bump counters.
    Retire,
    /// End of bytecode.
    End,
}

/// A QEMU-TCI-like interpreter: every instruction is lowered into a tiny
/// bytecode program which an inner dispatcher then interprets. This models
/// the cost structure of interpreting TCG ops rather than host code (the
/// reason QEMU-TCI trails Spike in Fig. 8).
#[derive(Debug, Clone)]
pub struct QemuTciLike {
    hart: Hart,
    mem: SparseMemory,
    info: StepInfo,
    scratch: [u64; 4],
}

impl QemuTciLike {
    /// Boot a program.
    pub fn new(program: &riscv_isa::asm::Program) -> Self {
        let (hart, mem) = boot(program);
        QemuTciLike {
            info: StepInfo::at(hart.state.pc),
            hart,
            mem,
            scratch: [0; 4],
        }
    }
}

impl Interpreter for QemuTciLike {
    fn name(&self) -> &'static str {
        "qemu-tci-like"
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
    fn step_one(&mut self) -> &StepInfo {
        let info = &mut self.info;
        if self.hart.is_halted()
            || self.hart.pending_injection.is_some()
            || self.hart.state.csr.pending_interrupt().is_some()
        {
            hart::step_into(&mut self.hart, &mut self.mem, info);
            return info;
        }
        let d = match hart::fetch(&mut self.hart, &mut self.mem) {
            Ok(d) => d,
            Err(_) => {
                hart::step_into(&mut self.hart, &mut self.mem, info);
                return info;
            }
        };
        *info = StepInfo::at(self.hart.state.pc);
        info.inst = d;
        // Lower into bytecode, then dispatch it.
        let program = [TciOp::LoadOperands, TciOp::Exec, TciOp::Retire, TciOp::End];
        let mut tpc = 0usize;
        loop {
            match program[tpc] {
                TciOp::LoadOperands => {
                    self.scratch[0] = self.hart.state.read_gpr(d.rs1);
                    self.scratch[1] = self.hart.state.read_gpr(d.rs2);
                    self.scratch[2] = d.imm as u64;
                }
                TciOp::Exec => {
                    if let Err((cause, tval)) =
                        hart::execute::<Host, _>(&mut self.hart, &mut self.mem, &d, info)
                    {
                        let trap = riscv_isa::trap::Trap::Exception(cause, tval);
                        hart::take_trap(&mut self.hart, trap, info);
                        return info;
                    }
                }
                TciOp::Retire => hart::retire(&mut self.hart),
                TciOp::End => break,
            }
            tpc += 1;
        }
        info
    }
    fn run_until(&mut self, max_steps: u64, sink: &mut dyn CommitSink) -> RunResult {
        drive(self, max_steps, sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use riscv_isa::asm::{reg::*, Asm};

    fn sum_program() -> riscv_isa::asm::Program {
        let mut a = Asm::new(0x8000_0000);
        a.li(T0, 0);
        a.li(T1, 1000);
        a.li(T2, 0);
        let top = a.bound_label();
        a.add(T2, T2, T0);
        a.addi(T0, T0, 1);
        a.bne(T0, T1, top);
        a.mv(A0, T2);
        a.ebreak();
        a.assemble()
    }

    fn fp_program() -> riscv_isa::asm::Program {
        let mut a = Asm::new(0x8000_0000);
        a.li(T0, 1);
        a.fcvt_d_l(FT0, T0); // 1.0
        a.fmv_d_x(FT1, ZERO); // 0.0
        a.li(T1, 100);
        let top = a.bound_label();
        a.fmadd_d(FT1, FT0, FT0, FT1); // acc += 1.0
        a.addi(T1, T1, -1);
        a.bnez(T1, top);
        a.fcvt_l_d(A0, FT1);
        a.ebreak();
        a.assemble()
    }

    #[test]
    fn all_baselines_agree_on_int() {
        let expected = (0..1000u64).sum::<u64>();
        let p = sum_program();
        let mut d = DromajoLike::new(&p);
        let mut s = SpikeLike::new(&p);
        let mut q = QemuTciLike::new(&p);
        assert_eq!(d.run(1_000_000).exit_code, Some(expected));
        assert_eq!(s.run(1_000_000).exit_code, Some(expected));
        assert_eq!(q.run(1_000_000).exit_code, Some(expected));
        // All retire the same dynamic instruction count.
        assert_eq!(d.hart().instret, s.hart().instret);
        assert_eq!(d.hart().instret, q.hart().instret);
    }

    #[test]
    fn softfloat_path_matches_host_path() {
        let p = fp_program();
        let mut d = DromajoLike::new(&p); // host FP
        let mut s = SpikeLike::new(&p); // softfloat
        assert_eq!(d.run(1_000_000).exit_code, Some(100));
        assert_eq!(s.run(1_000_000).exit_code, Some(100));
        assert_eq!(d.hart().state.fpr, s.hart().state.fpr);
    }

    #[test]
    fn spike_cache_hits_dominate_in_loops() {
        let p = sum_program();
        let mut s = SpikeLike::new(&p);
        s.run(1_000_000);
        assert!(
            s.hits > s.misses * 10,
            "hits={} misses={}",
            s.hits,
            s.misses
        );
    }

    #[test]
    fn spike_small_cache_conflicts() {
        // A 2-entry cache on a loop of >2 instructions must conflict-miss.
        let p = sum_program();
        let mut s = SpikeLike::with_cache_size(&p, 2);
        s.run(100_000);
        assert!(s.misses > s.hits, "conflict misses expected");
    }

    #[test]
    fn run_respects_fuel() {
        let p = sum_program();
        let mut d = DromajoLike::new(&p);
        let r = d.run(10);
        assert_eq!(r.instructions, 10);
        assert_eq!(r.exit_code, None);
    }
}
