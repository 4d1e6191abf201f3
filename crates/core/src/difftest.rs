//! DiffTest: the co-simulation verification framework (paper §III-B).
//!
//! The DUT's instruction-commit probes feed [`DiffTest::on_commit`]; each
//! event advances the corresponding single-core reference model and
//! checks equivalence, applying diff-rules where the specification leaves
//! the outcome open. Multi-core designs are verified against simple
//! single-core REFs by pruning the interleaving space with the Global
//! Memory rule, exactly as in §III-B2b.

use crate::coverage::CommitCoverage;
use crate::rules::{is_counter, CsrMismatch, DiffRule, RuleStats};
use nemu::hart::{self, Hart, StepInfo};
use nemu::Interpreter;
use riscv_isa::exec::load_extend;
use riscv_isa::mem::{PhysMem, SparseMemory};
use riscv_isa::state::{ArchState, StateDiff};
use riscv_isa::trap::{Exception, Trap};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use xscore::{CommitEvent, SbufferDrainEvent};

/// A reference model DiffTest can drive (the `R` of §III-A).
///
/// The model must be cheaply cloneable (snapshot/rollback is how DiffTest
/// trial-executes before deciding which rule applies).
pub trait RefModel: Clone {
    /// Execute one instruction and lend its commit information: the
    /// model's own record, refilled by every step.
    fn step(&mut self) -> &StepInfo;
    /// Project the architectural state.
    fn arch_state(&self) -> ArchState;
    /// Force an exception before the next instruction (page-fault rule).
    fn inject_exception(&mut self, cause: Exception, tval: u64);
    /// Force the next SC to fail (SC-timeout rule).
    fn force_sc_fail(&mut self);
    /// Patch a general-purpose register (global-memory/MMIO rules).
    fn patch_gpr(&mut self, rd: u8, value: u64);
    /// Patch a floating-point register (global-memory rule, FP loads).
    fn patch_fpr(&mut self, rd: u8, value: u64);
    /// Patch local memory (global-memory rule).
    fn patch_mem(&mut self, paddr: u64, size: u64, value: u64);
    /// Patch a CSR by address (counter-read rule).
    fn patch_csr(&mut self, csr: u16, value: u64);
}

/// NEMU as the reference model (the paper's choice: "NEMU can also be
/// used as an easy-to-develop REF for DiffTest").
#[derive(Debug, Clone)]
pub struct NemuRef {
    /// The architectural hart.
    pub hart: Hart,
    /// The REF's local memory.
    pub mem: SparseMemory,
    /// The record [`RefModel::step`] lends: the last step's.
    pub info: StepInfo,
}

impl NemuRef {
    /// Boot a REF from a program image.
    pub fn new(program: &riscv_isa::asm::Program, hartid: u64) -> Self {
        let mut mem = SparseMemory::new();
        program.load_into(&mut mem);
        NemuRef {
            hart: Hart::new(program.entry, hartid),
            mem,
            info: StepInfo::at(program.entry),
        }
    }
}

/// A runtime-selected REF personality: any interpreter [`nemu::registry`]
/// boots — by default [`DEFAULT_REF_NAME`], NEMU's uop-cache tier — or the
/// bare architectural stepper [`NemuRef`], driven one commit at a time.
/// A registry personality steps through its `step_one()`: one virtual
/// call into the tier's own single-step body, which executes the tier's
/// cached decode. [`AnyRef::Arch`] is the cache-free `--ref arch`, kept
/// to compare against: it fetches and decodes on every commit.
///
/// The registry is the one table of personalities: what it boots is what
/// `--ref` accepts. DiffTest semantics are identical across variants,
/// only the REF's internal caching layers differ.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum AnyRef {
    /// The bare architectural stepper (`--ref arch`).
    Arch(NemuRef),
    /// A [`nemu::registry`] personality (the default among them).
    Registry(Box<dyn Interpreter>),
}

/// The `--ref` spelling of the cache-free architectural stepper.
pub const ARCH_REF_NAME: &str = "arch";

/// The REF DiffTest boots when none is named ([`CoSim::new`](crate::CoSim::new),
/// a job whose `ref_model` is `None`): the paper's NEMU, the uop-cache tier.
pub use nemu::registry::DEFAULT_REF_NAME;

impl AnyRef {
    /// Boot the cache-free architectural REF.
    pub fn arch(program: &riscv_isa::asm::Program, hartid: u64) -> Self {
        AnyRef::Arch(NemuRef::new(program, hartid))
    }

    /// Boot a REF personality by name — [`ARCH_REF_NAME`] or any
    /// [`nemu::registry`] personality. Returns `None` for unknown names.
    pub fn by_name(name: &str, program: &riscv_isa::asm::Program, hartid: u64) -> Option<Self> {
        let mut r = match name {
            ARCH_REF_NAME => AnyRef::arch(program, 0),
            _ => AnyRef::Registry(nemu::registry::boot(name, program)?),
        };
        // `interp::boot` hardcodes hart 0; multi-hart presets need the
        // real id in mhartid.
        r.hart_mut().state.csr.mhartid = hartid;
        Some(r)
    }

    /// The default REF resumed from a restored architectural state (which
    /// carries its mhartid) over its memory: checkpoint restore.
    pub fn restored(state: ArchState, mem: SparseMemory) -> Self {
        let mut hart = Hart::new(state.pc, state.csr.mhartid);
        hart.state = state;
        AnyRef::Registry(Box::new(nemu::Nemu::from_parts(hart, mem)))
    }

    /// Every accepted `--ref` name.
    pub fn names() -> Vec<&'static str> {
        let mut v = vec![ARCH_REF_NAME];
        v.extend(nemu::registry::names());
        v
    }

    fn hart(&self) -> &Hart {
        match self {
            AnyRef::Arch(r) => &r.hart,
            AnyRef::Registry(i) => i.hart(),
        }
    }

    fn hart_mut(&mut self) -> &mut Hart {
        match self {
            AnyRef::Arch(r) => &mut r.hart,
            AnyRef::Registry(i) => i.hart_mut(),
        }
    }

    /// Re-import shadow state in personalities that keep one (the uop
    /// cache and trace tiers mirror the GPR file for their fast loops).
    fn resync_shadow(&mut self) {
        if let AnyRef::Registry(i) = self {
            i.resync();
        }
    }
}

impl RefModel for AnyRef {
    fn step(&mut self) -> &StepInfo {
        match self {
            AnyRef::Arch(r) => {
                hart::step_into(&mut r.hart, &mut r.mem, &mut r.info);
                &r.info
            }
            AnyRef::Registry(i) => i.step_one(),
        }
    }
    fn arch_state(&self) -> ArchState {
        self.hart().state.clone()
    }
    fn inject_exception(&mut self, cause: Exception, tval: u64) {
        self.hart_mut().pending_injection = Some((cause, tval));
    }
    fn force_sc_fail(&mut self) {
        self.hart_mut().force_sc_fail = true;
    }
    fn patch_gpr(&mut self, rd: u8, value: u64) {
        self.hart_mut().state.write_gpr(rd, value);
        self.resync_shadow();
    }
    fn patch_fpr(&mut self, rd: u8, value: u64) {
        self.hart_mut().state.fpr[rd as usize] = value;
        self.resync_shadow();
    }
    fn patch_mem(&mut self, paddr: u64, size: u64, value: u64) {
        match self {
            AnyRef::Arch(r) => r.mem.write_uint(paddr, size, value),
            AnyRef::Registry(i) => i.mem_mut().write_uint(paddr, size, value),
        }
    }
    fn patch_csr(&mut self, csr: u16, value: u64) {
        let _ = self.hart_mut().state.csr.write(csr, value);
    }
}

/// The Global Memory of §III-B2b: records every store that entered the
/// DUT's cache hierarchy, across all harts, together with a bounded
/// window of the values those stores displaced. A load value is "possibly
/// written by other hardware threads" when it matches the current value
/// or one displaced inside the window — the window absorbs the bounded
/// lag between a load's execution and its commit-time check.
///
/// The window is one ring of the last [`HISTORY_WINDOW`] `(dword, old
/// value)` drain records over all locations, so its size — and the cost
/// of cloning it into a LightSSS snapshot — does not depend on how long
/// the simulation has run or how much memory it has touched.
#[derive(Debug, Clone)]
pub struct GlobalMemory {
    mem: SparseMemory,
    /// Drain records, oldest overwritten first. Grows to
    /// [`HISTORY_WINDOW`] and then wraps, so a short run clones only what
    /// it recorded.
    window: Vec<Displaced>,
    /// Slot the next record overwrites once the window is full.
    next: usize,
    /// Stores recorded.
    pub stores: u64,
}

/// One drain record: a dword and the value a store displaced from it.
#[derive(Debug, Clone, Copy)]
struct Displaced {
    dword: u64,
    old: u64,
}

/// Displaced values of one location a load may still legally return
/// (the newest ones inside the window).
const HISTORY_DEPTH: usize = 16;

/// Drain records the Global Memory remembers, over all locations.
///
/// A load reads its value at execute and is checked at commit; the
/// window must hold every store that can drain in between. That lag is
/// bounded by what the machine can have in flight: on the largest preset
/// (`nh`: ROB 256, LQ 80, SQ 64, sbuffer 24) a hart holds at most
/// 256 + 80 + 64 + 24 = 424 memory operations between execute and global
/// visibility, the multi-core preset has 2 harts, and a store that
/// straddles a dword boundary leaves 2 records: 424 × 2 × 2 = 1 696,
/// rounded up to a power of two. A value displaced longer ago than that
/// is no longer "recently globally visible", however rarely its location
/// is written.
pub const HISTORY_WINDOW: usize = 2048;

impl GlobalMemory {
    /// Initialize from the boot image.
    pub fn new(image: &riscv_isa::asm::Program) -> Self {
        let mut mem = SparseMemory::new();
        image.load_into(&mut mem);
        Self::from_memory(mem)
    }

    /// Initialize from raw memory.
    pub fn from_memory(mem: SparseMemory) -> Self {
        GlobalMemory {
            mem,
            window: Vec::new(),
            next: 0,
            stores: 0,
        }
    }

    /// Record a drained store.
    pub fn record(&mut self, e: &SbufferDrainEvent) {
        // Remember the pre-store value of each touched dword.
        let start = e.paddr & !7;
        let end = (e.paddr + e.size - 1) & !7;
        let mut d = start;
        while d <= end {
            let rec = Displaced {
                dword: d,
                old: self.mem.read_uint(d, 8),
            };
            if self.window.len() < HISTORY_WINDOW {
                self.window.push(rec);
            } else {
                self.window[self.next] = rec;
                self.next = (self.next + 1) % HISTORY_WINDOW;
            }
            d += 8;
        }
        self.mem.write_uint(e.paddr, e.size, e.data);
        self.stores += 1;
    }

    /// Read the current globally-visible value.
    pub fn read(&mut self, paddr: u64, size: u64) -> u64 {
        self.mem.read_uint(paddr, size)
    }

    /// Drain records currently retained (≤ [`HISTORY_WINDOW`]).
    pub fn retained_records(&self) -> usize {
        self.window.len()
    }

    /// All values this location may legally return to a recent load: the
    /// current value, then the values displaced from it inside the window,
    /// newest first (at most [`HISTORY_DEPTH`]). An access that straddles
    /// two dwords has no history.
    pub fn possible_values(&mut self, paddr: u64, size: u64) -> impl Iterator<Item = u64> + '_ {
        let current = self.mem.read_uint(paddr, size);
        let d = paddr & !7;
        // Record dwords are 8-aligned, so `u64::MAX` matches none.
        let wanted = if (paddr + size - 1) & !7 == d {
            d
        } else {
            u64::MAX
        };
        let shift = (paddr - d) * 8;
        let mask = if size == 8 {
            u64::MAX
        } else {
            (1 << (size * 8)) - 1
        };
        // Newest first: from the slot before `next` down to 0, then from
        // the end of the ring down to `next` (the oldest record).
        let (newer, older) = self.window.split_at(self.next);
        let displaced = newer.iter().rev().chain(older.iter().rev());
        std::iter::once(current).chain(
            displaced
                .filter(move |r| r.dword == wanted)
                .take(HISTORY_DEPTH)
                .map(move |r| (r.old >> shift) & mask),
        )
    }
}

/// The register view of a raw AMO memory value: word accesses
/// sign-extend.
fn sext_word(size: u64, raw: u64) -> u64 {
    if size == 4 {
        raw as i32 as i64 as u64
    } else {
        raw
    }
}

/// A DUT/REF divergence no rule could legitimize — a reported bug.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DiffError {
    /// Program counters diverged.
    Pc {
        /// Hart index.
        hart: usize,
        /// DUT pc.
        dut: u64,
        /// REF pc.
        reference: u64,
        /// Commits checked before the divergence.
        at_commit: u64,
    },
    /// A register writeback diverged.
    Writeback {
        /// Hart index.
        hart: usize,
        /// PC of the instruction.
        pc: u64,
        /// Register (fp?, index).
        reg: (bool, u8),
        /// DUT value.
        dut: u64,
        /// REF value.
        reference: u64,
    },
    /// Trap behavior diverged.
    Trap {
        /// Hart index.
        hart: usize,
        /// PC.
        pc: u64,
        /// DUT trap.
        dut: Option<Trap>,
        /// REF trap.
        reference: Option<Trap>,
    },
    /// A forced event repeated at the same pc (rule soundness guard,
    /// §III-B2c: "asserted not to repeatedly occur").
    RepeatedForcedEvent {
        /// Hart index.
        hart: usize,
        /// PC of the repeated event.
        pc: u64,
        /// The rule involved.
        rule: String,
    },
    /// Final/periodic full-state comparison failed.
    State {
        /// Hart index.
        hart: usize,
        /// Field difference.
        diff: String,
    },
    /// CSR comparison failed.
    Csr {
        /// Hart index.
        hart: usize,
        /// Mismatch details.
        mismatch: CsrMismatch,
    },
}

impl std::fmt::Display for DiffError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

impl std::error::Error for DiffError {}

/// The DiffTest engine: one REF per hart, the global memory, the rule
/// table, and the forced-event guards.
#[derive(Debug, Clone)]
pub struct DiffTest<R: RefModel> {
    refs: Vec<R>,
    /// The global memory (multi-core store ordering).
    pub global_mem: GlobalMemory,
    /// Rule application statistics.
    pub stats: RuleStats,
    /// Commits verified.
    pub commits_checked: u64,
    /// Decode-level coverage, accumulated per commit when enabled
    /// (`RunKnobs::coverage`); `None` keeps the default path free.
    pub coverage: Option<CommitCoverage>,
    forced_guard: HashMap<(usize, u64, &'static str), u32>,
}

impl<R: RefModel> DiffTest<R> {
    /// Build from per-hart REFs and the initial memory image.
    pub fn new(refs: Vec<R>, global_mem: GlobalMemory) -> Self {
        DiffTest {
            refs,
            global_mem,
            stats: RuleStats::default(),
            commits_checked: 0,
            coverage: None,
            forced_guard: HashMap::new(),
        }
    }

    /// Access a hart's REF.
    pub fn reference(&self, hart: usize) -> &R {
        &self.refs[hart]
    }

    /// Record a store entering the DUT's cache hierarchy.
    pub fn on_sbuffer_drain(&mut self, e: &SbufferDrainEvent) {
        self.global_mem.record(e);
    }

    /// Verify one DUT commit event.
    ///
    /// # Errors
    ///
    /// Returns a [`DiffError`] when no diff-rule legitimizes the
    /// divergence — i.e. a detected bug.
    pub fn on_commit(&mut self, e: &CommitEvent) -> Result<(), DiffError> {
        self.commits_checked += 1;
        if let Some(cov) = &mut self.coverage {
            cov.record(&e.inst);
            if let Some(second) = &e.fused {
                cov.record(second);
            }
        }
        let hart = e.hart;

        // --- Trap events -------------------------------------------------
        if let Some(dut_trap) = e.trap {
            // Trial-step the REF: does it trap identically on its own? Only
            // a page fault can need the REF back as it was (the rule
            // below), so only a page fault pays for the clone.
            let page_fault = matches!(dut_trap, Trap::Exception(cause, _) if cause.is_page_fault());
            let snapshot = page_fault.then(|| self.refs[hart].clone());
            let info = self.refs[hart].step();
            if info.trap == Some(dut_trap) && info.pc == e.pc {
                return Ok(());
            }
            let ref_trap = info.trap;
            // Speculative page-fault rule: DUT-only page faults are legal;
            // the REF is forced to take the same fault.
            if let (Trap::Exception(cause, tval), Some(snapshot)) = (dut_trap, snapshot) {
                self.refs[hart] = snapshot;
                self.guard(hart, e.pc, "speculative-page-fault")?;
                self.refs[hart].inject_exception(cause, tval);
                let info = self.refs[hart].step();
                debug_assert_eq!(info.trap, Some(dut_trap));
                self.stats.record(DiffRule::SpeculativePageFault);
                return Ok(());
            }
            return Err(DiffError::Trap {
                hart,
                pc: e.pc,
                dut: Some(dut_trap),
                reference: ref_trap,
            });
        }

        // --- SC-failure rule (must be armed before stepping) -------------
        if e.sc_failed {
            self.guard(hart, e.pc, "sc-failure")?;
            self.refs[hart].force_sc_fail();
            self.stats.record(DiffRule::ScFailure);
        }

        // --- Normal instruction ------------------------------------------
        let info = self.refs[hart].step();
        if info.pc != e.pc {
            return Err(DiffError::Pc {
                hart,
                dut: e.pc,
                reference: info.pc,
                at_commit: self.commits_checked,
            });
        }
        if info.trap.is_some() {
            return Err(DiffError::Trap {
                hart,
                pc: e.pc,
                dut: None,
                reference: info.trap,
            });
        }
        // Macro-fusion rule: DUT committed a fused pair in one event.
        let info = if e.fused.is_some() {
            self.stats.record(DiffRule::MacroFusion);
            self.refs[hart].step()
        } else {
            info
        };
        // The rules below patch the REF: keep what they compare against.
        let (ref_mem, ref_wb) = (info.mem, info.wb);
        self.clear_guards(hart, e.pc);

        // --- AMO store-value check ----------------------------------------
        // The value an AMO writes must be derivable from a recent globally
        // visible value — even when rd is x0 and the read is otherwise
        // architecturally invisible. This is the check that catches the
        // §IV-C wrong-data bug regardless of how the program consumes it.
        if e.inst.is_amo() {
            if let (Some(dm), Some(rm)) = (e.mem, ref_mem) {
                if dm.value != rm.value {
                    let src = self.refs[hart].arch_state().gpr[e.inst.rs2 as usize];
                    let op = e.inst.op;
                    let derivable = |old| {
                        riscv_isa::exec::amo_compute(op, sext_word(dm.size, old), src) == dm.value
                    };
                    if self.globally_visible(&dm, derivable).is_none() {
                        return Err(DiffError::Writeback {
                            hart,
                            pc: e.pc,
                            reg: (false, 0),
                            dut: dm.value,
                            reference: rm.value,
                        });
                    }
                    self.refs[hart].patch_mem(dm.paddr, dm.size, dm.value);
                }
            }
        }

        // --- Writeback comparison with load rules -------------------------
        let Some((dut_fp, dut_rd, dut_v)) = e.wb else {
            return Ok(());
        };
        let matches = ref_wb == Some((dut_fp, dut_rd, dut_v));
        if matches {
            return Ok(());
        }
        // MMIO loads / counter reads: trust the DUT.
        if e.mem.map(|m| m.mmio && !m.is_store).unwrap_or(false) {
            if dut_fp {
                self.refs[hart].patch_fpr(dut_rd, dut_v);
            } else {
                self.refs[hart].patch_gpr(dut_rd, dut_v);
            }
            self.stats.record(DiffRule::MmioLoad);
            return Ok(());
        }
        if e.inst.is_system() && is_counter(e.inst.csr()) {
            self.refs[hart].patch_gpr(dut_rd, dut_v);
            self.stats.record(DiffRule::CounterRead);
            return Ok(());
        }
        if let Some(m) = e.mem {
            let op = e.inst.op;
            if e.inst.is_amo() {
                // Global-memory rule for atomics: the old value an AMO
                // read (AMOs are performed at the memory system) may
                // reflect another hart's stores; the REF's memory is
                // patched with the DUT's read-modify-write result
                // (`m.value` carries the stored, new value).
                if self
                    .globally_visible(&m, |raw| sext_word(m.size, raw) == dut_v)
                    .is_some()
                {
                    self.refs[hart].patch_mem(m.paddr, m.size, m.value);
                    self.refs[hart].patch_gpr(dut_rd, dut_v);
                    return Ok(());
                }
            }
            // Global-memory rule for loads: the DUT may have observed
            // another hart's store that the REF's local memory has not
            // seen. An FP load's value arrives NaN-boxed.
            let seen = |raw| match (dut_fp, m.size) {
                (false, _) => load_extend(op, raw) == dut_v,
                (true, 4) => 0xffff_ffff_0000_0000 | raw == dut_v,
                (true, _) => raw == dut_v,
            };
            if !m.is_store {
                if let Some(raw) = self.globally_visible(&m, seen) {
                    self.refs[hart].patch_mem(m.paddr, m.size, raw);
                    if dut_fp {
                        self.refs[hart].patch_fpr(dut_rd, dut_v);
                    } else {
                        self.refs[hart].patch_gpr(dut_rd, dut_v);
                    }
                    return Ok(());
                }
            }
        }
        Err(DiffError::Writeback {
            hart,
            pc: e.pc,
            reg: (dut_fp, dut_rd),
            dut: dut_v,
            reference: ref_wb.map(|w| w.2).unwrap_or(0),
        })
    }

    /// The Global Memory rule's search: the first recently globally
    /// visible raw value of the accessed location that `legal` accepts.
    /// A hit counts as one application of the rule; the caller patches
    /// the REF with what the DUT saw.
    fn globally_visible(
        &mut self,
        m: &xscore::CommitMem,
        legal: impl Fn(u64) -> bool,
    ) -> Option<u64> {
        let raw = self
            .global_mem
            .possible_values(m.paddr, m.size)
            .find(|&raw| legal(raw))?;
        self.stats.record(DiffRule::GlobalMemoryLoad);
        Some(raw)
    }

    /// Full-state comparison (periodic or at end of simulation): total
    /// over [`ArchState`] but for the free-running rows of the CSR table.
    ///
    /// # Errors
    ///
    /// Returns the first field on which DUT and REF differ.
    pub fn compare_state(&self, hart: usize, dut: &ArchState) -> Result<(), DiffError> {
        match dut.first_diff(&self.refs[hart].arch_state()) {
            None => Ok(()),
            Some(StateDiff::Csr { csr, lhs, rhs }) => Err(DiffError::Csr {
                hart,
                mismatch: CsrMismatch { csr, dut: lhs, reference: rhs },
            }),
            Some(d) => Err(DiffError::State { hart, diff: d.to_string() }),
        }
    }

    /// Rule-soundness guard: a forced event at the same pc twice in a row
    /// (without an intervening successful commit at that pc) indicates a
    /// real bug rather than legal non-determinism.
    fn guard(&mut self, hart: usize, pc: u64, rule: &'static str) -> Result<(), DiffError> {
        let n = self.forced_guard.entry((hart, pc, rule)).or_insert(0);
        *n += 1;
        if *n > 2 {
            return Err(DiffError::RepeatedForcedEvent {
                hart,
                pc,
                rule: rule.to_string(),
            });
        }
        Ok(())
    }

    fn clear_guards(&mut self, hart: usize, pc: u64) {
        self.forced_guard.retain(|&(h, p, _), _| h != hart || p != pc);
    }
}

impl DiffTest<AnyRef> {
    /// One REF of the named personality per hart over a program.
    ///
    /// # Panics
    ///
    /// Panics on an unknown personality name — callers (the campaign CLI,
    /// [`xscore::XsConfig`] consumers) validate against [`AnyRef::names`]
    /// first.
    pub fn for_program_with_ref(
        name: &str,
        program: &riscv_isa::asm::Program,
        harts: usize,
    ) -> Self {
        let refs = (0..harts)
            .map(|h| {
                AnyRef::by_name(name, program, h as u64)
                    .unwrap_or_else(|| panic!("unknown REF personality `{name}`"))
            })
            .collect();
        DiffTest::new(refs, GlobalMemory::new(program))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use riscv_isa::asm::{reg::*, Asm};
    use riscv_isa::op::{DecodedInst, Op};

    fn nop_program() -> riscv_isa::asm::Program {
        let mut a = Asm::new(0x8000_0000);
        a.li(T0, 1);
        a.li(T1, 2);
        a.add(T2, T0, T1);
        a.ebreak();
        a.assemble()
    }

    #[test]
    fn every_ref_name_boots_and_a_clone_steps_like_its_original() {
        let p = nop_program();
        for name in AnyRef::names() {
            let mut r = AnyRef::by_name(name, &p, 1)
                .unwrap_or_else(|| panic!("`{name}` passes --ref validation but does not boot"));
            assert_eq!(r.arch_state().csr.mhartid, 1, "{name}");
            r.step();
            r.step();
            // A patch between steps must reach the clone's shadow state too.
            r.patch_gpr(T1, 40);
            let mut c = r.clone();
            for _ in 0..3 {
                assert_eq!(c.step(), r.step(), "{name}");
            }
            assert_eq!(c.arch_state(), r.arch_state(), "{name}");
            assert_eq!(r.arch_state().gpr[T2 as usize], 41, "{name}");
        }
        assert!(AnyRef::by_name("no-such", &p, 0).is_none());
    }

    /// The default REF caches decoded instructions, and DiffTest patches
    /// its memory: a word it already executed, patched through
    /// `patch_mem`, runs as the new instruction once a `fence.i` has.
    #[test]
    fn a_patched_cached_instruction_runs_new_after_fence_i() {
        let mut a = Asm::new(0x8000_0000);
        let site = a.bound_label();
        a.addi(A0, A0, 1);
        a.fence_i();
        a.addi(T0, T0, 1);
        a.li(T1, 2);
        a.bne(T0, T1, site);
        a.ebreak();
        let p = a.assemble();
        let mut patch = Asm::new(0);
        patch.addi(A0, A0, 100);
        let word = u32::from_le_bytes(patch.assemble().bytes[..4].try_into().unwrap());

        let mut r = AnyRef::by_name(DEFAULT_REF_NAME, &p, 0).expect("the default REF boots");
        assert!(matches!(&r, AnyRef::Registry(i) if i.name() == DEFAULT_REF_NAME));
        assert_eq!(r.step().wb, Some((false, A0, 1)));
        r.patch_mem(p.entry, 4, u64::from(word));
        // fence.i, the counter, the bound and the branch back to the site.
        for _ in 0..4 {
            r.step();
        }
        let info = r.step();
        assert_eq!((info.pc, info.wb), (p.entry, Some((false, A0, 101))));
    }

    fn commit(pc: u64, inst: DecodedInst, wb: Option<(bool, u8, u64)>) -> CommitEvent {
        CommitEvent {
            hart: 0,
            pc,
            inst,
            fused: None,
            wb,
            mem: None,
            trap: None,
            sc_failed: false,
            halted: false,
            cycle: 0,
        }
    }

    #[test]
    fn matching_commits_pass() {
        let p = nop_program();
        let mut dt = DiffTest::for_program_with_ref(ARCH_REF_NAME, &p, 1);
        // li T0, 1 == addi t0, x0, 1
        let i1 = riscv_isa::decode32(0x0010_0293);
        let e = commit(0x8000_0000, i1, Some((false, 5, 1)));
        dt.on_commit(&e).expect("matches");
        assert_eq!(dt.commits_checked, 1);
    }

    #[test]
    fn wrong_value_is_detected() {
        let p = nop_program();
        let mut dt = DiffTest::for_program_with_ref(ARCH_REF_NAME, &p, 1);
        let i1 = riscv_isa::decode32(0x0010_0293);
        let e = commit(0x8000_0000, i1, Some((false, 5, 99)));
        let err = dt.on_commit(&e).unwrap_err();
        assert!(matches!(err, DiffError::Writeback { dut: 99, .. }), "{err:?}");
    }

    #[test]
    fn wrong_pc_is_detected() {
        let p = nop_program();
        let mut dt = DiffTest::for_program_with_ref(ARCH_REF_NAME, &p, 1);
        let i1 = riscv_isa::decode32(0x0010_0293);
        let e = commit(0x8000_0010, i1, None);
        assert!(matches!(dt.on_commit(&e), Err(DiffError::Pc { .. })));
    }

    #[test]
    fn page_fault_rule_forces_ref() {
        let p = nop_program();
        let mut dt = DiffTest::for_program_with_ref(ARCH_REF_NAME, &p, 1);
        let e = CommitEvent {
            trap: Some(Trap::Exception(Exception::LoadPageFault, 0x4000_0000)),
            ..commit(0x8000_0000, DecodedInst::default(), None)
        };
        dt.on_commit(&e).expect("rule applies");
        assert_eq!(dt.stats.count(DiffRule::SpeculativePageFault), 1);
        // The REF took the fault: its mcause reflects it.
        assert_eq!(
            dt.reference(0).hart().state.csr.mcause,
            Exception::LoadPageFault.code()
        );
    }

    #[test]
    fn repeated_forced_fault_is_a_bug() {
        let p = nop_program();
        let mut dt = DiffTest::for_program_with_ref(ARCH_REF_NAME, &p, 1);
        let e = CommitEvent {
            trap: Some(Trap::Exception(Exception::LoadPageFault, 0x4000_0000)),
            ..commit(0x8000_0000, DecodedInst::default(), None)
        };
        // mtvec is 0, so the fault loops back near the same pc; force the
        // same pc repeatedly.
        assert!(dt.on_commit(&e).is_ok());
        assert!(dt.on_commit(&e).is_ok());
        let err = dt.on_commit(&e).unwrap_err();
        assert!(matches!(err, DiffError::RepeatedForcedEvent { .. }));
    }

    #[test]
    fn global_memory_rule_patches_ref() {
        let p = nop_program();
        let mut dt = DiffTest::for_program_with_ref(ARCH_REF_NAME, &p, 1);
        // Another hart's store lands in the global memory.
        dt.on_sbuffer_drain(&SbufferDrainEvent {
            hart: 1,
            paddr: 0x8002_0000,
            size: 8,
            data: 777,
            cycle: 5,
        });
        // The DUT's first committed instruction is a load observing it.
        let ld = DecodedInst {
            op: Op::Ld,
            rd: 5,
            rs1: 6,
            len: 4,
            ..Default::default()
        };
        let e = CommitEvent {
            mem: Some(xscore::CommitMem {
                vaddr: 0x8002_0000,
                paddr: 0x8002_0000,
                size: 8,
                is_store: false,
                value: 777,
                mmio: false,
            }),
            // DUT pc runs the same program; its first inst is li t0,1 but
            // we substitute a load for the scenario. Use a fresh DiffTest
            // whose REF executes a real load instead.
            ..commit(0x8000_0000, ld, Some((false, 5, 777)))
        };
        // Build a program whose first instruction IS that load.
        let mut a = Asm::new(0x8000_0000);
        a.ld(T0, 0, T1); // t1=0.. reads address 0 -> 0 in REF
        a.ebreak();
        let p2 = a.assemble();
        let mut dt2 = DiffTest::for_program_with_ref(ARCH_REF_NAME, &p2, 1);
        dt2.global_mem = dt.global_mem.clone();
        let mut e2 = e;
        e2.mem = Some(xscore::CommitMem {
            vaddr: 0x8002_0000,
            paddr: 0x8002_0000,
            size: 8,
            is_store: false,
            value: 777,
            mmio: false,
        });
        dt2.on_commit(&e2).expect("global memory rule");
        assert_eq!(dt2.stats.count(DiffRule::GlobalMemoryLoad), 1);
        // REF register and local memory were patched.
        assert_eq!(dt2.reference(0).hart().state.read_gpr(5), 777);
    }

    #[test]
    fn bogus_load_value_still_fails() {
        let mut a = Asm::new(0x8000_0000);
        a.ld(T0, 0, T1);
        a.ebreak();
        let p = a.assemble();
        let mut dt = DiffTest::for_program_with_ref(ARCH_REF_NAME, &p, 1);
        let ld = DecodedInst {
            op: Op::Ld,
            rd: 5,
            rs1: 6,
            len: 4,
            ..Default::default()
        };
        let e = CommitEvent {
            mem: Some(xscore::CommitMem {
                vaddr: 0x8002_0000,
                paddr: 0x8002_0000,
                size: 8,
                is_store: false,
                value: 1234,
                mmio: false,
            }),
            ..commit(0x8000_0000, ld, Some((false, 5, 1234)))
        };
        // 1234 matches neither the REF memory nor the global memory.
        assert!(matches!(
            dt.on_commit(&e),
            Err(DiffError::Writeback { .. })
        ));
    }

    fn drain(paddr: u64, size: u64, data: u64) -> SbufferDrainEvent {
        SbufferDrainEvent {
            hart: 1,
            paddr,
            size,
            data,
            cycle: 0,
        }
    }

    /// Commit a load of `LOC` that returned `value` against a REF whose
    /// own load reads 0, after `later` unrelated drains have followed the
    /// store that displaced 111 from `LOC`.
    fn stale_load(later: usize, value: u64) -> (Result<(), DiffError>, u64) {
        const LOC: u64 = 0x8002_0000;
        let mut a = Asm::new(0x8000_0000);
        a.ld(T0, 0, T1);
        a.ebreak();
        let mut dt = DiffTest::for_program_with_ref(ARCH_REF_NAME, &a.assemble(), 1);
        dt.on_sbuffer_drain(&drain(LOC, 8, 111));
        dt.on_sbuffer_drain(&drain(LOC, 8, 222)); // displaces 111
        for i in 0..later as u64 {
            dt.on_sbuffer_drain(&drain(0x8010_0000 + 8 * i, 8, i));
        }
        let ld = DecodedInst {
            op: Op::Ld,
            rd: 5,
            rs1: 6,
            len: 4,
            ..Default::default()
        };
        let e = CommitEvent {
            mem: Some(xscore::CommitMem {
                vaddr: LOC,
                paddr: LOC,
                size: 8,
                is_store: false,
                value,
                mmio: false,
            }),
            ..commit(0x8000_0000, ld, Some((false, 5, value)))
        };
        (dt.on_commit(&e), dt.stats.count(DiffRule::GlobalMemoryLoad))
    }

    #[test]
    fn a_displaced_value_is_legal_only_inside_the_window() {
        // Still the newest record but one: legal.
        assert_eq!(stale_load(0, 111), (Ok(()), 1));
        // The oldest record the window retains: still legal.
        assert_eq!(stale_load(HISTORY_WINDOW - 1, 111), (Ok(()), 1));
        // One drain more and the value was displaced too long ago to be
        // "recently globally visible", however quiet its own location
        // has been since — a stale load is a bug.
        let (verdict, rule) = stale_load(HISTORY_WINDOW, 111);
        assert!(
            matches!(verdict, Err(DiffError::Writeback { dut: 111, .. })),
            "{verdict:?}"
        );
        assert_eq!(rule, 0);
        // The current value never ages out.
        assert_eq!(stale_load(10 * HISTORY_WINDOW, 222), (Ok(()), 1));
    }

    #[test]
    fn a_snapshot_plus_one_store_unshares_one_page_per_memory() {
        let mut a = Asm::new(0x8000_0000);
        a.li(T1, 0x8000_0100);
        a.sd(T1, 0, T1);
        a.ebreak();
        let p = a.assemble();
        let mut dt = DiffTest::for_program_with_ref(ARCH_REF_NAME, &p, 1);
        for i in 0..64u64 {
            dt.on_sbuffer_drain(&drain(0x8010_0000 + 4096 * i, 8, i));
        }
        let snapshot = dt.clone();
        let resident = dt.global_mem.mem.resident_pages();
        assert_eq!(dt.global_mem.mem.shared_pages(), resident);
        dt.on_sbuffer_drain(&drain(0x8010_0000, 8, 7));
        assert_eq!(dt.global_mem.mem.shared_pages(), resident - 1);
        // The REF's local memory: run it up to and over its one store.
        let shared = |dt: &DiffTest<AnyRef>| match &dt.refs[0] {
            AnyRef::Arch(r) => (r.mem.resident_pages(), r.mem.shared_pages()),
            AnyRef::Registry(_) => unreachable!("built as `{ARCH_REF_NAME}`"),
        };
        let (resident, before) = shared(&dt);
        assert_eq!(before, resident);
        while dt.refs[0].step().mem.is_none_or(|m| !m.is_store) {}
        assert_eq!(shared(&dt).1, resident - 1);
        drop(snapshot);
        assert_eq!(dt.global_mem.mem.shared_pages(), 0);
    }

    /// The per-location history this window replaced: one deque of the
    /// last `HISTORY_DEPTH` displaced values per dword ever stored, kept
    /// forever. Each entry remembers which drain record it was.
    #[derive(Default)]
    struct DequeModel {
        dwords: HashMap<u64, u64>,
        history: HashMap<u64, std::collections::VecDeque<(u64, usize)>>,
        records: usize,
    }

    impl DequeModel {
        fn record(&mut self, e: &SbufferDrainEvent) {
            let mut d = e.paddr & !7;
            while d <= (e.paddr + e.size - 1) & !7 {
                let h = self.history.entry(d).or_default();
                h.push_back((self.dwords.get(&d).copied().unwrap_or(0), self.records));
                if h.len() > HISTORY_DEPTH {
                    h.pop_front();
                }
                self.records += 1;
                d += 8;
            }
            for (i, byte) in e.data.to_le_bytes()[..e.size as usize].iter().enumerate() {
                let a = e.paddr + i as u64;
                let dword = self.dwords.entry(a & !7).or_insert(0);
                let shift = (a & 7) * 8;
                *dword = *dword & !(0xff << shift) | u64::from(*byte) << shift;
            }
        }

        /// The displaced values of `(paddr, size)`, newest first, with
        /// whether each is still among the last `HISTORY_WINDOW` records.
        fn displaced(&self, paddr: u64, size: u64) -> Vec<(u64, bool)> {
            let d = paddr & !7;
            if (paddr + size - 1) & !7 != d {
                return Vec::new();
            }
            let mask = if size == 8 {
                u64::MAX
            } else {
                (1 << (size * 8)) - 1
            };
            let entries = self.history.get(&d).into_iter().flatten().rev();
            entries
                .map(|&(old, record)| {
                    let in_window = self.records - record <= HISTORY_WINDOW;
                    ((old >> ((paddr - d) * 8)) & mask, in_window)
                })
                .collect()
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The ring against the per-dword deques it replaced, over runs
        /// several windows long: the same `possible_values` whenever every
        /// deque entry of the location is still inside the window (and
        /// exactly the in-window ones otherwise — the two rare dwords
        /// are written too seldom to stay inside), for every access
        /// size, straddling accesses included.
        #[test]
        fn ring_matches_the_per_dword_deques_inside_the_window(
            stores in prop::collection::vec((0u64..256, 0u64..8, 0u32..4, any::<u64>()), 1..6000),
        ) {
            const BASE: u64 = 0x8002_0000;
            let mut gm = GlobalMemory::from_memory(SparseMemory::new());
            let mut model = DequeModel::default();
            let mut all_inside = 0;
            for &(sel, offset, size_log2, data) in &stores {
                // Six busy dwords next to each other (so straddles land
                // on a neighbour) and two written once in 128 stores.
                let dword = if sel < 254 { sel % 6 } else { 8 + sel % 2 };
                let (paddr, size) = (BASE + 8 * dword + offset, 1 << size_log2);
                let e = drain(paddr, size, data);
                gm.record(&e);
                model.record(&e);
                for read_size in [1, 2, 4, 8] {
                    let got: Vec<u64> = gm.possible_values(paddr, read_size).collect();
                    let displaced = model.displaced(paddr, read_size);
                    let current = gm.read(paddr, read_size);
                    let want = std::iter::once(current)
                        .chain(displaced.iter().filter(|d| d.1).map(|d| d.0));
                    prop_assert_eq!(&got, &want.collect::<Vec<_>>());
                    all_inside += displaced.iter().all(|d| d.1) as usize;
                }
                prop_assert!(gm.retained_records() <= HISTORY_WINDOW);
            }
            prop_assert_eq!(gm.retained_records(), model.records.min(HISTORY_WINDOW));
            prop_assert!(all_inside > 0);
        }
    }

    #[test]
    fn state_comparison_with_csr_rules() {
        let p = nop_program();
        let dt = DiffTest::for_program_with_ref(ARCH_REF_NAME, &p, 1);
        let mut dut_state = dt.reference(0).arch_state();
        dut_state.csr.mcycle = 42424242; // counters may diverge
        dt.compare_state(0, &dut_state).expect("counters ignored");
        dut_state.csr.mscratch = 7;
        assert!(matches!(
            dt.compare_state(0, &dut_state),
            Err(DiffError::Csr { .. })
        ));
        let mut dut_state2 = dt.reference(0).arch_state();
        dut_state2.gpr[3] = 9;
        assert!(matches!(
            dt.compare_state(0, &dut_state2),
            Err(DiffError::State { .. })
        ));
    }

    /// The comparison is total over the CSR file: a hart that ended in
    /// the wrong mode or with the wrong id is an error, and only the
    /// free-running counters may differ.
    #[test]
    fn state_comparison_sees_the_whole_csr_file() {
        use riscv_isa::csr::{CsrFile, Privilege};
        let p = nop_program();
        let dt = DiffTest::for_program_with_ref(ARCH_REF_NAME, &p, 1);
        let differing = |change: fn(&mut CsrFile)| {
            let mut dut = dt.reference(0).arch_state();
            change(&mut dut.csr);
            dt.compare_state(0, &dut)
        };
        let wrong_mode = differing(|c| c.privilege = Privilege::User);
        assert!(matches!(wrong_mode, Err(DiffError::State { .. })), "{wrong_mode:?}");
        let wrong_hart = differing(|c| c.mhartid = 1);
        assert!(matches!(wrong_hart, Err(DiffError::Csr { .. })), "{wrong_hart:?}");
        assert_eq!(differing(|c| c.mcycle = 1), Ok(()));
        assert_eq!(differing(|c| c.minstret = 2), Ok(()));
        assert_eq!(differing(|c| c.time = 3), Ok(()));
    }
}
