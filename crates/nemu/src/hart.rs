//! One hart's functional execution semantics.
//!
//! [`Hart`] + [`step`] form the canonical instruction-at-a-time executor:
//! every interpreter in this crate (NEMU fast path included, for its slow
//! path) and the DiffTest reference model are built on it. It also exposes
//! the hooks DRAV diff-rules need to steer the REF: exception injection
//! (forced page faults), forced SC failures, and load/memory patching.

use riscv_isa::exec::{
    amo_compute, atomic_aligned, branch_taken, has_imm_operand, int_compute, load_extend, system,
};
use riscv_isa::fpu::{fp_execute_with, Arith, Host};
use riscv_isa::mem::{granule, mmio, PhysMem};
use riscv_isa::mmu::{self, AccessType};
use riscv_isa::op::{DecodedInst, Op, Shape};
use riscv_isa::state::ArchState;
use riscv_isa::trap::{Exception, Trap};
use serde::{Deserialize, Serialize};

/// A memory access performed by one instruction (probe payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemAccess {
    /// Virtual address.
    pub vaddr: u64,
    /// Physical address after translation.
    pub paddr: u64,
    /// Access size in bytes.
    pub size: u64,
    /// True for stores/AMOs.
    pub is_store: bool,
    /// Value loaded or stored (post-extension for loads).
    pub value: u64,
    /// True when the access hit an MMIO device.
    pub mmio: bool,
}

/// The observable outcome of stepping one instruction — the information an
/// instruction-commit probe extracts (paper §III-B3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StepInfo {
    /// PC of the instruction.
    pub pc: u64,
    /// The instruction (illegal/faulting fetches report a default).
    pub inst: DecodedInst,
    /// Trap taken instead of (or by) this instruction.
    pub trap: Option<Trap>,
    /// Destination register write, if any (`(is_fpr, index, value)`).
    pub wb: Option<(bool, u8, u64)>,
    /// Memory access performed, if any.
    pub mem: Option<MemAccess>,
    /// True if this step was an SC that failed.
    pub sc_failed: bool,
    /// True when the hart halted on this step.
    pub halted: bool,
    /// True when this system instruction left cached translations or
    /// fetched instructions stale (the flushes of
    /// [`riscv_isa::exec::SysEffect`]) or changed privilege (`mret`,
    /// `sret`).
    pub flush: bool,
}

impl StepInfo {
    /// An empty record for the step about to execute at `pc`.
    pub fn at(pc: u64) -> Self {
        StepInfo {
            pc,
            inst: DecodedInst::default(),
            trap: None,
            wb: None,
            mem: None,
            sc_failed: false,
            halted: false,
            flush: false,
        }
    }

    /// True when this step ends a BBV basic block: a control-flow or
    /// system instruction ([`DecodedInst::ends_block`]) or any trap.
    pub fn ends_block(&self) -> bool {
        self.inst.ends_block() || self.trap.is_some()
    }

    /// True when this step may change what the instruction at a pc
    /// decodes to, so a tier that caches decoded instructions must drop
    /// them: a [`StepInfo::flush`], or — since it retargets fetch
    /// translation under a cache keyed by virtual pc — any trap.
    pub fn invalidates_decodes(&self) -> bool {
        self.flush || self.trap.is_some()
    }
}

/// One hart: architectural state plus simulation bookkeeping.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Hart {
    /// Architectural state.
    pub state: ArchState,
    /// LR reservation (granule-aligned physical address).
    pub reservation: Option<u64>,
    /// Exit code once halted.
    pub halted: Option<u64>,
    /// Proxy-kernel mode: ecall is emulated (exit/write) instead of
    /// trapping, like NEMU's user mode (paper §III-D2).
    pub proxy_kernel: bool,
    /// Bytes written to the UART / write syscall.
    pub output: Vec<u8>,
    /// Retired instruction count (simulation-side, always increments).
    pub instret: u64,
    /// Pending forced exception (DiffTest page-fault diff-rule hook).
    pub pending_injection: Option<(Exception, u64)>,
    /// Force the next SC to fail (DiffTest SC-timeout diff-rule hook).
    pub force_sc_fail: bool,
}

impl Hart {
    /// Create a hart resetting to `pc`.
    pub fn new(pc: u64, hartid: u64) -> Self {
        Hart {
            state: ArchState::new(pc, hartid),
            reservation: None,
            halted: None,
            proxy_kernel: false,
            output: Vec::new(),
            instret: 0,
            pending_injection: None,
            force_sc_fail: false,
        }
    }

    /// True once the hart has halted (ebreak or exit ecall).
    pub fn is_halted(&self) -> bool {
        self.halted.is_some()
    }
}

/// Translate and read `size` bytes at a virtual address.
fn virt_read<M: PhysMem>(
    hart: &mut Hart,
    mem: &mut M,
    va: u64,
    size: u64,
    access: AccessType,
) -> Result<(u64, u64, bool), (Exception, u64)> {
    if crosses_page(va, size) && mmu::translation_active(&hart.state.csr, access) {
        // Split access: translate each half separately.
        let split = 0x1000 - (va & 0xfff);
        let (lo, _, _) = virt_read(hart, mem, va, split, access)?;
        let (hi, _, _) = virt_read(hart, mem, va + split, size - split, access)?;
        return Ok(((hi << (8 * split)) | lo, va, false));
    }
    let t = mmu::translate(mem, &hart.state.csr, va, access).map_err(|e| (e, va))?;
    if mmio(t.pa, size, false) {
        return Ok((hart.state.csr.time, t.pa, true));
    }
    Ok((mem.read_uint(t.pa, size), t.pa, false))
}

fn virt_write<M: PhysMem>(
    hart: &mut Hart,
    mem: &mut M,
    va: u64,
    size: u64,
    value: u64,
) -> Result<(u64, bool), (Exception, u64)> {
    if crosses_page(va, size) && mmu::translation_active(&hart.state.csr, AccessType::Store) {
        let split = 0x1000 - (va & 0xfff);
        virt_write(hart, mem, va, split, value)?;
        virt_write(hart, mem, va + split, size - split, value >> (8 * split))?;
        return Ok((va, false));
    }
    let t = mmu::translate(mem, &hart.state.csr, va, AccessType::Store).map_err(|e| (e, va))?;
    if mmio(t.pa, size, true) {
        hart.output.push(value as u8);
        return Ok((t.pa, true));
    }
    mem.write_uint(t.pa, size, value);
    Ok((t.pa, false))
}

#[inline]
fn crosses_page(va: u64, size: u64) -> bool {
    (va & 0xfff) + size > 0x1000
}

/// Fetch and decode the instruction at the current PC.
///
/// # Errors
///
/// The fetch's exception and its trap value.
pub fn fetch<M: PhysMem>(hart: &mut Hart, mem: &mut M) -> Result<DecodedInst, (Exception, u64)> {
    let pc = hart.state.pc;
    if pc & 1 != 0 {
        return Err((Exception::InstAddrMisaligned, pc));
    }
    let t = mmu::translate(mem, &hart.state.csr, pc, AccessType::Fetch).map_err(|e| (e, pc))?;
    if !crosses_page(pc, 4) {
        return Ok(riscv_isa::decode(mem.fetch32(t.pa)));
    }
    // The last halfword of a page: the upper half, if there is one, sits
    // behind its own translation.
    let low = mem.read_uint(t.pa, 2) as u32;
    if low & 3 != 3 {
        return Ok(riscv_isa::decode16(low as u16));
    }
    let t2 =
        mmu::translate(mem, &hart.state.csr, pc + 2, AccessType::Fetch).map_err(|e| (e, pc + 2))?;
    let high = mem.read_uint(t2.pa, 2) as u32;
    Ok(riscv_isa::decode32((high << 16) | low))
}

/// Execute one already-decoded instruction, updating PC and state, with
/// `A`'s FP arithmetic kernels ([`Host`] everywhere but the Spike-like
/// tier).
///
/// On success fills `info` with writeback/memory/SC details. The caller is
/// responsible for trap entry when an `Err` is returned.
///
/// # Errors
///
/// Returns the exception raised by the instruction and its trap value.
pub fn execute<A: Arith, M: PhysMem>(
    hart: &mut Hart,
    mem: &mut M,
    d: &DecodedInst,
    info: &mut StepInfo,
) -> Result<(), (Exception, u64)> {
    use Op::*;
    let s = &mut hart.state;
    let pc = s.pc;
    let next_pc = pc.wrapping_add(d.len as u64);
    let rs1 = s.read_gpr(d.rs1);
    let rs2 = s.read_gpr(d.rs2);
    // The rounding mode of an FP instruction, which FS off or a reserved
    // mode makes illegal.
    let rm = |s: &ArchState| {
        s.csr
            .rounding(d)
            .ok_or((Exception::IllegalInstruction, d.raw as u64))
    };

    macro_rules! wb {
        ($v:expr) => {{
            let v = $v;
            s.write_gpr(d.rd, v);
            if d.rd != 0 {
                info.wb = Some((false, d.rd, v));
            }
            s.pc = next_pc;
        }};
    }
    macro_rules! wb_f {
        ($v:expr) => {{
            let v = $v;
            s.fpr[d.rd as usize] = v;
            info.wb = Some((true, d.rd, v));
            s.pc = next_pc;
        }};
    }

    // Fast path: plain integer computation.
    if let Some(v) = int_compute(
        d.op,
        rs1,
        if has_imm_operand(d.op) {
            d.imm as u64
        } else {
            rs2
        },
    ) {
        wb!(v);
        return Ok(());
    }

    match d.op {
        Auipc => wb!(pc.wrapping_add(d.imm as u64)),
        Jal => {
            s.write_gpr(d.rd, next_pc);
            if d.rd != 0 {
                info.wb = Some((false, d.rd, next_pc));
            }
            s.pc = pc.wrapping_add(d.imm as u64);
        }
        Jalr => {
            let target = rs1.wrapping_add(d.imm as u64) & !1;
            s.write_gpr(d.rd, next_pc);
            if d.rd != 0 {
                info.wb = Some((false, d.rd, next_pc));
            }
            s.pc = target;
        }
        Beq | Bne | Blt | Bge | Bltu | Bgeu => {
            s.pc = if branch_taken(d.op, rs1, rs2) {
                pc.wrapping_add(d.imm as u64)
            } else {
                next_pc
            };
        }
        Lb | Lh | Lw | Ld | Lbu | Lhu | Lwu | LrW | LrD => {
            let va = rs1.wrapping_add(d.imm as u64);
            let lr = d.op.shape() == Shape::Lr;
            if lr {
                atomic_aligned(d, va)?;
            }
            let (raw, pa, mmio) = virt_read(hart, mem, va, d.mem_size(), AccessType::Load)?;
            let v = load_extend(d.op, raw);
            if lr {
                hart.reservation = Some(granule(pa));
            }
            info.mem = Some(MemAccess {
                vaddr: va,
                paddr: pa,
                size: d.mem_size(),
                is_store: false,
                value: v,
                mmio,
            });
            let s = &mut hart.state;
            s.write_gpr(d.rd, v);
            if d.rd != 0 {
                info.wb = Some((false, d.rd, v));
            }
            s.pc = next_pc;
        }
        Flw | Fld => {
            rm(s)?;
            let va = rs1.wrapping_add(d.imm as u64);
            let (raw, pa, mmio) = virt_read(hart, mem, va, d.mem_size(), AccessType::Load)?;
            let v = if d.op == Flw {
                0xffff_ffff_0000_0000 | raw
            } else {
                raw
            };
            info.mem = Some(MemAccess {
                vaddr: va,
                paddr: pa,
                size: d.mem_size(),
                is_store: false,
                value: v,
                mmio,
            });
            let s = &mut hart.state;
            s.fpr[d.rd as usize] = v;
            info.wb = Some((true, d.rd, v));
            s.pc = next_pc;
        }
        Sb | Sh | Sw | Sd | Fsw | Fsd => {
            let va = rs1.wrapping_add(d.imm as u64);
            let value = if matches!(d.op, Fsw | Fsd) {
                rm(s)?;
                s.fpr[d.rs2 as usize]
            } else {
                rs2
            };
            let size = d.mem_size();
            let (pa, mmio) = virt_write(hart, mem, va, size, value)?;
            info.mem = Some(MemAccess {
                vaddr: va,
                paddr: pa,
                size,
                is_store: true,
                value,
                mmio,
            });
            hart.state.pc = next_pc;
        }
        ScW | ScD => {
            let va = rs1;
            atomic_aligned(d, va)?;
            // Translate first: a failing SC still needs store permission
            // checks per the spec (we keep it simple and check always).
            let t =
                mmu::translate(mem, &hart.state.csr, va, AccessType::Store).map_err(|e| (e, va))?;
            let success = !hart.force_sc_fail && hart.reservation == Some(granule(t.pa));
            hart.force_sc_fail = false;
            hart.reservation = None;
            if success {
                mem.write_uint(t.pa, d.mem_size(), rs2);
                info.mem = Some(MemAccess {
                    vaddr: va,
                    paddr: t.pa,
                    size: d.mem_size(),
                    is_store: true,
                    value: rs2,
                    mmio: false,
                });
            } else {
                info.sc_failed = true;
            }
            let s = &mut hart.state;
            let v = (!success) as u64;
            s.write_gpr(d.rd, v);
            if d.rd != 0 {
                info.wb = Some((false, d.rd, v));
            }
            s.pc = next_pc;
        }
        op if d.is_amo() => {
            let va = rs1;
            let size = d.mem_size();
            atomic_aligned(d, va)?;
            let t =
                mmu::translate(mem, &hart.state.csr, va, AccessType::Store).map_err(|e| (e, va))?;
            let raw = mem.read_uint(t.pa, size);
            let old = load_extend(if size == 4 { Op::Lw } else { Op::Ld }, raw);
            let newv = amo_compute(op, old, rs2);
            mem.write_uint(t.pa, size, newv);
            info.mem = Some(MemAccess {
                vaddr: va,
                paddr: t.pa,
                size,
                is_store: true,
                value: newv,
                mmio: false,
            });
            let s = &mut hart.state;
            s.write_gpr(d.rd, old);
            if d.rd != 0 {
                info.wb = Some((false, d.rd, old));
            }
            s.pc = next_pc;
        }
        Ecall if hart.proxy_kernel => handle_proxy_ecall(hart, mem, info)?,
        // The interpreter re-walks every access and caches nothing; it
        // records the flushes for the tiers that cache decodes.
        _ if d.is_system() || d.op == Illegal => {
            let e = system(&mut s.csr, d, rs1)?;
            let a0 = s.read_gpr(10);
            wb!(e.rd);
            s.pc = e.redirect.unwrap_or(next_pc);
            // Only `mret` and `sret` redirect, and both change privilege.
            info.flush = e.flush_tlb || e.flush_icache || e.redirect.is_some();
            if e.halt {
                hart.halted = Some(a0);
                info.halted = true;
            }
        }
        // Floating-point operations.
        _ => {
            let rm = rm(s)?;
            let a = if d.rs1_is_fpr() {
                s.fpr[d.rs1 as usize]
            } else {
                rs1
            };
            let b = if d.rs2_is_fpr() {
                s.fpr[d.rs2 as usize]
            } else {
                rs2
            };
            let c = s.fpr[d.rs3 as usize];
            let r = fp_execute_with::<A>(d.op, a, b, c, rm);
            s.csr.set_fflags(r.flags);
            if d.writes_fpr() {
                wb_f!(r.bits);
            } else {
                wb!(r.bits);
            }
        }
    }
    Ok(())
}

fn handle_proxy_ecall<M: PhysMem>(
    hart: &mut Hart,
    mem: &mut M,
    info: &mut StepInfo,
) -> Result<(), (Exception, u64)> {
    let a0 = hart.state.read_gpr(10);
    let a1 = hart.state.read_gpr(11);
    let a2 = hart.state.read_gpr(12);
    let a7 = hart.state.read_gpr(17);
    match a7 {
        93 => {
            // exit(code)
            hart.halted = Some(a0);
            info.halted = true;
        }
        64 => {
            // write(fd, buf, len): forward bytes to the output channel.
            for i in 0..a2.min(4096) {
                let (byte, _, _) = virt_read(hart, mem, a1 + i, 1, AccessType::Load)?;
                hart.output.push(byte as u8);
            }
            hart.state.write_gpr(10, a2);
            info.wb = Some((false, 10, a2));
        }
        _ => {
            // Unknown syscall: return -ENOSYS like a proxy kernel would.
            let v = (-38i64) as u64;
            hart.state.write_gpr(10, v);
            info.wb = Some((false, 10, v));
        }
    }
    hart.state.pc = hart.state.pc.wrapping_add(4);
    Ok(())
}

/// Step one instruction: interrupt check, fetch, decode, execute, retire.
///
/// Returns the commit information for probes. Never panics on guest
/// misbehavior — all faults become architectural traps. The by-value
/// form of [`step_into`].
pub fn step<M: PhysMem>(hart: &mut Hart, mem: &mut M) -> StepInfo {
    let mut info = StepInfo::at(hart.state.pc);
    step_into(hart, mem, &mut info);
    info
}

/// [`step`] into a record the caller owns: `info` is reset to the step
/// about to execute and filled in place (a halted hart reports `halted`
/// and executes nothing). The single-step body every tier falls back to.
pub fn step_into<M: PhysMem>(hart: &mut Hart, mem: &mut M, info: &mut StepInfo) {
    *info = StepInfo::at(hart.state.pc);
    if hart.is_halted() {
        info.halted = true;
        return;
    }
    // Diff-rule hook: forced exception injection (e.g. the speculative
    // page-fault rule makes the REF take the DUT's fault).
    if let Some((cause, tval)) = hart.pending_injection.take() {
        take_trap(hart, Trap::Exception(cause, tval), info);
        return;
    }
    if let Some(irq) = hart.state.csr.pending_interrupt() {
        take_trap(hart, Trap::Interrupt(irq), info);
        return;
    }
    match fetch(hart, mem) {
        Ok(d) => {
            execute_and_retire::<Host, M>(hart, mem, &d, info);
        }
        Err((cause, tval)) => take_trap(hart, Trap::Exception(cause, tval), info),
    }
}

/// The back half of [`step_into`] for a tier that already holds the
/// decoded instruction at the current PC: execute it into `info` (which
/// the caller has reset) with `A`'s FP kernels, then retire it (`instret`,
/// `minstret`, `mcycle`) or enter the trap it raised. Returns whether it
/// retired.
#[inline]
pub(crate) fn execute_and_retire<A: Arith, M: PhysMem>(
    hart: &mut Hart,
    mem: &mut M,
    d: &DecodedInst,
    info: &mut StepInfo,
) -> bool {
    info.inst = *d;
    match execute::<A, M>(hart, mem, d, info) {
        Ok(()) => {
            retire(hart);
            true
        }
        Err((cause, tval)) => {
            take_trap(hart, Trap::Exception(cause, tval), info);
            false
        }
    }
}

/// True when an interrupt is pending and enabled: the `mip & mie` test
/// inline, the privilege rules only when it passes.
#[inline(always)]
pub(crate) fn interrupt_pending(hart: &Hart) -> bool {
    let csr = &hart.state.csr;
    csr.mip & csr.mie != 0 && csr.pending_interrupt().is_some()
}

/// Count one retired instruction (one cycle).
#[inline]
pub(crate) fn retire(hart: &mut Hart) {
    hart.instret += 1;
    hart.state.csr.minstret = hart.state.csr.minstret.wrapping_add(1);
    hart.state.csr.mcycle = hart.state.csr.mcycle.wrapping_add(1);
}

/// Enter `trap` from the current PC (one cycle, nothing retires).
pub(crate) fn take_trap(hart: &mut Hart, trap: Trap, info: &mut StepInfo) {
    hart.state.pc = hart.state.csr.take_trap(trap, hart.state.pc);
    hart.state.csr.mcycle = hart.state.csr.mcycle.wrapping_add(1);
    info.trap = Some(trap);
}

#[cfg(test)]
mod tests {
    use super::*;
    use riscv_isa::asm::{reg::*, Asm};
    use riscv_isa::csr::{addr as csr_addr, Privilege};
    use riscv_isa::mem::{SparseMemory, MTIME, UART_TX};

    fn run_program(build: impl FnOnce(&mut Asm)) -> (Hart, SparseMemory) {
        let mut a = Asm::new(0x8000_0000);
        build(&mut a);
        let p = a.assemble();
        let mut mem = SparseMemory::new();
        p.load_into(&mut mem);
        let mut hart = Hart::new(0x8000_0000, 0);
        for _ in 0..100_000 {
            if hart.is_halted() {
                break;
            }
            step(&mut hart, &mut mem);
        }
        assert!(hart.is_halted(), "program did not halt");
        (hart, mem)
    }

    #[test]
    fn simple_sum() {
        let (hart, _) = run_program(|a| {
            a.li(T0, 0); // i
            a.li(T1, 10); // n
            a.li(T2, 0); // sum
            let top = a.bound_label();
            a.add(T2, T2, T0);
            a.addi(T0, T0, 1);
            a.bne(T0, T1, top);
            a.mv(A0, T2);
            a.ebreak();
        });
        assert_eq!(hart.halted, Some(45));
    }

    #[test]
    fn memory_and_stores() {
        let (hart, mut mem) = run_program(|a| {
            a.li(T0, 0x8001_0000);
            a.li(T1, 0xdead_beef);
            a.sd(T1, 0, T0);
            a.ld(T2, 0, T0);
            a.mv(A0, T2);
            a.ebreak();
        });
        assert_eq!(hart.halted, Some(0xdead_beef));
        assert_eq!(mem.read_uint(0x8001_0000, 8), 0xdead_beef);
    }

    #[test]
    fn uart_output() {
        let (hart, _) = run_program(|a| {
            a.li(T0, UART_TX as i64);
            a.li(T1, b'h' as i64);
            a.sb(T1, 0, T0);
            a.li(T1, b'i' as i64);
            a.sb(T1, 0, T0);
            a.ebreak();
        });
        assert_eq!(hart.output, b"hi");
    }

    #[test]
    fn ecall_traps_to_mtvec() {
        let (hart, _) = run_program(|a| {
            let handler = a.label();
            a.la(T0, handler);
            a.csrrw(ZERO, riscv_isa::csr::addr::MTVEC, T0);
            a.ecall();
            a.li(A0, 1); // skipped
            a.ebreak();
            a.bind(handler);
            a.li(A0, 42);
            a.ebreak();
        });
        assert_eq!(hart.halted, Some(42));
        assert_eq!(hart.state.csr.mcause, Exception::EcallFromM.code());
    }

    #[test]
    fn mret_returns_and_drops_privilege() {
        let (hart, _) = run_program(|a| {
            let target = a.label();
            a.la(T0, target);
            a.csrrw(ZERO, csr_addr::MEPC, T0);
            // MPP = 0 (user)
            a.li(T0, 0);
            a.csrrw(ZERO, csr_addr::MSTATUS, T0);
            a.mret();
            a.ebreak(); // skipped
            a.bind(target);
            a.li(A0, 7);
            a.ebreak();
        });
        assert_eq!(hart.halted, Some(7));
        assert_eq!(hart.state.csr.privilege, Privilege::User);
    }

    #[test]
    fn lr_sc_success_and_failure() {
        let (hart, _) = run_program(|a| {
            a.li(T0, 0x8001_0000);
            a.li(T1, 5);
            a.sd(T1, 0, T0);
            a.lr_d(T2, T0); // reserve
            a.addi(T2, T2, 1);
            a.sc_d(T3, T2, T0); // success -> t3 = 0
            a.sc_d(T4, T2, T0); // no reservation -> t4 = 1
            a.ld(T5, 0, T0); // = 6
            a.slli(T4, T4, 8);
            a.or(A0, T3, T4);
            a.slli(T5, T5, 16);
            a.or(A0, A0, T5);
            a.ebreak();
        });
        assert_eq!(hart.halted, Some((6 << 16) | (1 << 8)));
    }

    #[test]
    fn forced_sc_failure_hook() {
        let mut a = Asm::new(0x8000_0000);
        a.li(T0, 0x8001_0000);
        a.lr_d(T2, T0);
        a.sc_d(T3, T2, T0);
        a.mv(A0, T3);
        a.ebreak();
        let p = a.assemble();
        let mut mem = SparseMemory::new();
        p.load_into(&mut mem);
        let mut hart = Hart::new(0x8000_0000, 0);
        // Arm the diff-rule hook before the program runs.
        hart.force_sc_fail = true;
        while !hart.is_halted() {
            step(&mut hart, &mut mem);
        }
        assert_eq!(hart.halted, Some(1), "SC must fail when forced");
    }

    #[test]
    fn injection_hook_takes_trap_first() {
        let mut a = Asm::new(0x8000_0000);
        a.li(A0, 1);
        a.ebreak();
        let p = a.assemble();
        let mut mem = SparseMemory::new();
        p.load_into(&mut mem);
        let mut hart = Hart::new(0x8000_0000, 0);
        hart.state.csr.write(csr_addr::MTVEC, 0x8000_1000).unwrap();
        hart.pending_injection = Some((Exception::LoadPageFault, 0x4000_0000));
        let info = step(&mut hart, &mut mem);
        assert_eq!(
            info.trap,
            Some(Trap::Exception(Exception::LoadPageFault, 0x4000_0000))
        );
        assert_eq!(hart.state.pc, 0x8000_1000);
        assert_eq!(hart.state.csr.mtval, 0x4000_0000);
    }

    #[test]
    fn proxy_kernel_syscalls() {
        let mut a = Asm::new(0x8000_0000);
        let msg = a.label();
        a.li(A7, 64);
        a.li(A0, 1);
        a.la(A1, msg);
        a.li(A2, 5);
        a.ecall();
        a.li(A7, 93);
        a.li(A0, 3);
        a.ecall();
        a.align(3);
        a.bind(msg);
        a.data_u64(u64::from_le_bytes(*b"hello\0\0\0"));
        let p = a.assemble();
        let mut mem = SparseMemory::new();
        p.load_into(&mut mem);
        let mut hart = Hart::new(0x8000_0000, 0);
        hart.proxy_kernel = true;
        while !hart.is_halted() {
            step(&mut hart, &mut mem);
        }
        assert_eq!(hart.halted, Some(3));
        assert_eq!(hart.output, b"hello");
    }

    #[test]
    fn fp_roundtrip() {
        let (hart, _) = run_program(|a| {
            a.li(T0, 3);
            a.fcvt_d_l(FT0, T0);
            a.li(T1, 4);
            a.fcvt_d_l(FT1, T1);
            a.fmul_d(FT2, FT0, FT1);
            a.fadd_d(FT2, FT2, FT0); // 15.0
            a.fcvt_l_d(A0, FT2);
            a.ebreak();
        });
        assert_eq!(hart.halted, Some(15));
    }

    #[test]
    fn compressed_instructions_execute() {
        // Hand-place c.li a0, 5 ; ebreak
        let mut mem = SparseMemory::new();
        mem.write_uint(0x8000_0000, 2, 0x4515); // c.li a0, 5
        mem.write_uint(0x8000_0002, 4, 0x0010_0073); // ebreak
        let mut hart = Hart::new(0x8000_0000, 0);
        step(&mut hart, &mut mem);
        assert_eq!(hart.state.read_gpr(10), 5);
        step(&mut hart, &mut mem);
        assert_eq!(hart.halted, Some(5));
    }

    #[test]
    fn illegal_instruction_traps() {
        let mut mem = SparseMemory::new();
        mem.write_uint(0x8000_0000, 4, 0xffff_ffff);
        let mut hart = Hart::new(0x8000_0000, 0);
        hart.state.csr.write(csr_addr::MTVEC, 0x8000_2000).unwrap();
        let info = step(&mut hart, &mut mem);
        assert!(matches!(
            info.trap,
            Some(Trap::Exception(Exception::IllegalInstruction, _))
        ));
        assert_eq!(hart.state.pc, 0x8000_2000);
        assert_eq!(hart.state.csr.mtval, 0xffff_ffff);
    }

    #[test]
    fn mtime_mmio_read() {
        let mut mem = SparseMemory::new();
        // ld t0, 0(t1) with t1 = MTIME
        let mut a = Asm::new(0x8000_0000);
        a.li(T1, MTIME as i64);
        a.ld(T0, 0, T1);
        a.mv(A0, T0);
        a.ebreak();
        let p = a.assemble();
        p.load_into(&mut mem);
        let mut hart = Hart::new(0x8000_0000, 0);
        hart.state.csr.time = 777;
        while !hart.is_halted() {
            step(&mut hart, &mut mem);
        }
        assert_eq!(hart.halted, Some(777));
    }

    #[test]
    fn every_write_that_reaches_satp_invalidates_decodes() {
        let mut a = Asm::new(0x8000_0000);
        a.li(T1, 1);
        a.csrrs(T0, csr_addr::SATP, T1);
        a.csrrc(T0, csr_addr::SATP, T1);
        a.csrrs(T0, csr_addr::SATP, ZERO);
        a.csrrw(T0, csr_addr::SATP, ZERO);
        a.fence_i();
        a.ebreak();
        let p = a.assemble();
        let mut mem = SparseMemory::new();
        p.load_into(&mut mem);
        let mut hart = Hart::new(0x8000_0000, 0);
        let flushes: Vec<bool> = (0..7)
            .map(|_| step(&mut hart, &mut mem).invalidates_decodes())
            .collect();
        // `csrrs` from x0 writes nothing.
        assert_eq!(flushes, [false, true, true, false, true, true, false]);
    }
}
