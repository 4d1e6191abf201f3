//! What the per-op arms of the two uop-cache tiers ([`crate::fast`] and
//! [`crate::trace`]) share.
//!
//! Each tier writes an op's semantics once, as one arm that both of its
//! loops expand: `run()` passes the shadow register file ([`Shadow`]:
//! `x0` redirected to slot 32, nothing recorded), `step_one()` the hart's
//! own file and the record it lends ([`Record`]). So a stepped uop runs the
//! code a run one runs, plus the record; `hart::execute_and_retire` is left
//! to the uops no arm serves and the cases an arm declines ([`Flow::Decline`]).
//!
//! The ops whose arms are alike in both tiers — loads and stores by the
//! MMIO rule ([`riscv_isa::mem::mmio`]), and host FP — are written here,
//! once.

use crate::hart::{Hart, MemAccess, StepInfo};
use riscv_isa::fpu::fp_execute;
use riscv_isa::mem::{mmio, PhysMem, SparseMemory};
use riscv_isa::op::DecodedInst;

/// The integer register file an arm reads and writes, and where it
/// reports what it did. The hart is passed in, not held, so that a view
/// of its own file borrows nothing the arm also needs.
pub(crate) trait Lane {
    /// True when the step is recorded, and so must equal `hart::step`'s
    /// field for field: it takes no translation shortcut.
    const RECORDS: bool;
    /// The value of `x[r]`.
    fn x(&self, hart: &Hart, r: u8) -> u64;
    /// Write the uop's destination `rd` (32 for `x0`: nothing happens).
    fn set_x(&mut self, hart: &mut Hart, rd: u8, v: u64);
    /// Note the write of `v` to `f[rd]`, which the arm has made.
    fn wrote_f(&mut self, rd: u8, v: u64);
    /// Note the memory access the arm has made.
    fn accessed(&mut self, access: MemAccess);
}

/// `run()`'s view: the shadow file, whose slot 32 swallows `x0` writes.
pub(crate) type Shadow = [u64; 33];

impl Lane for Shadow {
    const RECORDS: bool = false;
    #[inline(always)]
    fn x(&self, _: &Hart, r: u8) -> u64 {
        self[r as usize]
    }
    #[inline(always)]
    fn set_x(&mut self, _: &mut Hart, rd: u8, v: u64) {
        self[rd as usize] = v;
    }
    #[inline(always)]
    fn wrote_f(&mut self, _: u8, _: u64) {}
    #[inline(always)]
    fn accessed(&mut self, _: MemAccess) {}
}

/// `step_one()`'s view: `hart.state.gpr` and the lent record.
pub(crate) struct Record<'a>(pub &'a mut StepInfo);

impl Lane for Record<'_> {
    const RECORDS: bool = true;
    #[inline(always)]
    fn x(&self, hart: &Hart, r: u8) -> u64 {
        hart.state.gpr[r as usize]
    }
    #[inline(always)]
    fn set_x(&mut self, hart: &mut Hart, rd: u8, v: u64) {
        if let Some(x) = hart.state.gpr.get_mut(rd as usize) {
            *x = v;
            self.0.wb = Some((false, rd, v));
        }
    }
    #[inline(always)]
    fn wrote_f(&mut self, rd: u8, v: u64) {
        self.0.wb = Some((true, rd, v));
    }
    #[inline(always)]
    fn accessed(&mut self, access: MemAccess) {
        self.0.mem = Some(access);
    }
}

/// The machine an arm runs on.
pub(crate) struct Machine<'a> {
    pub hart: &'a mut Hart,
    pub mem: &'a mut SparseMemory,
}

/// Where an arm sends control.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Flow {
    /// On to the next instruction.
    Next,
    /// A direct edge to `target`: a branch, `taken` or not, or a `jal`.
    Edge { taken: bool, target: u64 },
    /// An indirect jump to `target`.
    Jump(u64),
    /// Not an instruction: a trace sentinel, which only `run()` meets.
    Sentinel,
    /// Not served here: the architectural path executes the instruction
    /// (a `Slow` uop, FP off, a reserved rounding mode, an access the
    /// tier cannot translate here). The arm has changed nothing.
    Decline,
}

/// An integer load of `size` bytes at virtual `va`, physical `pa`, into
/// `rd`, extended by `ext`.
#[inline(always)]
pub(crate) fn load<L: Lane>(
    x: &mut L,
    m: &mut Machine,
    rd: u8,
    va: u64,
    pa: u64,
    size: u64,
    ext: impl Fn(u64) -> u64,
) {
    let (raw, mmio) = read(m, pa, size);
    let v = ext(raw);
    x.set_x(m.hart, rd, v);
    x.accessed(access(va, pa, size, false, v, mmio));
}

/// An FP load of `size` bytes into `f[rd]`, a single NaN-boxed.
#[inline(always)]
pub(crate) fn load_f<L: Lane>(x: &mut L, m: &mut Machine, rd: u8, va: u64, pa: u64, size: u64) {
    let (raw, mmio) = read(m, pa, size);
    let v = if size == 4 {
        0xffff_ffff_0000_0000 | raw
    } else {
        raw
    };
    m.hart.state.fpr[rd as usize] = v;
    x.wrote_f(rd, v);
    x.accessed(access(va, pa, size, false, v, mmio));
}

/// A store of `v`'s low `size` bytes, to memory or a device.
#[inline(always)]
pub(crate) fn store<L: Lane>(x: &mut L, m: &mut Machine, va: u64, pa: u64, size: u64, v: u64) {
    let mmio = mmio(pa, size, true);
    if mmio {
        m.hart.output.push(v as u8);
    } else {
        m.mem.write_uint(pa, size, v);
    }
    x.accessed(access(va, pa, size, true, v, mmio));
}

/// A load's raw value, from memory or a device, and whether it was one.
#[inline(always)]
fn read(m: &mut Machine, pa: u64, size: u64) -> (u64, bool) {
    if mmio(pa, size, false) {
        (m.hart.state.csr.time, true)
    } else {
        (m.mem.read_uint(pa, size), false)
    }
}

#[inline(always)]
fn access(vaddr: u64, paddr: u64, size: u64, is_store: bool, value: u64, mmio: bool) -> MemAccess {
    MemAccess {
        vaddr,
        paddr,
        size,
        is_store,
        value,
        mmio,
    }
}

// `fp_shape` bits: `rs1`, `rs2`, the destination name an FP register.
const FP_RS1: i64 = 1;
const FP_RS2: i64 = 2;
const FP_RD: i64 = 4;

/// The register files of a host-FP op's operands, resolved at fill time
/// into the uop's `imm` (the op has no immediate of its own), so that no
/// executed arm reads the op's shape.
pub(crate) fn fp_shape(d: &DecodedInst) -> i64 {
    let bit = |on: bool, b: i64| if on { b } else { 0 };
    bit(d.rs1_is_fpr(), FP_RS1) | bit(d.rs2_is_fpr(), FP_RS2) | bit(d.writes_fpr(), FP_RD)
}

/// A host-FP op whose operand files are `shape` ([`fp_shape`]); `rd` is
/// the uop's destination, redirected for `x0`. Declines (returns false,
/// changing nothing) when its rounding mode is reserved
/// ([`DecodedInst::rounding`]); the tiers enter no arm while `mstatus.FS`
/// is Off.
#[inline(always)]
pub(crate) fn host_fp<L: Lane>(
    x: &mut L,
    m: &mut Machine,
    d: &DecodedInst,
    rd: u8,
    shape: i64,
) -> bool {
    let hart = &*m.hart;
    let Some(rm) = d.rounding(hart.state.csr.frm()) else {
        return false;
    };
    let src = |fp: bool, r: u8| {
        if fp {
            hart.state.fpr[r as usize]
        } else {
            x.x(hart, r)
        }
    };
    let a = src(shape & FP_RS1 != 0, d.rs1);
    let b = src(shape & FP_RS2 != 0, d.rs2);
    let c = hart.state.fpr[d.rs3 as usize];
    let r = fp_execute(d.op, a, b, c, rm);
    let s = &mut m.hart.state;
    s.csr.set_fflags(r.flags);
    if shape & FP_RD != 0 {
        s.fpr[d.rd as usize] = r.bits;
        x.wrote_f(d.rd, r.bits);
    } else {
        x.set_x(m.hart, rd, r.bits);
    }
    true
}
