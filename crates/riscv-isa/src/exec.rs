//! Pure architectural semantics of the integer instruction set.
//!
//! These functions are shared verbatim by every interpreter in [`nemu`] and
//! by the execution units of the `xscore` cycle model, which guarantees that
//! DUT and REF disagree only for micro-architectural reasons — exactly the
//! property the DRAV diff-rules reason about.
//!
//! [`nemu`]: https://docs.rs/nemu

use crate::csr::{addr, mstatus, CsrFile, Privilege};
use crate::op::{DecodedInst, Op, Shape};
use crate::trap::Exception;

/// True when [`int_compute`]'s second operand is the instruction's
/// immediate rather than `rs2`: the operand shapes that carry one
/// (`I`, the two shift-amount shapes, and `U`).
#[inline]
pub fn has_imm_operand(op: Op) -> bool {
    matches!(
        op.shape(),
        Shape::I | Shape::Shamt6 | Shape::Shamt5 | Shape::U
    )
}

/// Compute the result of a two-operand integer operation.
///
/// Immediate forms take the already-selected immediate as `b`. Returns
/// `None` for operations that are not pure integer computations (loads,
/// branches, system ops, floating point).
#[inline]
pub fn int_compute(op: Op, a: u64, b: u64) -> Option<u64> {
    use Op::*;
    let v = match op {
        Add | Addi => a.wrapping_add(b),
        Sub => a.wrapping_sub(b),
        Sll | Slli => a << (b & 63),
        Slt | Slti => ((a as i64) < (b as i64)) as u64,
        Sltu | Sltiu => (a < b) as u64,
        Xor | Xori => a ^ b,
        Srl | Srli => a >> (b & 63),
        Sra | Srai => ((a as i64) >> (b & 63)) as u64,
        Or | Ori => a | b,
        And | Andi => a & b,
        Addw | Addiw => sext32(a.wrapping_add(b)),
        Subw => sext32(a.wrapping_sub(b)),
        Sllw | Slliw => sext32(a << (b & 31)),
        Srlw | Srliw => sext32(((a as u32) >> (b & 31)) as u64),
        Sraw | Sraiw => (((a as i32) >> (b & 31)) as i64) as u64,
        Lui => b,
        Mul => a.wrapping_mul(b),
        Mulh => (((a as i64 as i128) * (b as i64 as i128)) >> 64) as u64,
        Mulhsu => (((a as i64 as i128) * (b as u128 as i128)) >> 64) as u64,
        Mulhu => (((a as u128) * (b as u128)) >> 64) as u64,
        Div => {
            if b == 0 {
                u64::MAX
            } else if a as i64 == i64::MIN && b as i64 == -1 {
                a
            } else {
                ((a as i64) / (b as i64)) as u64
            }
        }
        Divu => a.checked_div(b).unwrap_or(u64::MAX),
        Rem => {
            if b == 0 {
                a
            } else if a as i64 == i64::MIN && b as i64 == -1 {
                0
            } else {
                ((a as i64) % (b as i64)) as u64
            }
        }
        Remu => {
            if b == 0 {
                a
            } else {
                a % b
            }
        }
        Mulw => sext32(a.wrapping_mul(b)),
        Divw => {
            let (a, b) = (a as i32, b as i32);
            let r = if b == 0 {
                -1
            } else if a == i32::MIN && b == -1 {
                a
            } else {
                a / b
            };
            r as i64 as u64
        }
        Divuw => {
            let (a, b) = (a as u32, b as u32);
            let r = a.checked_div(b).unwrap_or(u32::MAX);
            r as i32 as i64 as u64
        }
        Remw => {
            let (a, b) = (a as i32, b as i32);
            let r = if b == 0 {
                a
            } else if a == i32::MIN && b == -1 {
                0
            } else {
                a % b
            };
            r as i64 as u64
        }
        Remuw => {
            let (a, b) = (a as u32, b as u32);
            let r = if b == 0 { a } else { a % b };
            r as i32 as i64 as u64
        }
        // Zba
        Sh1add => (a << 1).wrapping_add(b),
        Sh2add => (a << 2).wrapping_add(b),
        Sh3add => (a << 3).wrapping_add(b),
        AddUw => (a as u32 as u64).wrapping_add(b),
        Sh1addUw => ((a as u32 as u64) << 1).wrapping_add(b),
        Sh2addUw => ((a as u32 as u64) << 2).wrapping_add(b),
        Sh3addUw => ((a as u32 as u64) << 3).wrapping_add(b),
        SlliUw => (a as u32 as u64) << (b & 63),
        // Zbb
        Andn => a & !b,
        Orn => a | !b,
        Xnor => !(a ^ b),
        Clz => a.leading_zeros() as u64,
        Ctz => a.trailing_zeros() as u64,
        Cpop => a.count_ones() as u64,
        Clzw => (a as u32).leading_zeros() as u64,
        Ctzw => (a as u32).trailing_zeros() as u64,
        Cpopw => (a as u32).count_ones() as u64,
        Max => (a as i64).max(b as i64) as u64,
        Min => (a as i64).min(b as i64) as u64,
        Maxu => a.max(b),
        Minu => a.min(b),
        SextB => a as i8 as i64 as u64,
        SextH => a as i16 as i64 as u64,
        ZextH => a as u16 as u64,
        Rol => a.rotate_left((b & 63) as u32),
        Ror | Rori => a.rotate_right((b & 63) as u32),
        Rolw => sext32((a as u32).rotate_left((b & 31) as u32) as u64),
        Rorw | Roriw => sext32((a as u32).rotate_right((b & 31) as u32) as u64),
        OrcB => orc_b(a),
        Rev8 => a.swap_bytes(),
        _ => return None,
    };
    Some(v)
}

#[inline]
fn sext32(v: u64) -> u64 {
    v as i32 as i64 as u64
}

#[inline]
fn orc_b(a: u64) -> u64 {
    let mut r = 0u64;
    for i in 0..8 {
        let byte = (a >> (i * 8)) & 0xff;
        if byte != 0 {
            r |= 0xffu64 << (i * 8);
        }
    }
    r
}

/// Evaluate a conditional-branch condition.
///
/// # Panics
///
/// Panics (in debug builds) if `op` is not a branch.
#[inline]
pub fn branch_taken(op: Op, a: u64, b: u64) -> bool {
    match op {
        Op::Beq => a == b,
        Op::Bne => a != b,
        Op::Blt => (a as i64) < (b as i64),
        Op::Bge => (a as i64) >= (b as i64),
        Op::Bltu => a < b,
        Op::Bgeu => a >= b,
        _ => {
            debug_assert!(false, "branch_taken called on {op:?}");
            false
        }
    }
}

/// Compute the new memory value for a read-modify-write atomic.
///
/// `old` is the value read from memory and `src` the register operand; the
/// width (`W`/`D`) is implied by the operation.
#[inline]
pub fn amo_compute(op: Op, old: u64, src: u64) -> u64 {
    use Op::*;
    match op {
        AmoswapW => sext32(src),
        AmoaddW => sext32(old.wrapping_add(src)),
        AmoxorW => sext32(old ^ src),
        AmoandW => sext32(old & src),
        AmoorW => sext32(old | src),
        AmominW => ((old as i32).min(src as i32)) as i64 as u64,
        AmomaxW => ((old as i32).max(src as i32)) as i64 as u64,
        AmominuW => ((old as u32).min(src as u32)) as i32 as i64 as u64,
        AmomaxuW => ((old as u32).max(src as u32)) as i32 as i64 as u64,
        AmoswapD => src,
        AmoaddD => old.wrapping_add(src),
        AmoxorD => old ^ src,
        AmoandD => old & src,
        AmoorD => old | src,
        AmominD => (old as i64).min(src as i64) as u64,
        AmomaxD => (old as i64).max(src as i64) as u64,
        AmominuD => old.min(src),
        AmomaxuD => old.max(src),
        _ => {
            debug_assert!(false, "amo_compute called on {op:?}");
            old
        }
    }
}

/// The misaligned-address fault of the atomic `d` at virtual `va`, with
/// `va` as its trap value: an LR raises a load's, an SC or AMO a store's.
///
/// # Errors
///
/// When `va` is not a multiple of the access size.
#[inline]
pub fn atomic_aligned(d: &DecodedInst, va: u64) -> Result<(), (Exception, u64)> {
    if va.is_multiple_of(d.mem_size()) {
        Ok(())
    } else if d.is_load() {
        Err((Exception::LoadAddrMisaligned, va))
    } else {
        Err((Exception::StoreAddrMisaligned, va))
    }
}

/// What a system instruction leaves to the model that runs it, once
/// [`system`] has made its architectural effect on the CSR file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SysEffect {
    /// What `rd` takes: a CSR instruction's old value (the others name `x0`).
    pub rd: u64,
    /// Where execution goes on when not at the next instruction (`mret`,
    /// `sret`).
    pub redirect: Option<u64>,
    /// Cached translations are stale: `sfence.vma`, or a write that
    /// reached `satp`.
    pub flush_tlb: bool,
    /// Fetched instructions are stale: `fence.i`.
    pub flush_icache: bool,
    /// The hart halts with `a0` as its exit code: `ebreak`, the
    /// simulation's exit (NEMU's "trap" instruction).
    pub halt: bool,
}

/// Execute the Zicsr or privileged instruction `d` (the six CSR
/// instructions, `ecall`, `ebreak`, `mret`, `sret`, `sfence.vma`, `fence`,
/// `fence.i`, `wfi`, and [`Op::Illegal`]) against `csr`; `rs1` is the value
/// of `d`'s register `rs1`. A CSR set or clear whose `rs1` is `x0` (uimm 0)
/// writes nothing; any other attempts its write, whatever the value, so a
/// read-only CSR makes it illegal.
///
/// # Errors
///
/// The exception `d` raises and its trap value: an illegal instruction
/// (the instruction word), or an environment call from the current
/// privilege (0).
///
/// # Panics
///
/// On any other operation.
pub fn system(csr: &mut CsrFile, d: &DecodedInst, rs1: u64) -> Result<SysEffect, (Exception, u64)> {
    use Op::*;
    let illegal = (Exception::IllegalInstruction, d.raw as u64);
    let mut effect = SysEffect::default();
    match d.op {
        Csrrw | Csrrs | Csrrc | Csrrwi | Csrrsi | Csrrci => {
            let at = d.csr();
            effect.rd = csr.read(at).map_err(|_| illegal)?;
            let src = if matches!(d.op, Csrrwi | Csrrsi | Csrrci) {
                d.rs1 as u64
            } else {
                rs1
            };
            let new = match d.op {
                Csrrw | Csrrwi => src,
                _ if d.rs1 == 0 => return Ok(effect),
                Csrrs | Csrrsi => effect.rd | src,
                _ => effect.rd & !src,
            };
            csr.write(at, new).map_err(|_| illegal)?;
            effect.flush_tlb = at == addr::SATP;
        }
        Ecall => {
            let cause = match csr.privilege {
                Privilege::User => Exception::EcallFromU,
                Privilege::Supervisor => Exception::EcallFromS,
                Privilege::Machine => Exception::EcallFromM,
            };
            return Err((cause, 0));
        }
        Ebreak => effect.halt = true,
        Mret => effect.redirect = Some(csr.mret().map_err(|_| illegal)?),
        Sret => effect.redirect = Some(csr.sret().map_err(|_| illegal)?),
        SfenceVma => {
            // Illegal in U-mode, and in S-mode under TVM.
            let tvm = csr.mstatus & mstatus::TVM != 0;
            if csr.privilege == Privilege::User || csr.privilege == Privilege::Supervisor && tvm {
                return Err(illegal);
            }
            effect.flush_tlb = true;
        }
        FenceI => effect.flush_icache = true,
        Fence | Wfi => {}
        Illegal => return Err(illegal),
        op => panic!("system() called on {op:?}"),
    }
    Ok(effect)
}

/// Sign- or zero-extend a loaded value according to the load operation.
#[inline]
pub fn load_extend(op: Op, raw: u64) -> u64 {
    match op {
        Op::Lb => raw as i8 as i64 as u64,
        Op::Lh => raw as i16 as i64 as u64,
        Op::Lw | Op::LrW => raw as i32 as i64 as u64,
        Op::Lbu => raw as u8 as u64,
        Op::Lhu => raw as u16 as u64,
        Op::Lwu => raw as u32 as u64,
        Op::Ld | Op::LrD => raw,
        _ => raw,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_arith() {
        assert_eq!(int_compute(Op::Add, 2, 3), Some(5));
        assert_eq!(int_compute(Op::Sub, 2, 3), Some(u64::MAX));
        assert_eq!(int_compute(Op::Slt, (-1i64) as u64, 0), Some(1));
        assert_eq!(int_compute(Op::Sltu, u64::MAX, 0), Some(0));
        assert_eq!(
            int_compute(Op::Addw, 0x7fff_ffff, 1),
            Some(0xffff_ffff_8000_0000)
        );
        assert_eq!(int_compute(Op::Sraiw, 0x8000_0000, 31), Some(u64::MAX));
    }

    #[test]
    fn division_corner_cases() {
        // Division by zero: quotient all ones, remainder = dividend.
        assert_eq!(int_compute(Op::Div, 5, 0), Some(u64::MAX));
        assert_eq!(int_compute(Op::Rem, 5, 0), Some(5));
        assert_eq!(int_compute(Op::Divu, 5, 0), Some(u64::MAX));
        assert_eq!(int_compute(Op::Remu, 5, 0), Some(5));
        // Signed overflow: quotient = dividend, remainder = 0.
        let min = i64::MIN as u64;
        assert_eq!(int_compute(Op::Div, min, u64::MAX), Some(min));
        assert_eq!(int_compute(Op::Rem, min, u64::MAX), Some(0));
        let minw = i32::MIN as i64 as u64;
        assert_eq!(int_compute(Op::Divw, minw, u64::MAX), Some(minw));
        assert_eq!(int_compute(Op::Remw, minw, u64::MAX), Some(0));
        assert_eq!(int_compute(Op::Divw, 7, 0), Some(u64::MAX));
    }

    #[test]
    fn mulh_variants() {
        let a = 0x8000_0000_0000_0000u64;
        assert_eq!(int_compute(Op::Mulhu, a, 2), Some(1));
        assert_eq!(int_compute(Op::Mulh, a, 2), Some(u64::MAX));
        assert_eq!(
            int_compute(Op::Mulhsu, (-1i64) as u64, u64::MAX),
            Some(u64::MAX)
        );
    }

    #[test]
    fn zba_zbb_semantics() {
        assert_eq!(int_compute(Op::Sh2add, 3, 10), Some(22));
        assert_eq!(int_compute(Op::AddUw, 0xffff_ffff_0000_0001, 1), Some(2));
        assert_eq!(int_compute(Op::Andn, 0b1100, 0b1010), Some(0b0100));
        assert_eq!(int_compute(Op::Clz, 1, 0), Some(63));
        assert_eq!(int_compute(Op::Ctz, 8, 0), Some(3));
        assert_eq!(int_compute(Op::Cpop, 0xff, 0), Some(8));
        assert_eq!(
            int_compute(Op::Min, (-5i64) as u64, 3),
            Some((-5i64) as u64)
        );
        assert_eq!(
            int_compute(Op::Maxu, (-5i64) as u64, 3),
            Some((-5i64) as u64)
        );
        assert_eq!(
            int_compute(Op::Rev8, 0x0102_0304_0506_0708, 0),
            Some(0x0807_0605_0403_0201)
        );
        assert_eq!(
            int_compute(Op::OrcB, 0x0100_0000_0020_0003, 0),
            Some(0xff00_0000_00ff_00ff)
        );
        assert_eq!(int_compute(Op::SextB, 0x80, 0), Some((-128i64) as u64));
        assert_eq!(int_compute(Op::ZextH, 0xffff_ffff, 0), Some(0xffff));
        assert_eq!(int_compute(Op::Ror, 1, 1), Some(0x8000_0000_0000_0000));
    }

    #[test]
    fn branch_conditions() {
        assert!(branch_taken(Op::Beq, 1, 1));
        assert!(branch_taken(Op::Bne, 1, 2));
        assert!(branch_taken(Op::Blt, (-1i64) as u64, 0));
        assert!(!branch_taken(Op::Bltu, (-1i64) as u64, 0));
        assert!(branch_taken(Op::Bge, 0, 0));
        assert!(branch_taken(Op::Bgeu, (-1i64) as u64, 0));
    }

    #[test]
    fn amo_semantics() {
        assert_eq!(amo_compute(Op::AmoaddD, 1, 2), 3);
        assert_eq!(
            amo_compute(Op::AmoswapW, 1, 0xffff_ffff),
            0xffff_ffff_ffff_ffff
        );
        assert_eq!(amo_compute(Op::AmominW, 5, (-1i32) as u32 as u64), u64::MAX);
        assert_eq!(amo_compute(Op::AmomaxuD, 5, u64::MAX), u64::MAX);
        assert_eq!(amo_compute(Op::AmoandD, 0b1100, 0b1010), 0b1000);
    }

    #[test]
    fn load_extension() {
        assert_eq!(load_extend(Op::Lb, 0x80), 0xffff_ffff_ffff_ff80);
        assert_eq!(load_extend(Op::Lbu, 0x80), 0x80);
        assert_eq!(load_extend(Op::Lw, 0x8000_0000), 0xffff_ffff_8000_0000);
        assert_eq!(load_extend(Op::Lwu, 0x8000_0000), 0x8000_0000);
        assert_eq!(load_extend(Op::Ld, u64::MAX), u64::MAX);
    }

    #[test]
    fn non_integer_ops_return_none() {
        assert_eq!(int_compute(Op::Lw, 0, 0), None);
        assert_eq!(int_compute(Op::FaddD, 0, 0), None);
        assert_eq!(int_compute(Op::Ecall, 0, 0), None);
    }
}
