//! Instruction encoding (32-bit forms only).
//!
//! [`encode`] is the inverse of [`crate::decode::decode32`] for every row of
//! the instruction table in [`crate::op`]: the row gives the match bits, its
//! [`Shape`] says which operand fields and which immediate form are laid
//! over them — and which immediates fit, so an operand the word cannot hold
//! is refused, never masked. The assembler in [`crate::asm`] is built on top
//! of it. Compressed encodings are decode-only: the workload suite always
//! emits 4-byte forms, while the decoder accepts both.

use crate::op::{DecodedInst, Op, Shape};

/// The immediates a shape can carry, as `(lowest, highest, multiple of)` —
/// the last a power of two; `None` for a shape without an immediate. A `U`
/// immediate is the already-shifted 32-bit value, sign-extended or unsigned.
pub fn imm_range(shape: Shape) -> Option<(i64, i64, i64)> {
    match shape {
        Shape::I | Shape::Load | Shape::FLoad | Shape::S | Shape::FStore => Some((-2048, 2047, 1)),
        Shape::Shamt6 => Some((0, 63, 1)),
        Shape::Shamt5 => Some((0, 31, 1)),
        Shape::Csr | Shape::CsrImm => Some((0, 4095, 1)),
        Shape::B => Some((-4096, 4094, 2)),
        Shape::J => Some((-(1 << 20), (1 << 20) - 2, 2)),
        Shape::U => Some((i32::MIN as i64, 0xffff_f000, 4096)),
        _ => None,
    }
}

/// Encode a decoded instruction back into its 32-bit form.
///
/// Returns `None` for [`Op::Illegal`], for a register index above 31, for
/// an immediate outside [`imm_range`] of the operation's shape and for a
/// reserved rounding mode (5 or 6, which decode as illegal). The `rm`
/// field is honored where the operation has a rounding mode; everything
/// else takes funct3 from the table.
///
/// ```
/// use riscv_isa::{decode32, encode::encode, op::{DecodedInst, Op}};
/// let inst = DecodedInst { op: Op::Add, rd: 3, rs1: 1, rs2: 2, ..Default::default() };
/// let raw = encode(&inst).expect("encodable");
/// assert_eq!(decode32(raw).op, Op::Add);
/// let too_wide = DecodedInst { op: Op::Andi, imm: 0xfff, ..inst };
/// assert_eq!(encode(&too_wide), None);
/// ```
pub fn encode(d: &DecodedInst) -> Option<u32> {
    let info = d.op.info();
    if d.op == Op::Illegal
        || (d.rd | d.rs1 | d.rs2 | d.rs3) > 31
        || info.rm_live() && matches!(d.rm & 7, 5 | 6)
    {
        return None;
    }
    if let Some((lo, hi, step)) = imm_range(info.shape) {
        if d.imm < lo || d.imm > hi || d.imm & (step - 1) != 0 {
            return None;
        }
    }
    let [rd, rs1, rs2, rs3] = info.shape.regs().map(|file| file.is_some());
    let field = |live: bool, reg: u8, at: u32| if live { (reg as u32) << at } else { 0 };
    let imm = d.imm as u32;
    let operands = match info.shape {
        Shape::I | Shape::Load | Shape::FLoad | Shape::Csr | Shape::Shamt6 | Shape::Shamt5 => {
            imm << 20
        }
        // The rs1 field of a `csrr*i` is its zimm, not a register it reads.
        Shape::CsrImm => imm << 20 | (d.rs1 as u32) << 15,
        Shape::S | Shape::FStore => (imm >> 5 & 0x7f) << 25 | (imm & 0x1f) << 7,
        Shape::B => {
            (imm >> 12 & 1) << 31
                | (imm >> 5 & 0x3f) << 25
                | (imm >> 1 & 0xf) << 8
                | (imm >> 11 & 1) << 7
        }
        Shape::U => imm & 0xffff_f000,
        Shape::J => {
            (imm >> 20 & 1) << 31
                | (imm >> 1 & 0x3ff) << 21
                | (imm >> 11 & 1) << 20
                | (imm >> 12 & 0xff) << 12
        }
        _ if info.rm_live() => (d.rm as u32 & 7) << 12,
        _ => 0,
    };
    Some(
        info.bits
            | field(rd, d.rd, 7)
            | field(rs1, d.rs1, 15)
            | field(rs2, d.rs2, 20)
            | field(rs3, d.rs3, 27)
            | operands,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::decode32;

    fn roundtrip(d: DecodedInst) {
        let raw = encode(&d).unwrap_or_else(|| panic!("{:?} must encode", d.op));
        let back = decode32(raw);
        assert_eq!(back.op, d.op, "op mismatch for {raw:#010x}");
        assert_eq!(back.rd, d.rd, "rd mismatch for {:?}", d.op);
        assert_eq!(back.rs1, d.rs1, "rs1 mismatch for {:?}", d.op);
    }

    #[test]
    fn roundtrip_alu() {
        for op in [
            Op::Add,
            Op::Sub,
            Op::Xor,
            Op::Sll,
            Op::Sra,
            Op::Mul,
            Op::Divu,
            Op::Sh2add,
            Op::Andn,
            Op::Max,
            Op::Rol,
        ] {
            roundtrip(DecodedInst {
                op,
                rd: 7,
                rs1: 11,
                rs2: 13,
                ..Default::default()
            });
        }
    }

    #[test]
    fn roundtrip_imm_ops() {
        for (op, imm) in [
            (Op::Addi, -2048),
            (Op::Andi, 2047),
            (Op::Slli, 63),
            (Op::Srai, 63),
            (Op::Rori, 17),
            (Op::Lw, -4),
            (Op::Ld, 2040),
            (Op::Jalr, 16),
        ] {
            let d = DecodedInst {
                op,
                rd: 5,
                rs1: 6,
                imm,
                ..Default::default()
            };
            let raw = encode(&d).unwrap();
            let back = decode32(raw);
            assert_eq!((back.op, back.imm), (op, imm));
        }
    }

    #[test]
    fn roundtrip_branch_store_jump() {
        let d = DecodedInst {
            op: Op::Beq,
            rs1: 1,
            rs2: 2,
            imm: -4096,
            ..Default::default()
        };
        let back = decode32(encode(&d).unwrap());
        assert_eq!(back.imm, -4096);

        let d = DecodedInst {
            op: Op::Sd,
            rs1: 2,
            rs2: 8,
            imm: -8,
            ..Default::default()
        };
        let back = decode32(encode(&d).unwrap());
        assert_eq!((back.op, back.imm), (Op::Sd, -8));

        let d = DecodedInst {
            op: Op::Jal,
            rd: 1,
            imm: -1048576,
            ..Default::default()
        };
        let back = decode32(encode(&d).unwrap());
        assert_eq!(back.imm, -1048576);
    }

    #[test]
    fn roundtrip_fp() {
        for op in [Op::FaddD, Op::FmulS, Op::FcvtDW, Op::FmvXD, Op::FeqD] {
            roundtrip(DecodedInst {
                op,
                rd: 3,
                rs1: 4,
                rs2: 5,
                rm: 0,
                ..Default::default()
            });
        }
        let d = DecodedInst {
            op: Op::FmaddD,
            rd: 1,
            rs1: 2,
            rs2: 3,
            rs3: 4,
            rm: 7,
            ..Default::default()
        };
        let back = decode32(encode(&d).unwrap());
        assert_eq!((back.op, back.rs3, back.rm), (Op::FmaddD, 4, 7));
    }

    #[test]
    fn roundtrip_amo_and_system() {
        for op in [Op::LrD, Op::ScW, Op::AmomaxuD, Op::AmoswapW] {
            roundtrip(DecodedInst {
                op,
                rd: 9,
                rs1: 10,
                rs2: 11,
                ..Default::default()
            });
        }
        assert_eq!(
            decode32(
                encode(&DecodedInst {
                    op: Op::Mret,
                    ..Default::default()
                })
                .unwrap()
            )
            .op,
            Op::Mret
        );
        assert_eq!(
            decode32(
                encode(&DecodedInst {
                    op: Op::Ecall,
                    ..Default::default()
                })
                .unwrap()
            )
            .op,
            Op::Ecall
        );
    }

    #[test]
    fn illegal_does_not_encode() {
        assert_eq!(encode(&DecodedInst::default()), None);
    }
}
