//! Instruction decoding for 32-bit and compressed (RVC) encodings.
//!
//! [`decode32`] owns no list of instructions: the table in [`crate::op`]
//! classifies the word and this module extracts the operand fields the
//! operation's [`Shape`] carries. [`decode16`] is written by hand — a
//! compressed word has no row of its own; it is expanded straight into the
//! operation of its 32-bit form (e.g. `c.addi` becomes [`Op::Addi`] with
//! `len == 2`), so everything past decode is encoding-agnostic.

use crate::op::{classify, DecodedInst, Op, Shape};

#[inline]
fn sext(value: u64, bits: u32) -> i64 {
    let shift = 64 - bits;
    ((value << shift) as i64) >> shift
}

#[inline]
fn bit(raw: u32, i: u32) -> u64 {
    ((raw >> i) & 1) as u64
}

#[inline]
fn bits(raw: u32, hi: u32, lo: u32) -> u64 {
    ((raw >> lo) & ((1 << (hi - lo + 1)) - 1)) as u64
}

/// Decode an instruction from its raw bits.
///
/// If the low two bits are `11`, the full 32 bits are decoded; otherwise
/// only the low 16 bits are consumed as a compressed instruction.
///
/// ```
/// use riscv_isa::{decode, Op};
/// let inst = decode(0x0000_4501); // c.li a0, 0
/// assert_eq!(inst.op, Op::Addi);
/// assert_eq!(inst.len, 2);
/// ```
#[inline]
pub fn decode(raw: u32) -> DecodedInst {
    if raw & 0b11 == 0b11 {
        decode32(raw)
    } else {
        decode16(raw as u16)
    }
}

/// Decode a full 32-bit instruction: the table classifies the word, the
/// operation's shape says which immediate the word carries.
pub fn decode32(raw: u32) -> DecodedInst {
    let op = classify(raw);
    let mut d = DecodedInst {
        op,
        rd: bits(raw, 11, 7) as u8,
        rs1: bits(raw, 19, 15) as u8,
        rs2: bits(raw, 24, 20) as u8,
        rm: bits(raw, 14, 12) as u8,
        len: 4,
        raw,
        ..Default::default()
    };
    match op.shape() {
        Shape::I | Shape::Load | Shape::FLoad => d.imm = sext(bits(raw, 31, 20), 12),
        Shape::S | Shape::FStore => d.imm = sext((bits(raw, 31, 25) << 5) | bits(raw, 11, 7), 12),
        Shape::B => {
            d.imm = sext(
                (bit(raw, 31) << 12)
                    | (bit(raw, 7) << 11)
                    | (bits(raw, 30, 25) << 5)
                    | (bits(raw, 11, 8) << 1),
                13,
            )
        }
        Shape::U => d.imm = sext((raw & 0xffff_f000) as u64, 32),
        Shape::J => {
            d.imm = sext(
                (bit(raw, 31) << 20)
                    | (bits(raw, 19, 12) << 12)
                    | (bit(raw, 20) << 11)
                    | (bits(raw, 30, 21) << 1),
                21,
            )
        }
        Shape::Shamt6 => d.imm = bits(raw, 25, 20) as i64,
        Shape::Shamt5 => d.imm = bits(raw, 24, 20) as i64,
        Shape::Csr | Shape::CsrImm => d.imm = bits(raw, 31, 20) as i64,
        Shape::Fma => d.rs3 = bits(raw, 31, 27) as u8,
        // Hint fields are normalized so decode(encode(x)) is the identity.
        Shape::Fence => (d.rd, d.rs1, d.rs2) = (0, 0, 0),
        Shape::Sfence => d.rd = 0,
        _ => {}
    }
    d
}

/// Decode a 16-bit compressed (RVC) instruction into its expanded form.
///
/// The result has `len == 2` but carries the same [`Op`] as the equivalent
/// 32-bit instruction.
pub fn decode16(raw16: u16) -> DecodedInst {
    let raw = raw16 as u32;
    let quadrant = raw & 0b11;
    let funct3 = (raw >> 13) & 0b111;

    let mut d = DecodedInst {
        len: 2,
        raw,
        ..Default::default()
    };

    // 3-bit register fields map to x8..x15.
    let r1c = (bits(raw, 9, 7) + 8) as u8;
    let r2c = (bits(raw, 4, 2) + 8) as u8;
    let rd_full = bits(raw, 11, 7) as u8;
    let rs2_full = bits(raw, 6, 2) as u8;

    macro_rules! done {
        ($op:expr, $rd:expr, $rs1:expr, $rs2:expr, $imm:expr) => {{
            d.op = $op;
            d.rd = $rd;
            d.rs1 = $rs1;
            d.rs2 = $rs2;
            d.imm = $imm;
            d
        }};
    }

    match (quadrant, funct3) {
        (0b00, 0b000) => {
            // c.addi4spn: addi rd', x2, nzuimm
            let imm = (bits(raw, 10, 7) << 6)
                | (bits(raw, 12, 11) << 4)
                | (bit(raw, 5) << 3)
                | (bit(raw, 6) << 2);
            if imm == 0 {
                return d; // reserved
            }
            done!(Op::Addi, r2c, 2, 0, imm as i64)
        }
        (0b00, 0b001) => {
            // c.fld
            let imm = (bits(raw, 6, 5) << 6) | (bits(raw, 12, 10) << 3);
            done!(Op::Fld, r2c, r1c, 0, imm as i64)
        }
        (0b00, 0b010) => {
            // c.lw
            let imm = (bit(raw, 5) << 6) | (bits(raw, 12, 10) << 3) | (bit(raw, 6) << 2);
            done!(Op::Lw, r2c, r1c, 0, imm as i64)
        }
        (0b00, 0b011) => {
            // c.ld
            let imm = (bits(raw, 6, 5) << 6) | (bits(raw, 12, 10) << 3);
            done!(Op::Ld, r2c, r1c, 0, imm as i64)
        }
        (0b00, 0b101) => {
            // c.fsd
            let imm = (bits(raw, 6, 5) << 6) | (bits(raw, 12, 10) << 3);
            done!(Op::Fsd, 0, r1c, r2c, imm as i64)
        }
        (0b00, 0b110) => {
            // c.sw
            let imm = (bit(raw, 5) << 6) | (bits(raw, 12, 10) << 3) | (bit(raw, 6) << 2);
            done!(Op::Sw, 0, r1c, r2c, imm as i64)
        }
        (0b00, 0b111) => {
            // c.sd
            let imm = (bits(raw, 6, 5) << 6) | (bits(raw, 12, 10) << 3);
            done!(Op::Sd, 0, r1c, r2c, imm as i64)
        }
        (0b01, 0b000) => {
            // c.addi (c.nop when rd == 0)
            let imm = sext((bit(raw, 12) << 5) | bits(raw, 6, 2), 6);
            done!(Op::Addi, rd_full, rd_full, 0, imm)
        }
        (0b01, 0b001) => {
            // c.addiw (reserved when rd == 0)
            if rd_full == 0 {
                return d;
            }
            let imm = sext((bit(raw, 12) << 5) | bits(raw, 6, 2), 6);
            done!(Op::Addiw, rd_full, rd_full, 0, imm)
        }
        (0b01, 0b010) => {
            // c.li
            let imm = sext((bit(raw, 12) << 5) | bits(raw, 6, 2), 6);
            done!(Op::Addi, rd_full, 0, 0, imm)
        }
        (0b01, 0b011) => {
            if rd_full == 2 {
                // c.addi16sp
                let imm = sext(
                    (bit(raw, 12) << 9)
                        | (bits(raw, 4, 3) << 7)
                        | (bit(raw, 5) << 6)
                        | (bit(raw, 2) << 5)
                        | (bit(raw, 6) << 4),
                    10,
                );
                if imm == 0 {
                    return d;
                }
                done!(Op::Addi, 2, 2, 0, imm)
            } else {
                // c.lui (reserved when rd == 0 or imm == 0)
                let imm = sext((bit(raw, 12) << 17) | (bits(raw, 6, 2) << 12), 18);
                if imm == 0 || rd_full == 0 {
                    return d;
                }
                done!(Op::Lui, rd_full, 0, 0, imm)
            }
        }
        (0b01, 0b100) => {
            let funct2 = bits(raw, 11, 10);
            match funct2 {
                0b00 => {
                    let shamt = (bit(raw, 12) << 5) | bits(raw, 6, 2);
                    done!(Op::Srli, r1c, r1c, 0, shamt as i64)
                }
                0b01 => {
                    let shamt = (bit(raw, 12) << 5) | bits(raw, 6, 2);
                    done!(Op::Srai, r1c, r1c, 0, shamt as i64)
                }
                0b10 => {
                    let imm = sext((bit(raw, 12) << 5) | bits(raw, 6, 2), 6);
                    done!(Op::Andi, r1c, r1c, 0, imm)
                }
                _ => {
                    let op = match (bit(raw, 12), bits(raw, 6, 5)) {
                        (0, 0b00) => Op::Sub,
                        (0, 0b01) => Op::Xor,
                        (0, 0b10) => Op::Or,
                        (0, 0b11) => Op::And,
                        (1, 0b00) => Op::Subw,
                        (1, 0b01) => Op::Addw,
                        _ => return d,
                    };
                    done!(op, r1c, r1c, r2c, 0)
                }
            }
        }
        (0b01, 0b101) => {
            // c.j
            let imm = sext(
                (bit(raw, 12) << 11)
                    | (bit(raw, 8) << 10)
                    | (bits(raw, 10, 9) << 8)
                    | (bit(raw, 6) << 7)
                    | (bit(raw, 7) << 6)
                    | (bit(raw, 2) << 5)
                    | (bit(raw, 11) << 4)
                    | (bits(raw, 5, 3) << 1),
                12,
            );
            done!(Op::Jal, 0, 0, 0, imm)
        }
        (0b01, 0b110) | (0b01, 0b111) => {
            // c.beqz / c.bnez
            let imm = sext(
                (bit(raw, 12) << 8)
                    | (bits(raw, 6, 5) << 6)
                    | (bit(raw, 2) << 5)
                    | (bits(raw, 11, 10) << 3)
                    | (bits(raw, 4, 3) << 1),
                9,
            );
            let op = if funct3 == 0b110 { Op::Beq } else { Op::Bne };
            done!(op, 0, r1c, 0, imm)
        }
        (0b10, 0b000) => {
            // c.slli
            let shamt = (bit(raw, 12) << 5) | bits(raw, 6, 2);
            done!(Op::Slli, rd_full, rd_full, 0, shamt as i64)
        }
        (0b10, 0b001) => {
            // c.fldsp
            let imm = (bits(raw, 4, 2) << 6) | (bit(raw, 12) << 5) | (bits(raw, 6, 5) << 3);
            done!(Op::Fld, rd_full, 2, 0, imm as i64)
        }
        (0b10, 0b010) => {
            // c.lwsp (reserved when rd == 0)
            if rd_full == 0 {
                return d;
            }
            let imm = (bits(raw, 3, 2) << 6) | (bit(raw, 12) << 5) | (bits(raw, 6, 4) << 2);
            done!(Op::Lw, rd_full, 2, 0, imm as i64)
        }
        (0b10, 0b011) => {
            // c.ldsp (reserved when rd == 0)
            if rd_full == 0 {
                return d;
            }
            let imm = (bits(raw, 4, 2) << 6) | (bit(raw, 12) << 5) | (bits(raw, 6, 5) << 3);
            done!(Op::Ld, rd_full, 2, 0, imm as i64)
        }
        (0b10, 0b100) => {
            if bit(raw, 12) == 0 {
                if rs2_full == 0 {
                    if rd_full == 0 {
                        return d;
                    }
                    done!(Op::Jalr, 0, rd_full, 0, 0) // c.jr
                } else {
                    done!(Op::Add, rd_full, 0, rs2_full, 0) // c.mv
                }
            } else if rs2_full == 0 {
                if rd_full == 0 {
                    done!(Op::Ebreak, 0, 0, 0, 0)
                } else {
                    done!(Op::Jalr, 1, rd_full, 0, 0) // c.jalr
                }
            } else {
                done!(Op::Add, rd_full, rd_full, rs2_full, 0) // c.add
            }
        }
        (0b10, 0b101) => {
            // c.fsdsp
            let imm = (bits(raw, 9, 7) << 6) | (bits(raw, 12, 10) << 3);
            done!(Op::Fsd, 0, 2, rs2_full, imm as i64)
        }
        (0b10, 0b110) => {
            // c.swsp
            let imm = (bits(raw, 8, 7) << 6) | (bits(raw, 12, 9) << 2);
            done!(Op::Sw, 0, 2, rs2_full, imm as i64)
        }
        (0b10, 0b111) => {
            // c.sdsp
            let imm = (bits(raw, 9, 7) << 6) | (bits(raw, 12, 10) << 3);
            done!(Op::Sd, 0, 2, rs2_full, imm as i64)
        }
        _ => d,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_basic_arith() {
        // addi x5, x0, 42
        let d = decode32(0x02a0_0293);
        assert_eq!((d.op, d.rd, d.rs1, d.imm), (Op::Addi, 5, 0, 42));
        // add x3, x1, x2
        let d = decode32(0x0020_81b3);
        assert_eq!((d.op, d.rd, d.rs1, d.rs2), (Op::Add, 3, 1, 2));
        // sub x3, x1, x2
        let d = decode32(0x4020_81b3);
        assert_eq!(d.op, Op::Sub);
    }

    #[test]
    fn decode_negative_imm() {
        // addi x1, x1, -1
        let d = decode32(0xfff0_8093);
        assert_eq!(d.imm, -1);
        // lui x1, 0xfffff
        let d = decode32(0xffff_f0b7);
        assert_eq!(d.imm, -4096);
    }

    #[test]
    fn decode_branches_and_jumps() {
        // beq x1, x2, +8
        let d = decode32(0x0020_8463);
        assert_eq!((d.op, d.imm), (Op::Beq, 8));
        // jal x1, -16
        let d = decode32(0xff1f_f0ef);
        assert_eq!((d.op, d.rd, d.imm), (Op::Jal, 1, -16));
        // jalr x0, 0(x1)
        let d = decode32(0x0000_8067);
        assert_eq!((d.op, d.rd, d.rs1), (Op::Jalr, 0, 1));
    }

    #[test]
    fn decode_loads_stores() {
        // ld x6, 16(x2)
        let d = decode32(0x0101_3303);
        assert_eq!((d.op, d.rd, d.rs1, d.imm), (Op::Ld, 6, 2, 16));
        // sd x6, -8(x2)
        let d = decode32(0xfe61_3c23);
        assert_eq!((d.op, d.rs1, d.rs2, d.imm), (Op::Sd, 2, 6, -8));
    }

    #[test]
    fn decode_system() {
        assert_eq!(decode32(0x0000_0073).op, Op::Ecall);
        assert_eq!(decode32(0x0010_0073).op, Op::Ebreak);
        assert_eq!(decode32(0x3020_0073).op, Op::Mret);
        assert_eq!(decode32(0x1020_0073).op, Op::Sret);
        assert_eq!(decode32(0x1050_0073).op, Op::Wfi);
        // sfence.vma x0, x0
        assert_eq!(decode32(0x1200_0073).op, Op::SfenceVma);
        // csrrw x1, mscratch, x2
        let d = decode32(0x3401_10f3);
        assert_eq!((d.op, d.csr(), d.rd, d.rs1), (Op::Csrrw, 0x340, 1, 2));
    }

    #[test]
    fn decode_amo() {
        // lr.d x5, (x10)
        let d = decode32(0x1005_32af);
        assert_eq!((d.op, d.rd, d.rs1), (Op::LrD, 5, 10));
        // sc.d x6, x5, (x10)
        let d = decode32(0x1855_332f);
        assert_eq!((d.op, d.rd, d.rs1, d.rs2), (Op::ScD, 6, 10, 5));
        // amoadd.w x7, x5, (x10)
        let d = decode32(0x0055_23af);
        assert_eq!((d.op, d.rd, d.rs1, d.rs2), (Op::AmoaddW, 7, 10, 5));
    }

    #[test]
    fn decode_fp() {
        // fadd.d f3, f1, f2 (rm=dyn)
        let d = decode32(0x0220_f1d3);
        assert_eq!((d.op, d.rd, d.rs1, d.rs2, d.rm), (Op::FaddD, 3, 1, 2, 7));
        // fmadd.d f3, f1, f2, f4
        let d = decode32(0x2220_f1c3);
        assert_eq!((d.op, d.rs3), (Op::FmaddD, 4));
        // fcvt.d.w f1, x2
        let d = decode32(0xd201_00d3);
        assert_eq!(d.op, Op::FcvtDW);
        // fmv.x.d x1, f2
        let d = decode32(0xe201_00d3);
        assert_eq!(d.op, Op::FmvXD);
    }

    #[test]
    fn decode_zba_zbb() {
        // sh1add x3, x1, x2
        let d = decode32(0x2020_a1b3);
        assert_eq!(d.op, Op::Sh1add);
        // andn x3, x1, x2
        let d = decode32(0x4020_f1b3);
        assert_eq!(d.op, Op::Andn);
        // clz x3, x1
        let d = decode32(0x6000_9193);
        assert_eq!(d.op, Op::Clz);
        // cpop x3, x1
        let d = decode32(0x6020_9193);
        assert_eq!(d.op, Op::Cpop);
        // rev8 x3, x1
        let d = decode32(0x6b80_d193);
        assert_eq!(d.op, Op::Rev8);
        // orc.b x3, x1
        let d = decode32(0x2870_d193);
        assert_eq!(d.op, Op::OrcB);
    }

    #[test]
    fn decode_compressed() {
        // c.li a0, 1 => 0x4505
        let d = decode16(0x4505);
        assert_eq!((d.op, d.rd, d.rs1, d.imm, d.len), (Op::Addi, 10, 0, 1, 2));
        // c.mv a0, a1 => 0x852e
        let d = decode16(0x852e);
        assert_eq!((d.op, d.rd, d.rs1, d.rs2), (Op::Add, 10, 0, 11));
        // c.add a0, a1 => 0x952e
        let d = decode16(0x952e);
        assert_eq!((d.op, d.rd, d.rs1, d.rs2), (Op::Add, 10, 10, 11));
        // c.addi sp, -32 => 0x1101
        let d = decode16(0x1101);
        assert_eq!((d.op, d.rd, d.imm), (Op::Addi, 2, -32));
        // c.jr ra => 0x8082
        let d = decode16(0x8082);
        assert_eq!((d.op, d.rd, d.rs1), (Op::Jalr, 0, 1));
        // c.ebreak => 0x9002
        assert_eq!(decode16(0x9002).op, Op::Ebreak);
        // c.ld a1, 0(a0) => 0x610c: funct3=011, uimm=0, rs1'=a0(2), rd'=a1(3)
        let d = decode16(0x610c);
        assert_eq!((d.op, d.rd, d.rs1, d.imm), (Op::Ld, 11, 10, 0));
        // c.sd a1, 8(a0) => 0xe50c
        let d = decode16(0xe50c);
        assert_eq!((d.op, d.rs1, d.rs2, d.imm), (Op::Sd, 10, 11, 8));
    }

    #[test]
    fn decode_compressed_branches() {
        // c.beqz a0, +6 (imm=6): 0xc319? compute: funct3=110 quad=01, rs1'=a0 -> bits.
        // Instead verify via round structure: c.j +0 is 0xa001.
        let d = decode16(0xa001);
        assert_eq!((d.op, d.rd, d.imm), (Op::Jal, 0, 0));
        // c.bnez a0, 0 => funct3=111 rs1'=010 -> 0xe101
        let d = decode16(0xe101);
        assert_eq!((d.op, d.rs1, d.imm), (Op::Bne, 10, 0));
    }

    #[test]
    fn dispatcher_selects_width() {
        assert_eq!(decode(0x0000_4501).len, 2);
        assert_eq!(decode(0x02a0_0293).len, 4);
    }

    #[test]
    fn illegal_encodings() {
        assert_eq!(decode32(0x0000_0000).op, Op::Illegal);
        assert_eq!(decode32(0xffff_ffff).op, Op::Illegal);
        assert_eq!(decode16(0x0000).op, Op::Illegal);
    }
}
