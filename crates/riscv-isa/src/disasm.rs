//! A compact disassembler used by trace logs, ArchDB dumps, and debug
//! replays (the reproduction's analogue of reading a waveform next to a
//! program listing). Mnemonics and operand syntax come from the
//! instruction table in [`crate::op`]; this module owns only the register
//! names and one format per [`Shape`].

use crate::op::{DecodedInst, Op, RegFile, Shape};

/// ABI names of the integer registers.
pub const GPR_NAMES: [&str; 32] = [
    "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2", "s0", "s1", "a0", "a1", "a2", "a3", "a4",
    "a5", "a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11", "t3", "t4",
    "t5", "t6",
];

/// ABI names of the floating-point registers.
pub const FPR_NAMES: [&str; 32] = [
    "ft0", "ft1", "ft2", "ft3", "ft4", "ft5", "ft6", "ft7", "fs0", "fs1", "fa0", "fa1", "fa2",
    "fa3", "fa4", "fa5", "fa6", "fa7", "fs2", "fs3", "fs4", "fs5", "fs6", "fs7", "fs8", "fs9",
    "fs10", "fs11", "ft8", "ft9", "ft10", "ft11",
];

/// Lower-case mnemonic of an operation (the table's column).
pub fn mnemonic(op: Op) -> &'static str {
    op.info().mnemonic
}

/// Render a decoded instruction as assembly text, in the syntax of its
/// [`Shape`].
///
/// Branch and jump targets are shown as absolute addresses computed from
/// `pc`.
pub fn disassemble(d: &DecodedInst, pc: u64) -> String {
    let m = mnemonic(d.op);
    let shape = d.op.shape();
    let files = shape.regs();
    let reg = |slot: usize, idx: u8| match files[slot] {
        Some(RegFile::F) => FPR_NAMES[idx as usize],
        _ => GPR_NAMES[idx as usize],
    };
    let (rd, rs1, rs2) = (reg(0, d.rd), reg(1, d.rs1), reg(2, d.rs2));
    let target = pc.wrapping_add(d.imm as u64);
    match shape {
        Shape::None if d.op == Op::Illegal => format!("illegal {:#010x}", d.raw),
        Shape::None | Shape::Fence => m.to_string(),
        Shape::U => format!("{m} {rd}, {:#x}", (d.imm as u64 >> 12) & 0xfffff),
        Shape::J => format!("{m} {rd}, {target:#x}"),
        Shape::B => format!("{m} {rs1}, {rs2}, {target:#x}"),
        Shape::Load | Shape::FLoad => format!("{m} {rd}, {}({rs1})", d.imm),
        Shape::S | Shape::FStore => format!("{m} {rs2}, {}({rs1})", d.imm),
        Shape::I | Shape::Shamt6 | Shape::Shamt5 => format!("{m} {rd}, {rs1}, {}", d.imm),
        Shape::Csr => format!("{m} {rd}, {:#x}, {rs1}", d.csr()),
        Shape::CsrImm => format!("{m} {rd}, {:#x}, {}", d.csr(), d.rs1),
        Shape::Lr => format!("{m} {rd}, ({rs1})"),
        Shape::Amo => format!("{m} {rd}, {rs2}, ({rs1})"),
        // Every other shape lists the registers it names, in field order.
        _ => {
            let regs = [rd, rs1, rs2, reg(3, d.rs3)];
            let named: Vec<&str> = (0..4)
                .filter(|&i| files[i].is_some())
                .map(|i| regs[i])
                .collect();
            format!("{m} {}", named.join(", "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::decode32;

    #[test]
    fn renders_common_forms() {
        assert_eq!(disassemble(&decode32(0x02a0_0293), 0), "addi t0, zero, 42");
        assert_eq!(disassemble(&decode32(0x0020_81b3), 0), "add gp, ra, sp");
        assert_eq!(
            disassemble(&decode32(0x0101_3303), 0),
            "ld t1, 16(sp)"
        );
        assert_eq!(
            disassemble(&decode32(0xfe61_3c23), 0),
            "sd t1, -8(sp)"
        );
        assert_eq!(
            disassemble(&decode32(0x0020_8463), 0x8000_0000),
            "beq ra, sp, 0x80000008"
        );
        assert_eq!(disassemble(&decode32(0x0000_0073), 0), "ecall");
        assert_eq!(
            disassemble(&decode32(0x0220_f1d3), 0),
            "fadd.d ft3, ft1, ft2"
        );
        assert_eq!(
            disassemble(&decode32(0x1855_332f), 0),
            "sc.d t1, t0, (a0)"
        );
        assert_eq!(
            disassemble(&DecodedInst::default(), 0),
            "illegal 0x00000000"
        );
    }

    use crate::op::DecodedInst;

    #[test]
    fn every_op_has_a_mnemonic() {
        let mut seen = std::collections::HashSet::new();
        for op in Op::ALL {
            let m = mnemonic(op);
            assert!(!m.is_empty(), "{op:?}");
            assert_eq!(m, m.to_lowercase());
            assert!(seen.insert(m), "`{m}` names two operations");
        }
    }
}
