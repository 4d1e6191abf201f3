//! Operation codes and the decoded-instruction representation.
//!
//! [`Op`] enumerates every operation in the supported subset (RV64IMAFDC +
//! Zba + Zbb + Zicsr + Zifencei + privileged instructions). Compressed
//! instructions decode into the same [`Op`] space, so everything downstream
//! of the decoder is encoding-agnostic — mirroring how XiangShan's decoder
//! expands RVC into full micro-ops.

use serde::{Deserialize, Serialize};

/// Every operation in the supported RV64GCB subset.
///
/// Word-sized (`*w`) variants are separate operations, as are the `.s`
/// (single) and `.d` (double) floating-point forms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum Op {
    // RV32I / RV64I
    Lui,
    Auipc,
    Jal,
    Jalr,
    Beq,
    Bne,
    Blt,
    Bge,
    Bltu,
    Bgeu,
    Lb,
    Lh,
    Lw,
    Ld,
    Lbu,
    Lhu,
    Lwu,
    Sb,
    Sh,
    Sw,
    Sd,
    Addi,
    Slti,
    Sltiu,
    Xori,
    Ori,
    Andi,
    Slli,
    Srli,
    Srai,
    Add,
    Sub,
    Sll,
    Slt,
    Sltu,
    Xor,
    Srl,
    Sra,
    Or,
    And,
    Addiw,
    Slliw,
    Srliw,
    Sraiw,
    Addw,
    Subw,
    Sllw,
    Srlw,
    Sraw,
    Fence,
    FenceI,
    Ecall,
    Ebreak,
    // Zicsr
    Csrrw,
    Csrrs,
    Csrrc,
    Csrrwi,
    Csrrsi,
    Csrrci,
    // RV64M
    Mul,
    Mulh,
    Mulhsu,
    Mulhu,
    Div,
    Divu,
    Rem,
    Remu,
    Mulw,
    Divw,
    Divuw,
    Remw,
    Remuw,
    // RV64A
    LrW,
    ScW,
    AmoswapW,
    AmoaddW,
    AmoxorW,
    AmoandW,
    AmoorW,
    AmominW,
    AmomaxW,
    AmominuW,
    AmomaxuW,
    LrD,
    ScD,
    AmoswapD,
    AmoaddD,
    AmoxorD,
    AmoandD,
    AmoorD,
    AmominD,
    AmomaxD,
    AmominuD,
    AmomaxuD,
    // RV64F
    Flw,
    Fsw,
    FmaddS,
    FmsubS,
    FnmsubS,
    FnmaddS,
    FaddS,
    FsubS,
    FmulS,
    FdivS,
    FsqrtS,
    FsgnjS,
    FsgnjnS,
    FsgnjxS,
    FminS,
    FmaxS,
    FcvtWS,
    FcvtWuS,
    FcvtLS,
    FcvtLuS,
    FmvXW,
    FeqS,
    FltS,
    FleS,
    FclassS,
    FcvtSW,
    FcvtSWu,
    FcvtSL,
    FcvtSLu,
    FmvWX,
    // RV64D
    Fld,
    Fsd,
    FmaddD,
    FmsubD,
    FnmsubD,
    FnmaddD,
    FaddD,
    FsubD,
    FmulD,
    FdivD,
    FsqrtD,
    FsgnjD,
    FsgnjnD,
    FsgnjxD,
    FminD,
    FmaxD,
    FcvtSD,
    FcvtDS,
    FeqD,
    FltD,
    FleD,
    FclassD,
    FcvtWD,
    FcvtWuD,
    FcvtLD,
    FcvtLuD,
    FmvXD,
    FcvtDW,
    FcvtDWu,
    FcvtDL,
    FcvtDLu,
    FmvDX,
    // Privileged
    Mret,
    Sret,
    Wfi,
    SfenceVma,
    // Zba
    Sh1add,
    Sh2add,
    Sh3add,
    AddUw,
    Sh1addUw,
    Sh2addUw,
    Sh3addUw,
    SlliUw,
    // Zbb
    Andn,
    Orn,
    Xnor,
    Clz,
    Ctz,
    Cpop,
    Clzw,
    Ctzw,
    Cpopw,
    Max,
    Min,
    Maxu,
    Minu,
    SextB,
    SextH,
    ZextH,
    Rol,
    Ror,
    Rori,
    Rolw,
    Rorw,
    Roriw,
    OrcB,
    Rev8,
    /// An encoding that does not correspond to any supported instruction.
    Illegal,
}

/// Functional unit class of an operation, used by the core model's
/// dispatch stage and by the interpreters' statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FuClass {
    /// Simple integer ALU (including LUI/AUIPC and Zba/Zbb logic).
    Alu,
    /// Integer multiply/divide.
    Mdu,
    /// Branches, jumps, CSR access, and system instructions.
    Bru,
    /// Loads (integer and floating point).
    Load,
    /// Stores and AMOs.
    Store,
    /// Floating-point multiply-add pipeline.
    Fma,
    /// Floating-point miscellaneous (div/sqrt/cvt/cmp/move).
    Fmisc,
}

/// A fully decoded instruction.
///
/// `imm` carries the sign-extended immediate; for CSR instructions it
/// carries the CSR address in its low 12 bits (and the zimm for the `*i`
/// forms is in `rs1`). `len` is the encoding length in bytes (2 or 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DecodedInst {
    /// The operation.
    pub op: Op,
    /// Destination register (x or f depending on `op`).
    pub rd: u8,
    /// First source register.
    pub rs1: u8,
    /// Second source register.
    pub rs2: u8,
    /// Third source register (FMA only).
    pub rs3: u8,
    /// Sign-extended immediate, or CSR address for Zicsr ops.
    pub imm: i64,
    /// Floating-point rounding mode field (0b111 = dynamic).
    pub rm: u8,
    /// Encoding length in bytes: 2 (compressed) or 4.
    pub len: u8,
    /// The raw instruction bits (low 16 valid when `len == 2`).
    pub raw: u32,
}

impl Default for DecodedInst {
    fn default() -> Self {
        DecodedInst {
            op: Op::Illegal,
            rd: 0,
            rs1: 0,
            rs2: 0,
            rs3: 0,
            imm: 0,
            rm: 0,
            len: 4,
            raw: 0,
        }
    }
}

impl DecodedInst {
    /// CSR address for Zicsr operations.
    #[inline]
    pub fn csr(&self) -> u16 {
        (self.imm as u64 & 0xfff) as u16
    }

    /// Returns true for conditional branches.
    #[inline]
    pub fn is_branch(&self) -> bool {
        matches!(
            self.op,
            Op::Beq | Op::Bne | Op::Blt | Op::Bge | Op::Bltu | Op::Bgeu
        )
    }

    /// Returns true for unconditional jumps (JAL/JALR).
    #[inline]
    pub fn is_jump(&self) -> bool {
        matches!(self.op, Op::Jal | Op::Jalr)
    }

    /// Returns true if this is any control-flow instruction.
    #[inline]
    pub fn is_control_flow(&self) -> bool {
        self.is_branch() || self.is_jump()
    }

    /// Returns true for loads (integer and FP, including LR).
    #[inline]
    pub fn is_load(&self) -> bool {
        matches!(
            self.op,
            Op::Lb
                | Op::Lh
                | Op::Lw
                | Op::Ld
                | Op::Lbu
                | Op::Lhu
                | Op::Lwu
                | Op::Flw
                | Op::Fld
                | Op::LrW
                | Op::LrD
        )
    }

    /// Returns true for stores (integer and FP, including SC).
    #[inline]
    pub fn is_store(&self) -> bool {
        matches!(
            self.op,
            Op::Sb | Op::Sh | Op::Sw | Op::Sd | Op::Fsw | Op::Fsd | Op::ScW | Op::ScD
        ) || self.is_amo()
    }

    /// Returns true for read-modify-write atomics (excluding LR/SC).
    #[inline]
    pub fn is_amo(&self) -> bool {
        matches!(
            self.op,
            Op::AmoswapW
                | Op::AmoaddW
                | Op::AmoxorW
                | Op::AmoandW
                | Op::AmoorW
                | Op::AmominW
                | Op::AmomaxW
                | Op::AmominuW
                | Op::AmomaxuW
                | Op::AmoswapD
                | Op::AmoaddD
                | Op::AmoxorD
                | Op::AmoandD
                | Op::AmoorD
                | Op::AmominD
                | Op::AmomaxD
                | Op::AmominuD
                | Op::AmomaxuD
        )
    }

    /// Returns true for any memory-access instruction.
    #[inline]
    pub fn is_mem(&self) -> bool {
        self.is_load() || self.is_store()
    }

    /// Memory access size in bytes for loads/stores/AMOs (0 otherwise).
    #[inline]
    pub fn mem_size(&self) -> u64 {
        use Op::*;
        match self.op {
            Lb | Lbu | Sb => 1,
            Lh | Lhu | Sh => 2,
            Lw | Lwu | Sw | Flw | Fsw | LrW | ScW | AmoswapW | AmoaddW | AmoxorW | AmoandW
            | AmoorW | AmominW | AmomaxW | AmominuW | AmomaxuW => 4,
            Ld | Sd | Fld | Fsd | LrD | ScD | AmoswapD | AmoaddD | AmoxorD | AmoandD | AmoorD
            | AmominD | AmomaxD | AmominuD | AmomaxuD => 8,
            _ => 0,
        }
    }

    /// Returns true when the destination register is a floating-point one.
    pub fn writes_fpr(&self) -> bool {
        use Op::*;
        matches!(
            self.op,
            Flw | Fld
                | FmaddS
                | FmsubS
                | FnmsubS
                | FnmaddS
                | FaddS
                | FsubS
                | FmulS
                | FdivS
                | FsqrtS
                | FsgnjS
                | FsgnjnS
                | FsgnjxS
                | FminS
                | FmaxS
                | FcvtSW
                | FcvtSWu
                | FcvtSL
                | FcvtSLu
                | FmvWX
                | FmaddD
                | FmsubD
                | FnmsubD
                | FnmaddD
                | FaddD
                | FsubD
                | FmulD
                | FdivD
                | FsqrtD
                | FsgnjD
                | FsgnjnD
                | FsgnjxD
                | FminD
                | FmaxD
                | FcvtSD
                | FcvtDS
                | FcvtDW
                | FcvtDWu
                | FcvtDL
                | FcvtDLu
                | FmvDX
        )
    }

    /// Returns true when the instruction writes an integer register.
    pub fn writes_gpr(&self) -> bool {
        use Op::*;
        if self.rd == 0 {
            return false;
        }
        !(self.is_branch()
            || matches!(
                self.op,
                Sb | Sh | Sw | Sd | Fsw | Fsd | Fence | FenceI | Ecall | Ebreak | Mret | Sret
                    | Wfi | SfenceVma | Illegal
            )
            || self.writes_fpr())
    }

    /// Returns true when `rs1` names a floating-point register.
    pub fn rs1_is_fpr(&self) -> bool {
        use Op::*;
        matches!(
            self.op,
            FmaddS | FmsubS | FnmsubS | FnmaddS | FaddS | FsubS | FmulS | FdivS | FsqrtS
                | FsgnjS | FsgnjnS | FsgnjxS | FminS | FmaxS | FcvtWS | FcvtWuS | FcvtLS
                | FcvtLuS | FmvXW | FeqS | FltS | FleS | FclassS | FmaddD | FmsubD | FnmsubD
                | FnmaddD | FaddD | FsubD | FmulD | FdivD | FsqrtD | FsgnjD | FsgnjnD | FsgnjxD
                | FminD | FmaxD | FcvtSD | FcvtDS | FeqD | FltD | FleD | FclassD | FcvtWD
                | FcvtWuD | FcvtLD | FcvtLuD | FmvXD
        )
    }

    /// Returns true when `rs2` names a floating-point register.
    pub fn rs2_is_fpr(&self) -> bool {
        use Op::*;
        matches!(
            self.op,
            Fsw | Fsd
                | FmaddS
                | FmsubS
                | FnmsubS
                | FnmaddS
                | FaddS
                | FsubS
                | FmulS
                | FdivS
                | FsgnjS
                | FsgnjnS
                | FsgnjxS
                | FminS
                | FmaxS
                | FeqS
                | FltS
                | FleS
                | FmaddD
                | FmsubD
                | FnmsubD
                | FnmaddD
                | FaddD
                | FsubD
                | FmulD
                | FdivD
                | FsgnjD
                | FsgnjnD
                | FsgnjxD
                | FminD
                | FmaxD
                | FeqD
                | FltD
                | FleD
        )
    }

    /// Returns true for the four-operand fused multiply-add family.
    pub fn is_fma(&self) -> bool {
        use Op::*;
        matches!(
            self.op,
            FmaddS | FmsubS | FnmsubS | FnmaddS | FmaddD | FmsubD | FnmsubD | FnmaddD
        )
    }

    /// Returns true for instructions that end a basic block in NEMU's
    /// trace-organized uop cache (control flow + system instructions).
    #[inline]
    pub fn ends_block(&self) -> bool {
        self.is_control_flow()
            || matches!(
                self.op,
                Op::Ecall
                    | Op::Ebreak
                    | Op::Mret
                    | Op::Sret
                    | Op::Wfi
                    | Op::FenceI
                    | Op::SfenceVma
                    | Op::Illegal
            )
    }

    /// Returns true for system/serializing instructions that flush the
    /// pipeline in the core model.
    pub fn is_system(&self) -> bool {
        matches!(
            self.op,
            Op::Ecall
                | Op::Ebreak
                | Op::Mret
                | Op::Sret
                | Op::Wfi
                | Op::Fence
                | Op::FenceI
                | Op::SfenceVma
                | Op::Csrrw
                | Op::Csrrs
                | Op::Csrrc
                | Op::Csrrwi
                | Op::Csrrsi
                | Op::Csrrci
        )
    }

    /// Functional-unit class this operation executes on.
    pub fn fu_class(&self) -> FuClass {
        use Op::*;
        if self.is_load() {
            return FuClass::Load;
        }
        if self.is_store() {
            return FuClass::Store;
        }
        if self.is_control_flow() || self.is_system() {
            return FuClass::Bru;
        }
        match self.op {
            Mul | Mulh | Mulhsu | Mulhu | Div | Divu | Rem | Remu | Mulw | Divw | Divuw | Remw
            | Remuw => FuClass::Mdu,
            FmaddS | FmsubS | FnmsubS | FnmaddS | FaddS | FsubS | FmulS | FmaddD | FmsubD
            | FnmsubD | FnmaddD | FaddD | FsubD | FmulD => FuClass::Fma,
            FdivS | FsqrtS | FdivD | FsqrtD | FsgnjS | FsgnjnS | FsgnjxS | FminS | FmaxS
            | FcvtWS | FcvtWuS | FcvtLS | FcvtLuS | FmvXW | FeqS | FltS | FleS | FclassS
            | FcvtSW | FcvtSWu | FcvtSL | FcvtSLu | FmvWX | FsgnjD | FsgnjnD | FsgnjxD | FminD
            | FmaxD | FcvtSD | FcvtDS | FeqD | FltD | FleD | FclassD | FcvtWD | FcvtWuD
            | FcvtLD | FcvtLuD | FmvXD | FcvtDW | FcvtDWu | FcvtDL | FcvtDLu | FmvDX => {
                FuClass::Fmisc
            }
            _ => FuClass::Alu,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_illegal() {
        let d = DecodedInst::default();
        assert_eq!(d.op, Op::Illegal);
        assert_eq!(d.len, 4);
    }

    #[test]
    fn classification_basics() {
        let mut d = DecodedInst {
            op: Op::Lw,
            ..Default::default()
        };
        assert!(d.is_load());
        assert!(!d.is_store());
        assert_eq!(d.mem_size(), 4);
        assert_eq!(d.fu_class(), FuClass::Load);

        d.op = Op::AmoaddD;
        assert!(d.is_store());
        assert!(d.is_amo());
        assert_eq!(d.mem_size(), 8);

        d.op = Op::Beq;
        assert!(d.is_branch());
        assert!(d.ends_block());
        assert_eq!(d.fu_class(), FuClass::Bru);

        d.op = Op::FmaddD;
        assert!(d.is_fma());
        assert!(d.writes_fpr());
        assert_eq!(d.fu_class(), FuClass::Fma);
    }

    #[test]
    fn gpr_write_detection() {
        let mut d = DecodedInst {
            op: Op::Add,
            rd: 3,
            ..Default::default()
        };
        assert!(d.writes_gpr());
        d.rd = 0;
        assert!(!d.writes_gpr());
        d.rd = 3;
        d.op = Op::Sd;
        assert!(!d.writes_gpr());
        d.op = Op::FcvtWD;
        assert!(d.writes_gpr());
        assert!(d.rs1_is_fpr());
        d.op = Op::FcvtDW;
        assert!(!d.rs1_is_fpr());
        assert!(d.writes_fpr());
    }

    #[test]
    fn csr_field_extraction() {
        let d = DecodedInst {
            op: Op::Csrrw,
            imm: 0x342,
            ..Default::default()
        };
        assert_eq!(d.csr(), 0x342);
    }
}
