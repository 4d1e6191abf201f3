//! The instruction table: what every supported instruction *is*, written
//! once.
//!
//! The `instructions!` table below has one row per 32-bit instruction of
//! the subset (RV64IMAFDC + Zba + Zbb + Zicsr + Zifencei + privileged),
//! grouped by major opcode and, under it, by the mask of the bits that
//! identify the instruction:
//!
//! ```text
//! 0x33 => { 0xfe00_707f => { Add = 0x0000_0033, "add", R, Alu; … } }
//!           mask            variant, match bits, mnemonic, shape, class
//! ```
//!
//! From the rows the macro emits [`Op`] (with [`Op::ALL`] and
//! [`Op::COUNT`]), the [`OpInfo`] array behind [`Op::info`], and the
//! two-level `match` that classifies a word for
//! [`decode32`](crate::decode::decode32). The encoder, the disassembler,
//! every [`DecodedInst`] predicate, the assembler's range checks and the
//! core model's operand renaming are lookups in that array plus one `match`
//! over the [`Shape`]s or [`Class`]es — so adding an instruction is one row
//! here plus its semantics in [`exec`](crate::exec) / [`fpu`](crate::fpu).
//! Compressed instructions have no rows: [`decode16`](crate::decode::decode16)
//! expands each into the [`Op`] of its 32-bit form (as XiangShan's decoder
//! expands RVC into full micro-ops), so everything past decode is
//! encoding-agnostic.

use serde::{Deserialize, Serialize};

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

impl FuClass {
    /// Every class, in declaration order (index = `as usize`).
    pub const ALL: [FuClass; 7] = {
        use FuClass::*;
        [Alu, Mdu, Bru, Load, Store, Fma, Fmisc]
    };
    /// Number of classes.
    pub const COUNT: usize = Self::ALL.len();
}

/// The register file an operand field names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegFile {
    /// Integer registers (`x0` reads zero and discards writes).
    X,
    /// Floating-point registers.
    F,
}

/// Operand shape of an instruction: which of `rd` / `rs1` / `rs2` / `rs3`
/// it writes or reads and in which register file ([`Shape::regs`]), and
/// which immediate form it carries — so how the operands are laid into the
/// word, what range the immediate has, and how it is written in assembly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `rd, rs1, rs2`.
    R,
    /// `rd, rs1, imm12`.
    I,
    /// `rd, rs1, shamt` with a 6-bit shift amount.
    Shamt6,
    /// `rd, rs1, shamt` with a 5-bit shift amount (`*w` shifts).
    Shamt5,
    /// `rd, rs1`; the `rs2` field is part of the match bits.
    Unary,
    /// `rd, imm12(rs1)`: the integer loads, and `jalr`, written the same way.
    Load,
    /// `fd, imm12(rs1)`.
    FLoad,
    /// `rs2, imm12(rs1)`.
    S,
    /// `fs2, imm12(rs1)`.
    FStore,
    /// `rs1, rs2, target` (13-bit even displacement).
    B,
    /// `rd, imm20` (a multiple of 4 KiB).
    U,
    /// `rd, target` (21-bit even displacement).
    J,
    /// `rd, csr, rs1`; `imm` holds the CSR address.
    Csr,
    /// `rd, csr, zimm`; the `rs1` field holds the 5-bit immediate.
    CsrImm,
    /// `rd, rs2, (rs1)`: AMOs and `sc`; `aq`/`rl` are ignored.
    Amo,
    /// `rd, (rs1)`: `lr`.
    Lr,
    /// `fence` / `fence.i`: the operand fields are hints, decoded as zero.
    Fence,
    /// `sfence.vma rs1, rs2`; the `rd` field is decoded as zero.
    Sfence,
    /// No operands; the whole word is the match (and [`Op::Illegal`]).
    None,
    /// `fd, fs1, fs2, fs3`.
    Fma,
    /// `fd, fs1, fs2`.
    FpR,
    /// `fd, fs1` (`fsqrt`, `fcvt.s.d`, `fcvt.d.s`).
    FpUnary,
    /// `rd, fs1, fs2` (comparisons).
    FpCmp,
    /// `rd, fs1` (`fcvt.{w,l}[u].*`, `fmv.x.*`, `fclass`).
    FpToInt,
    /// `fd, rs1` (`fcvt.*.{w,l}[u]`, `fmv.*.x`).
    IntToFp,
}

impl Shape {
    /// Register file of `[rd, rs1, rs2, rs3]`; `None` where the shape does
    /// not write (`rd`) or read (`rs*`) the field.
    pub const fn regs(self) -> [Option<RegFile>; 4] {
        const X: Option<RegFile> = Some(RegFile::X);
        const F: Option<RegFile> = Some(RegFile::F);
        const N: Option<RegFile> = Option::None;
        match self {
            Shape::R | Shape::Amo => [X, X, X, N],
            Shape::I | Shape::Shamt6 | Shape::Shamt5 | Shape::Unary => [X, X, N, N],
            Shape::Load | Shape::Csr | Shape::Lr => [X, X, N, N],
            Shape::U | Shape::J | Shape::CsrImm => [X, N, N, N],
            Shape::S | Shape::B | Shape::Sfence => [N, X, X, N],
            Shape::FLoad | Shape::IntToFp => [F, X, N, N],
            Shape::FStore => [N, X, F, N],
            Shape::Fma => [F, F, F, F],
            Shape::FpR => [F, F, F, N],
            Shape::FpUnary => [F, F, N, N],
            Shape::FpCmp => [X, F, F, N],
            Shape::FpToInt => [X, F, N, N],
            Shape::Fence | Shape::None => [N, N, N, N],
        }
    }
}

/// What kind of work an instruction is: its functional unit, whether it
/// touches memory (and how many bytes), redirects or serializes the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Integer ALU.
    Alu,
    /// Integer multiply/divide.
    Mdu,
    /// Floating-point multiply-add pipeline.
    Fma,
    /// Floating-point miscellaneous.
    Fmisc,
    /// Conditional branch.
    Branch,
    /// Unconditional jump (`jal` / `jalr`).
    Jump,
    /// System instruction that flushes the pipeline and ends a basic block.
    System,
    /// Serializing instruction the block runs on past (`fence`, `csrr*`).
    Serial,
    /// Load (including `lr`) of this many bytes.
    Load(u8),
    /// Store (including `sc`) of this many bytes.
    Store(u8),
    /// Read-modify-write atomic of this many bytes.
    Amo(u8),
    /// [`Op::Illegal`]: traps, so it ends a block; the ALU is its nominal unit.
    Illegal,
}

impl Class {
    /// The functional unit the instruction executes on.
    pub const fn unit(self) -> FuClass {
        match self {
            Class::Alu | Class::Illegal => FuClass::Alu,
            Class::Mdu => FuClass::Mdu,
            Class::Fma => FuClass::Fma,
            Class::Fmisc => FuClass::Fmisc,
            Class::Branch | Class::Jump | Class::System | Class::Serial => FuClass::Bru,
            Class::Load(_) => FuClass::Load,
            Class::Store(_) | Class::Amo(_) => FuClass::Store,
        }
    }
}

/// One row of the instruction table.
#[derive(Debug, Clone, Copy)]
pub struct OpInfo {
    /// The bits of a 32-bit word that identify the instruction.
    pub mask: u32,
    /// Their values: a word `w` is this instruction iff `w & mask == bits`.
    pub bits: u32,
    /// Lower-case assembly mnemonic.
    pub mnemonic: &'static str,
    /// Operand shape.
    pub shape: Shape,
    /// Kind of work.
    pub class: Class,
}

impl OpInfo {
    /// True when funct3 is a live rounding-mode field: an OP-FP or FMA row
    /// whose mask leaves it free.
    pub const fn rm_live(&self) -> bool {
        matches!(self.bits & 0x7f, 0x43 | 0x47 | 0x4b | 0x4f | 0x53) && self.mask & 0x7000 == 0
    }
}

const fn row_is_consistent(opcode: u32, mask: u32, bits: u32) -> bool {
    mask & 0x7f == 0x7f && bits & 0x7f == opcode && bits & !mask == 0
}

macro_rules! instructions {
    ($( $opcode:literal => { $( $mask:literal => { $(
        $op:ident = $bits:literal, $mnemonic:literal, $shape:ident, $class:ident $(($bytes:literal))?;
    )* } )* } )*) => {
        /// Every operation in the supported RV64GCB subset.
        ///
        /// Word-sized (`*w`) variants are separate operations, as are the `.s`
        /// (single) and `.d` (double) floating-point forms.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
        #[allow(missing_docs)]
        pub enum Op {
            $($($( $op, )*)*)*
            /// An encoding that does not correspond to any supported instruction.
            Illegal,
        }

        impl Op {
            /// Number of operations, [`Op::Illegal`] included.
            pub const COUNT: usize = Op::Illegal as usize + 1;
            /// Every operation, in table order (index = `as usize`);
            /// [`Op::Illegal`] is last.
            pub const ALL: [Op; Op::COUNT] = [$($($( Op::$op, )*)*)* Op::Illegal];
        }

        static INFO: [OpInfo; Op::COUNT] = [
            $($($( OpInfo {
                mask: $mask,
                bits: $bits,
                mnemonic: $mnemonic,
                shape: Shape::$shape,
                class: Class::$class $(($bytes))?,
            }, )*)*)*
            // Matches every word: a linear scan of the rows ends here.
            OpInfo { mask: 0, bits: 0, mnemonic: "illegal", shape: Shape::None, class: Class::Illegal },
        ];

        const _: () = { $($($( assert!(row_is_consistent($opcode, $mask, $bits)); )*)*)* };

        /// The operation a 32-bit word encodes: one `match` on the major
        /// opcode, then on the word under each mask the opcode uses.
        #[inline]
        pub(crate) fn classify(raw: u32) -> Op {
            match raw & 0x7f {
                $( $opcode => { $(
                    match raw & $mask {
                        $( $bits => return Op::$op, )*
                        _ => {}
                    }
                )* } )*
                _ => {}
            }
            Op::Illegal
        }
    };
}

instructions! {
    0x37 => { 0x0000_007f => { Lui = 0x0000_0037, "lui", U, Alu; } }
    0x17 => { 0x0000_007f => { Auipc = 0x0000_0017, "auipc", U, Alu; } }
    0x6f => { 0x0000_007f => { Jal = 0x0000_006f, "jal", J, Jump; } }
    0x67 => { 0x0000_707f => { Jalr = 0x0000_0067, "jalr", Load, Jump; } }
    0x63 => {
        0x0000_707f => {
            Beq = 0x0000_0063, "beq", B, Branch;
            Bne = 0x0000_1063, "bne", B, Branch;
            Blt = 0x0000_4063, "blt", B, Branch;
            Bge = 0x0000_5063, "bge", B, Branch;
            Bltu = 0x0000_6063, "bltu", B, Branch;
            Bgeu = 0x0000_7063, "bgeu", B, Branch;
        }
    }
    0x03 => {
        0x0000_707f => {
            Lb = 0x0000_0003, "lb", Load, Load(1);
            Lh = 0x0000_1003, "lh", Load, Load(2);
            Lw = 0x0000_2003, "lw", Load, Load(4);
            Ld = 0x0000_3003, "ld", Load, Load(8);
            Lbu = 0x0000_4003, "lbu", Load, Load(1);
            Lhu = 0x0000_5003, "lhu", Load, Load(2);
            Lwu = 0x0000_6003, "lwu", Load, Load(4);
        }
    }
    0x23 => {
        0x0000_707f => {
            Sb = 0x0000_0023, "sb", S, Store(1);
            Sh = 0x0000_1023, "sh", S, Store(2);
            Sw = 0x0000_2023, "sw", S, Store(4);
            Sd = 0x0000_3023, "sd", S, Store(8);
        }
    }
    0x13 => {
        0x0000_707f => {
            Addi = 0x0000_0013, "addi", I, Alu;
            Slti = 0x0000_2013, "slti", I, Alu;
            Sltiu = 0x0000_3013, "sltiu", I, Alu;
            Xori = 0x0000_4013, "xori", I, Alu;
            Ori = 0x0000_6013, "ori", I, Alu;
            Andi = 0x0000_7013, "andi", I, Alu;
        }
        0xfc00_707f => {
            Slli = 0x0000_1013, "slli", Shamt6, Alu;
            Srli = 0x0000_5013, "srli", Shamt6, Alu;
            Srai = 0x4000_5013, "srai", Shamt6, Alu;
            Rori = 0x6000_5013, "rori", Shamt6, Alu;
        }
        0xfdf0_707f => {
            Clz = 0x6000_1013, "clz", Unary, Alu;
            Ctz = 0x6010_1013, "ctz", Unary, Alu;
            Cpop = 0x6020_1013, "cpop", Unary, Alu;
            SextB = 0x6040_1013, "sext.b", Unary, Alu;
            SextH = 0x6050_1013, "sext.h", Unary, Alu;
        }
        0xfff0_707f => {
            OrcB = 0x2870_5013, "orc.b", Unary, Alu;
            Rev8 = 0x6b80_5013, "rev8", Unary, Alu;
        }
    }
    0x33 => {
        0xfe00_707f => {
            Add = 0x0000_0033, "add", R, Alu;
            Sub = 0x4000_0033, "sub", R, Alu;
            Sll = 0x0000_1033, "sll", R, Alu;
            Slt = 0x0000_2033, "slt", R, Alu;
            Sltu = 0x0000_3033, "sltu", R, Alu;
            Xor = 0x0000_4033, "xor", R, Alu;
            Srl = 0x0000_5033, "srl", R, Alu;
            Sra = 0x4000_5033, "sra", R, Alu;
            Or = 0x0000_6033, "or", R, Alu;
            And = 0x0000_7033, "and", R, Alu;
            Mul = 0x0200_0033, "mul", R, Mdu;
            Mulh = 0x0200_1033, "mulh", R, Mdu;
            Mulhsu = 0x0200_2033, "mulhsu", R, Mdu;
            Mulhu = 0x0200_3033, "mulhu", R, Mdu;
            Div = 0x0200_4033, "div", R, Mdu;
            Divu = 0x0200_5033, "divu", R, Mdu;
            Rem = 0x0200_6033, "rem", R, Mdu;
            Remu = 0x0200_7033, "remu", R, Mdu;
            Sh1add = 0x2000_2033, "sh1add", R, Alu;
            Sh2add = 0x2000_4033, "sh2add", R, Alu;
            Sh3add = 0x2000_6033, "sh3add", R, Alu;
            Andn = 0x4000_7033, "andn", R, Alu;
            Orn = 0x4000_6033, "orn", R, Alu;
            Xnor = 0x4000_4033, "xnor", R, Alu;
            Max = 0x0a00_6033, "max", R, Alu;
            Min = 0x0a00_4033, "min", R, Alu;
            Maxu = 0x0a00_7033, "maxu", R, Alu;
            Minu = 0x0a00_5033, "minu", R, Alu;
            Rol = 0x6000_1033, "rol", R, Alu;
            Ror = 0x6000_5033, "ror", R, Alu;
        }
    }
    0x1b => {
        0x0000_707f => { Addiw = 0x0000_001b, "addiw", I, Alu; }
        0xfe00_707f => {
            Slliw = 0x0000_101b, "slliw", Shamt5, Alu;
            Srliw = 0x0000_501b, "srliw", Shamt5, Alu;
            Sraiw = 0x4000_501b, "sraiw", Shamt5, Alu;
            Roriw = 0x6000_501b, "roriw", Shamt5, Alu;
        }
        0xfc00_707f => { SlliUw = 0x0800_101b, "slli.uw", Shamt6, Alu; }
        0xfff0_707f => {
            Clzw = 0x6000_101b, "clzw", Unary, Alu;
            Ctzw = 0x6010_101b, "ctzw", Unary, Alu;
            Cpopw = 0x6020_101b, "cpopw", Unary, Alu;
        }
    }
    0x3b => {
        0xfe00_707f => {
            Addw = 0x0000_003b, "addw", R, Alu;
            Subw = 0x4000_003b, "subw", R, Alu;
            Sllw = 0x0000_103b, "sllw", R, Alu;
            Srlw = 0x0000_503b, "srlw", R, Alu;
            Sraw = 0x4000_503b, "sraw", R, Alu;
            Mulw = 0x0200_003b, "mulw", R, Mdu;
            Divw = 0x0200_403b, "divw", R, Mdu;
            Divuw = 0x0200_503b, "divuw", R, Mdu;
            Remw = 0x0200_603b, "remw", R, Mdu;
            Remuw = 0x0200_703b, "remuw", R, Mdu;
            AddUw = 0x0800_003b, "add.uw", R, Alu;
            Sh1addUw = 0x2000_203b, "sh1add.uw", R, Alu;
            Sh2addUw = 0x2000_403b, "sh2add.uw", R, Alu;
            Sh3addUw = 0x2000_603b, "sh3add.uw", R, Alu;
            Rolw = 0x6000_103b, "rolw", R, Alu;
            Rorw = 0x6000_503b, "rorw", R, Alu;
        }
        0xfff0_707f => { ZextH = 0x0800_403b, "zext.h", Unary, Alu; }
    }
    0x0f => {
        0x0000_707f => {
            Fence = 0x0000_000f, "fence", Fence, Serial;
            FenceI = 0x0000_100f, "fence.i", Fence, System;
        }
    }
    0x73 => {
        0xffff_ffff => {
            Ecall = 0x0000_0073, "ecall", None, System;
            Ebreak = 0x0010_0073, "ebreak", None, System;
            Mret = 0x3020_0073, "mret", None, System;
            Sret = 0x1020_0073, "sret", None, System;
            Wfi = 0x1050_0073, "wfi", None, System;
        }
        0x0000_707f => {
            Csrrw = 0x0000_1073, "csrrw", Csr, Serial;
            Csrrs = 0x0000_2073, "csrrs", Csr, Serial;
            Csrrc = 0x0000_3073, "csrrc", Csr, Serial;
            Csrrwi = 0x0000_5073, "csrrwi", CsrImm, Serial;
            Csrrsi = 0x0000_6073, "csrrsi", CsrImm, Serial;
            Csrrci = 0x0000_7073, "csrrci", CsrImm, Serial;
        }
        0xfe00_707f => { SfenceVma = 0x1200_0073, "sfence.vma", Sfence, System; }
    }
    0x2f => {
        0xf800_707f => {
            LrW = 0x1000_202f, "lr.w", Lr, Load(4);
            ScW = 0x1800_202f, "sc.w", Amo, Store(4);
            AmoswapW = 0x0800_202f, "amoswap.w", Amo, Amo(4);
            AmoaddW = 0x0000_202f, "amoadd.w", Amo, Amo(4);
            AmoxorW = 0x2000_202f, "amoxor.w", Amo, Amo(4);
            AmoandW = 0x6000_202f, "amoand.w", Amo, Amo(4);
            AmoorW = 0x4000_202f, "amoor.w", Amo, Amo(4);
            AmominW = 0x8000_202f, "amomin.w", Amo, Amo(4);
            AmomaxW = 0xa000_202f, "amomax.w", Amo, Amo(4);
            AmominuW = 0xc000_202f, "amominu.w", Amo, Amo(4);
            AmomaxuW = 0xe000_202f, "amomaxu.w", Amo, Amo(4);
            LrD = 0x1000_302f, "lr.d", Lr, Load(8);
            ScD = 0x1800_302f, "sc.d", Amo, Store(8);
            AmoswapD = 0x0800_302f, "amoswap.d", Amo, Amo(8);
            AmoaddD = 0x0000_302f, "amoadd.d", Amo, Amo(8);
            AmoxorD = 0x2000_302f, "amoxor.d", Amo, Amo(8);
            AmoandD = 0x6000_302f, "amoand.d", Amo, Amo(8);
            AmoorD = 0x4000_302f, "amoor.d", Amo, Amo(8);
            AmominD = 0x8000_302f, "amomin.d", Amo, Amo(8);
            AmomaxD = 0xa000_302f, "amomax.d", Amo, Amo(8);
            AmominuD = 0xc000_302f, "amominu.d", Amo, Amo(8);
            AmomaxuD = 0xe000_302f, "amomaxu.d", Amo, Amo(8);
        }
    }
    0x07 => {
        0x0000_707f => {
            Flw = 0x0000_2007, "flw", FLoad, Load(4);
            Fld = 0x0000_3007, "fld", FLoad, Load(8);
        }
    }
    0x27 => {
        0x0000_707f => {
            Fsw = 0x0000_2027, "fsw", FStore, Store(4);
            Fsd = 0x0000_3027, "fsd", FStore, Store(8);
        }
    }
    0x43 => {
        0x0600_007f => {
            FmaddS = 0x0000_0043, "fmadd.s", Fma, Fma;
            FmaddD = 0x0200_0043, "fmadd.d", Fma, Fma;
        }
    }
    0x47 => {
        0x0600_007f => {
            FmsubS = 0x0000_0047, "fmsub.s", Fma, Fma;
            FmsubD = 0x0200_0047, "fmsub.d", Fma, Fma;
        }
    }
    0x4b => {
        0x0600_007f => {
            FnmsubS = 0x0000_004b, "fnmsub.s", Fma, Fma;
            FnmsubD = 0x0200_004b, "fnmsub.d", Fma, Fma;
        }
    }
    0x4f => {
        0x0600_007f => {
            FnmaddS = 0x0000_004f, "fnmadd.s", Fma, Fma;
            FnmaddD = 0x0200_004f, "fnmadd.d", Fma, Fma;
        }
    }
    0x53 => {
        0xfe00_007f => {
            FaddS = 0x0000_0053, "fadd.s", FpR, Fma;
            FsubS = 0x0800_0053, "fsub.s", FpR, Fma;
            FmulS = 0x1000_0053, "fmul.s", FpR, Fma;
            FdivS = 0x1800_0053, "fdiv.s", FpR, Fmisc;
            FsqrtS = 0x5800_0053, "fsqrt.s", FpUnary, Fmisc;
            FaddD = 0x0200_0053, "fadd.d", FpR, Fma;
            FsubD = 0x0a00_0053, "fsub.d", FpR, Fma;
            FmulD = 0x1200_0053, "fmul.d", FpR, Fma;
            FdivD = 0x1a00_0053, "fdiv.d", FpR, Fmisc;
            FsqrtD = 0x5a00_0053, "fsqrt.d", FpUnary, Fmisc;
        }
        0xfe00_707f => {
            FsgnjS = 0x2000_0053, "fsgnj.s", FpR, Fmisc;
            FsgnjnS = 0x2000_1053, "fsgnjn.s", FpR, Fmisc;
            FsgnjxS = 0x2000_2053, "fsgnjx.s", FpR, Fmisc;
            FminS = 0x2800_0053, "fmin.s", FpR, Fmisc;
            FmaxS = 0x2800_1053, "fmax.s", FpR, Fmisc;
            FeqS = 0xa000_2053, "feq.s", FpCmp, Fmisc;
            FltS = 0xa000_1053, "flt.s", FpCmp, Fmisc;
            FleS = 0xa000_0053, "fle.s", FpCmp, Fmisc;
            FsgnjD = 0x2200_0053, "fsgnj.d", FpR, Fmisc;
            FsgnjnD = 0x2200_1053, "fsgnjn.d", FpR, Fmisc;
            FsgnjxD = 0x2200_2053, "fsgnjx.d", FpR, Fmisc;
            FminD = 0x2a00_0053, "fmin.d", FpR, Fmisc;
            FmaxD = 0x2a00_1053, "fmax.d", FpR, Fmisc;
            FeqD = 0xa200_2053, "feq.d", FpCmp, Fmisc;
            FltD = 0xa200_1053, "flt.d", FpCmp, Fmisc;
            FleD = 0xa200_0053, "fle.d", FpCmp, Fmisc;
        }
        0xfff0_007f => {
            FcvtWS = 0xc000_0053, "fcvt.w.s", FpToInt, Fmisc;
            FcvtWuS = 0xc010_0053, "fcvt.wu.s", FpToInt, Fmisc;
            FcvtLS = 0xc020_0053, "fcvt.l.s", FpToInt, Fmisc;
            FcvtLuS = 0xc030_0053, "fcvt.lu.s", FpToInt, Fmisc;
            FcvtSW = 0xd000_0053, "fcvt.s.w", IntToFp, Fmisc;
            FcvtSWu = 0xd010_0053, "fcvt.s.wu", IntToFp, Fmisc;
            FcvtSL = 0xd020_0053, "fcvt.s.l", IntToFp, Fmisc;
            FcvtSLu = 0xd030_0053, "fcvt.s.lu", IntToFp, Fmisc;
            FcvtSD = 0x4010_0053, "fcvt.s.d", FpUnary, Fmisc;
            FcvtDS = 0x4200_0053, "fcvt.d.s", FpUnary, Fmisc;
            FcvtWD = 0xc200_0053, "fcvt.w.d", FpToInt, Fmisc;
            FcvtWuD = 0xc210_0053, "fcvt.wu.d", FpToInt, Fmisc;
            FcvtLD = 0xc220_0053, "fcvt.l.d", FpToInt, Fmisc;
            FcvtLuD = 0xc230_0053, "fcvt.lu.d", FpToInt, Fmisc;
            FcvtDW = 0xd200_0053, "fcvt.d.w", IntToFp, Fmisc;
            FcvtDWu = 0xd210_0053, "fcvt.d.wu", IntToFp, Fmisc;
            FcvtDL = 0xd220_0053, "fcvt.d.l", IntToFp, Fmisc;
            FcvtDLu = 0xd230_0053, "fcvt.d.lu", IntToFp, Fmisc;
        }
        0xfff0_707f => {
            FmvXW = 0xe000_0053, "fmv.x.w", FpToInt, Fmisc;
            FclassS = 0xe000_1053, "fclass.s", FpToInt, Fmisc;
            FmvWX = 0xf000_0053, "fmv.w.x", IntToFp, Fmisc;
            FclassD = 0xe200_1053, "fclass.d", FpToInt, Fmisc;
            FmvXD = 0xe200_0053, "fmv.x.d", FpToInt, Fmisc;
            FmvDX = 0xf200_0053, "fmv.d.x", IntToFp, Fmisc;
        }
    }
}

impl Op {
    /// This operation's row of the instruction table.
    #[inline]
    pub fn info(self) -> &'static OpInfo {
        &INFO[self as usize]
    }

    /// Operand shape.
    #[inline]
    pub fn shape(self) -> Shape {
        self.info().shape
    }

    /// Kind of work.
    #[inline]
    pub fn class(self) -> Class {
        self.info().class
    }
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
        self.op.class() == Class::Branch
    }

    /// Returns true if this is any control-flow instruction.
    #[inline]
    pub fn is_control_flow(&self) -> bool {
        matches!(self.op.class(), Class::Branch | Class::Jump)
    }

    /// Returns true for loads (integer and FP, including LR).
    #[inline]
    pub fn is_load(&self) -> bool {
        matches!(self.op.class(), Class::Load(_))
    }

    /// Returns true for stores (integer and FP, including SC and AMOs).
    #[inline]
    pub fn is_store(&self) -> bool {
        matches!(self.op.class(), Class::Store(_) | Class::Amo(_))
    }

    /// Returns true for read-modify-write atomics (excluding LR/SC).
    #[inline]
    pub fn is_amo(&self) -> bool {
        matches!(self.op.class(), Class::Amo(_))
    }

    /// Memory access size in bytes for loads/stores/AMOs (0 otherwise).
    #[inline]
    pub fn mem_size(&self) -> u64 {
        match self.op.class() {
            Class::Load(n) | Class::Store(n) | Class::Amo(n) => n as u64,
            _ => 0,
        }
    }

    /// Returns true when the destination register is a floating-point one.
    #[inline]
    pub fn writes_fpr(&self) -> bool {
        self.op.shape().regs()[0] == Some(RegFile::F)
    }

    /// Returns true when the instruction writes an integer register.
    #[inline]
    pub fn writes_gpr(&self) -> bool {
        self.rd != 0 && self.op.shape().regs()[0] == Some(RegFile::X)
    }

    /// Returns true when `rs1` names a floating-point register.
    #[inline]
    pub fn rs1_is_fpr(&self) -> bool {
        self.op.shape().regs()[1] == Some(RegFile::F)
    }

    /// Returns true when `rs2` names a floating-point register.
    #[inline]
    pub fn rs2_is_fpr(&self) -> bool {
        self.op.shape().regs()[2] == Some(RegFile::F)
    }

    /// Returns true for the four-operand fused multiply-add family.
    #[inline]
    pub fn is_fma(&self) -> bool {
        self.op.shape() == Shape::Fma
    }

    /// Returns true for instructions that end a basic block in NEMU's
    /// trace-organized uop cache (control flow + system instructions).
    #[inline]
    pub fn ends_block(&self) -> bool {
        matches!(
            self.op.class(),
            Class::Branch | Class::Jump | Class::System | Class::Illegal
        )
    }

    /// Returns true for system/serializing instructions that flush the
    /// pipeline in the core model.
    #[inline]
    pub fn is_system(&self) -> bool {
        matches!(self.op.class(), Class::System | Class::Serial)
    }

    /// Functional-unit class this operation executes on.
    #[inline]
    pub fn fu_class(&self) -> FuClass {
        self.op.class().unit()
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
