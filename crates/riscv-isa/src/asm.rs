//! An in-Rust assembler (program builder) with labels and fixups.
//!
//! The workload suite builds its SPEC-like kernels with this module
//! instead of an external toolchain — the reproduction must be
//! self-contained (SPEC binaries and the riscv-gnu-toolchain are outside
//! the allowed inputs; see DESIGN.md §5.2).
//!
//! # Example
//!
//! ```
//! use riscv_isa::asm::{reg::*, Asm};
//!
//! let mut a = Asm::new(0x8000_0000);
//! a.li(T0, 0);
//! a.li(T1, 10);
//! let top = a.label();
//! a.bind(top);
//! a.addi(T0, T0, 1);
//! a.bne(T0, T1, top);
//! a.ebreak();
//! let prog = a.assemble();
//! assert_eq!(prog.base, 0x8000_0000);
//! assert!(prog.bytes.len() >= 5 * 4);
//! ```

use crate::disasm::mnemonic;
use crate::encode::encode;
use crate::op::{DecodedInst, Op};

/// The dynamic rounding mode (`frm` decides), what arithmetic emitters use.
const RM_DYN: u8 = 0b111;

/// Integer register ABI constants.
#[allow(missing_docs)]
pub mod reg {
    pub const ZERO: u8 = 0;
    pub const RA: u8 = 1;
    pub const SP: u8 = 2;
    pub const GP: u8 = 3;
    pub const TP: u8 = 4;
    pub const T0: u8 = 5;
    pub const T1: u8 = 6;
    pub const T2: u8 = 7;
    pub const S0: u8 = 8;
    pub const S1: u8 = 9;
    pub const A0: u8 = 10;
    pub const A1: u8 = 11;
    pub const A2: u8 = 12;
    pub const A3: u8 = 13;
    pub const A4: u8 = 14;
    pub const A5: u8 = 15;
    pub const A6: u8 = 16;
    pub const A7: u8 = 17;
    pub const S2: u8 = 18;
    pub const S3: u8 = 19;
    pub const S4: u8 = 20;
    pub const S5: u8 = 21;
    pub const S6: u8 = 22;
    pub const S7: u8 = 23;
    pub const S8: u8 = 24;
    pub const S9: u8 = 25;
    pub const S10: u8 = 26;
    pub const S11: u8 = 27;
    pub const T3: u8 = 28;
    pub const T4: u8 = 29;
    pub const T5: u8 = 30;
    pub const T6: u8 = 31;
    // Floating-point registers share the 0..31 index space.
    pub const FT0: u8 = 0;
    pub const FT1: u8 = 1;
    pub const FT2: u8 = 2;
    pub const FT3: u8 = 3;
    pub const FT4: u8 = 4;
    pub const FT5: u8 = 5;
    pub const FT6: u8 = 6;
    pub const FT7: u8 = 7;
    pub const FS0: u8 = 8;
    pub const FS1: u8 = 9;
    pub const FA0: u8 = 10;
    pub const FA1: u8 = 11;
    pub const FA2: u8 = 12;
    pub const FA3: u8 = 13;
    pub const FA4: u8 = 14;
    pub const FA5: u8 = 15;
    pub const FT8: u8 = 28;
    pub const FT9: u8 = 29;
    pub const FT10: u8 = 30;
    pub const FT11: u8 = 31;
}

/// A forward- or backward-referenced code/data location.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Label(usize);

#[derive(Debug, Clone, Copy)]
enum FixKind {
    /// B-type target (conditional branch).
    Branch,
    /// J-type target (jal).
    Jal,
    /// An auipc+addi pair materializing an absolute address.
    AuipcPair,
    /// A 64-bit absolute address in the data stream.
    Abs64,
}

#[derive(Debug, Clone, Copy)]
struct Fixup {
    offset: usize,
    label: Label,
    kind: FixKind,
}

/// An assembled flat binary image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// Load address of the image.
    pub base: u64,
    /// Entry point (equals `base`).
    pub entry: u64,
    /// The image bytes.
    pub bytes: Vec<u8>,
}

impl Program {
    /// Load the image into a physical memory.
    pub fn load_into<M: crate::mem::PhysMem>(&self, mem: &mut M) {
        mem.write(self.base, &self.bytes);
    }

    /// Size of the image in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True when the image is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

/// The program builder.
#[derive(Debug, Clone)]
pub struct Asm {
    base: u64,
    buf: Vec<u8>,
    labels: Vec<Option<u64>>,
    fixups: Vec<Fixup>,
}

macro_rules! rrr {
    ($($name:ident => $op:ident),* $(,)?) => {
        $(
            #[doc = concat!("Emit `", stringify!($name), " rd, rs1, rs2`.")]
            pub fn $name(&mut self, rd: u8, rs1: u8, rs2: u8) {
                self.emit_op(Op::$op, rd, rs1, rs2, 0, 0);
            }
        )*
    };
}

macro_rules! rri {
    ($($name:ident => $op:ident),* $(,)?) => {
        $(
            #[doc = concat!("Emit `", stringify!($name), " rd, rs1, imm`.")]
            pub fn $name(&mut self, rd: u8, rs1: u8, imm: i64) {
                self.emit_op(Op::$op, rd, rs1, 0, 0, imm);
            }
        )*
    };
}

macro_rules! rr {
    ($($name:ident => $op:ident),* $(,)?) => {
        $(
            #[doc = concat!("Emit `", stringify!($name), " rd, rs1`.")]
            pub fn $name(&mut self, rd: u8, rs1: u8) {
                self.emit_op(Op::$op, rd, rs1, 0, 0, 0);
            }
        )*
    };
}

macro_rules! branches {
    ($($name:ident => $op:ident),* $(,)?) => {
        $(
            #[doc = concat!("Emit `", stringify!($name), " rs1, rs2, label`.")]
            pub fn $name(&mut self, rs1: u8, rs2: u8, target: Label) {
                self.fixups.push(Fixup {
                    offset: self.buf.len(),
                    label: target,
                    kind: FixKind::Branch,
                });
                self.emit_op(Op::$op, 0, rs1, rs2, 0, 0);
            }
        )*
    };
}

macro_rules! fp3 {
    ($($name:ident => $op:ident),* $(,)?) => {
        $(
            #[doc = concat!("Emit `", stringify!($name), " rd, rs1, rs2` (FP).")]
            pub fn $name(&mut self, rd: u8, rs1: u8, rs2: u8) {
                self.emit_fp(Op::$op, rd, rs1, rs2, 0, RM_DYN);
            }
        )*
    };
}

macro_rules! fp4 {
    ($($name:ident => $op:ident),* $(,)?) => {
        $(
            #[doc = concat!("Emit `", stringify!($name), " rd, rs1, rs2, rs3` (FMA).")]
            pub fn $name(&mut self, rd: u8, rs1: u8, rs2: u8, rs3: u8) {
                self.emit_fp(Op::$op, rd, rs1, rs2, rs3, RM_DYN);
            }
        )*
    };
}

impl Asm {
    /// Start building a program at load address `base`.
    pub fn new(base: u64) -> Self {
        Asm {
            base,
            buf: Vec::new(),
            labels: Vec::new(),
            fixups: Vec::new(),
        }
    }

    /// Current emit address.
    pub fn here(&self) -> u64 {
        self.base + self.buf.len() as u64
    }

    /// Create a new unbound label.
    pub fn label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Bind `label` to the current address.
    ///
    /// # Panics
    ///
    /// Panics if the label is already bound.
    pub fn bind(&mut self, label: Label) {
        let here = self.here();
        assert!(
            self.labels[label.0].replace(here).is_none(),
            "label bound twice"
        );
    }

    /// Create a label already bound to the current address.
    pub fn bound_label(&mut self) -> Label {
        let l = self.label();
        self.bind(l);
        l
    }

    /// Emit a raw 32-bit word (instruction or data).
    pub fn raw32(&mut self, w: u32) {
        self.buf.extend_from_slice(&w.to_le_bytes());
    }

    /// Emit a raw 16-bit compressed instruction.
    pub fn raw16(&mut self, w: u16) {
        self.buf.extend_from_slice(&w.to_le_bytes());
    }

    /// Emit `c.addi rd, imm` (compressed; imm in -32..32, nonzero rd).
    ///
    /// # Panics
    ///
    /// Panics when the operands do not fit the compressed encoding.
    pub fn c_addi(&mut self, rd: u8, imm: i64) {
        assert!(rd != 0 && (-32..32).contains(&imm), "c.addi operand range");
        let imm = imm as u16 & 0x3f;
        self.raw16(0x0001 | ((imm >> 5) << 12) | ((rd as u16) << 7) | ((imm & 0x1f) << 2));
    }

    /// Emit `c.li rd, imm` (compressed).
    ///
    /// # Panics
    ///
    /// Panics when the operands do not fit the compressed encoding.
    pub fn c_li(&mut self, rd: u8, imm: i64) {
        assert!(rd != 0 && (-32..32).contains(&imm), "c.li operand range");
        let imm = imm as u16 & 0x3f;
        self.raw16(0x4001 | ((imm >> 5) << 12) | ((rd as u16) << 7) | ((imm & 0x1f) << 2));
    }

    /// Emit `c.mv rd, rs` (compressed).
    ///
    /// # Panics
    ///
    /// Panics when rd or rs is x0.
    pub fn c_mv(&mut self, rd: u8, rs: u8) {
        assert!(rd != 0 && rs != 0, "c.mv needs nonzero registers");
        self.raw16(0x8002 | ((rd as u16) << 7) | ((rs as u16) << 2));
    }

    /// Emit `c.nop` (compressed).
    pub fn c_nop(&mut self) {
        self.raw16(0x0001);
    }

    /// Encode and emit one instruction.
    ///
    /// # Panics
    ///
    /// Panics, naming the mnemonic and the operands, when a register index
    /// or the immediate does not fit the instruction's shape.
    fn emit(&mut self, d: DecodedInst) {
        let raw = encode(&d).unwrap_or_else(|| {
            panic!(
                "cannot encode `{}`: operand out of range (rd={} rs1={} rs2={} rs3={} imm={})",
                mnemonic(d.op),
                d.rd,
                d.rs1,
                d.rs2,
                d.rs3,
                d.imm
            )
        });
        self.raw32(raw);
    }

    fn emit_op(&mut self, op: Op, rd: u8, rs1: u8, rs2: u8, rs3: u8, imm: i64) {
        self.emit(DecodedInst {
            op,
            rd,
            rs1,
            rs2,
            rs3,
            imm,
            ..Default::default()
        });
    }

    /// Emit a floating-point operation with rounding mode `rm` (ignored by
    /// operations that have none).
    fn emit_fp(&mut self, op: Op, rd: u8, rs1: u8, rs2: u8, rs3: u8, rm: u8) {
        self.emit(DecodedInst {
            op,
            rd,
            rs1,
            rs2,
            rs3,
            rm,
            ..Default::default()
        });
    }

    rrr! {
        add => Add, sub => Sub, sll => Sll, slt => Slt, sltu => Sltu, xor => Xor,
        srl => Srl, sra => Sra, or => Or, and => And,
        addw => Addw, subw => Subw, sllw => Sllw, srlw => Srlw, sraw => Sraw,
        mul => Mul, mulh => Mulh, mulhu => Mulhu, mulhsu => Mulhsu,
        div => Div, divu => Divu, rem => Rem, remu => Remu,
        mulw => Mulw, divw => Divw, divuw => Divuw, remw => Remw, remuw => Remuw,
        sh1add => Sh1add, sh2add => Sh2add, sh3add => Sh3add, add_uw => AddUw,
        andn => Andn, orn => Orn, xnor => Xnor,
        max => Max, min => Min, maxu => Maxu, minu => Minu,
        rol => Rol, ror => Ror,
    }

    rri! {
        addi => Addi, slti => Slti, sltiu => Sltiu, xori => Xori, ori => Ori, andi => Andi,
        slli => Slli, srli => Srli, srai => Srai,
        addiw => Addiw, slliw => Slliw, srliw => Srliw, sraiw => Sraiw,
        rori => Rori, slli_uw => SlliUw,
        jalr => Jalr,
    }

    /// Emit `lb rd, imm(rs1)`.
    pub fn lb(&mut self, rd: u8, imm: i64, rs1: u8) {
        self.emit_op(Op::Lb, rd, rs1, 0, 0, imm);
    }
    /// Emit `lh rd, imm(rs1)`.
    pub fn lh(&mut self, rd: u8, imm: i64, rs1: u8) {
        self.emit_op(Op::Lh, rd, rs1, 0, 0, imm);
    }
    /// Emit `lw rd, imm(rs1)`.
    pub fn lw(&mut self, rd: u8, imm: i64, rs1: u8) {
        self.emit_op(Op::Lw, rd, rs1, 0, 0, imm);
    }
    /// Emit `ld rd, imm(rs1)`.
    pub fn ld(&mut self, rd: u8, imm: i64, rs1: u8) {
        self.emit_op(Op::Ld, rd, rs1, 0, 0, imm);
    }
    /// Emit `lbu rd, imm(rs1)`.
    pub fn lbu(&mut self, rd: u8, imm: i64, rs1: u8) {
        self.emit_op(Op::Lbu, rd, rs1, 0, 0, imm);
    }
    /// Emit `lhu rd, imm(rs1)`.
    pub fn lhu(&mut self, rd: u8, imm: i64, rs1: u8) {
        self.emit_op(Op::Lhu, rd, rs1, 0, 0, imm);
    }
    /// Emit `lwu rd, imm(rs1)`.
    pub fn lwu(&mut self, rd: u8, imm: i64, rs1: u8) {
        self.emit_op(Op::Lwu, rd, rs1, 0, 0, imm);
    }

    rr! {
        clz => Clz, ctz => Ctz, cpop => Cpop, sext_b => SextB, sext_h => SextH,
        zext_h => ZextH, orc_b => OrcB, rev8 => Rev8,
    }

    branches! {
        beq => Beq, bne => Bne, blt => Blt, bge => Bge, bltu => Bltu, bgeu => Bgeu,
    }

    fp3! {
        fadd_s => FaddS, fsub_s => FsubS, fmul_s => FmulS, fdiv_s => FdivS,
        fadd_d => FaddD, fsub_d => FsubD, fmul_d => FmulD, fdiv_d => FdivD,
        fsgnj_d => FsgnjD, fsgnjn_d => FsgnjnD, fsgnjx_d => FsgnjxD,
        fmin_d => FminD, fmax_d => FmaxD,
        feq_d => FeqD, flt_d => FltD, fle_d => FleD,
    }

    fp4! {
        fmadd_d => FmaddD, fmsub_d => FmsubD, fnmsub_d => FnmsubD, fnmadd_d => FnmaddD,
        fmadd_s => FmaddS,
    }

    /// Emit `sb rs2, imm(rs1)`.
    pub fn sb(&mut self, rs2: u8, imm: i64, rs1: u8) {
        self.emit_op(Op::Sb, 0, rs1, rs2, 0, imm);
    }
    /// Emit `sh rs2, imm(rs1)`.
    pub fn sh(&mut self, rs2: u8, imm: i64, rs1: u8) {
        self.emit_op(Op::Sh, 0, rs1, rs2, 0, imm);
    }
    /// Emit `sw rs2, imm(rs1)`.
    pub fn sw(&mut self, rs2: u8, imm: i64, rs1: u8) {
        self.emit_op(Op::Sw, 0, rs1, rs2, 0, imm);
    }
    /// Emit `sd rs2, imm(rs1)`.
    pub fn sd(&mut self, rs2: u8, imm: i64, rs1: u8) {
        self.emit_op(Op::Sd, 0, rs1, rs2, 0, imm);
    }
    /// Emit `fld rd, imm(rs1)`.
    pub fn fld(&mut self, rd: u8, imm: i64, rs1: u8) {
        self.emit_op(Op::Fld, rd, rs1, 0, 0, imm);
    }
    /// Emit `fsd rs2, imm(rs1)`.
    pub fn fsd(&mut self, rs2: u8, imm: i64, rs1: u8) {
        self.emit_op(Op::Fsd, 0, rs1, rs2, 0, imm);
    }
    /// Emit `flw rd, imm(rs1)`.
    pub fn flw(&mut self, rd: u8, imm: i64, rs1: u8) {
        self.emit_op(Op::Flw, rd, rs1, 0, 0, imm);
    }
    /// Emit `fsw rs2, imm(rs1)`.
    pub fn fsw(&mut self, rs2: u8, imm: i64, rs1: u8) {
        self.emit_op(Op::Fsw, 0, rs1, rs2, 0, imm);
    }
    /// Emit `fcvt.d.l rd, rs1`.
    pub fn fcvt_d_l(&mut self, rd: u8, rs1: u8) {
        self.emit_op(Op::FcvtDL, rd, rs1, 0, 0, 0);
    }
    /// Emit `fcvt.l.d rd, rs1` with round-to-zero, as compilers emit for casts.
    pub fn fcvt_l_d(&mut self, rd: u8, rs1: u8) {
        self.emit_fp(Op::FcvtLD, rd, rs1, 0, 0, 1);
    }
    /// Emit `fmv_d_x rd, rs1`.
    pub fn fmv_d_x(&mut self, rd: u8, rs1: u8) {
        self.emit_op(Op::FmvDX, rd, rs1, 0, 0, 0);
    }
    /// Emit `fmv_x_d rd, rs1`.
    pub fn fmv_x_d(&mut self, rd: u8, rs1: u8) {
        self.emit_op(Op::FmvXD, rd, rs1, 0, 0, 0);
    }
    /// Emit `fsqrt.d rd, rs1`.
    pub fn fsqrt_d(&mut self, rd: u8, rs1: u8) {
        self.emit_fp(Op::FsqrtD, rd, rs1, 0, 0, RM_DYN);
    }

    /// Emit `lui rd, imm20` (imm is the already-shifted 32-bit value).
    pub fn lui(&mut self, rd: u8, imm: i64) {
        self.emit_op(Op::Lui, rd, 0, 0, 0, imm);
    }
    /// Emit `auipc rd, imm20`.
    pub fn auipc(&mut self, rd: u8, imm: i64) {
        self.emit_op(Op::Auipc, rd, 0, 0, 0, imm);
    }
    /// Emit `jal rd, label`.
    pub fn jal(&mut self, rd: u8, target: Label) {
        self.fixups.push(Fixup {
            offset: self.buf.len(),
            label: target,
            kind: FixKind::Jal,
        });
        self.emit_op(Op::Jal, rd, 0, 0, 0, 0);
    }
    /// Emit `ecall`.
    pub fn ecall(&mut self) {
        self.emit_op(Op::Ecall, 0, 0, 0, 0, 0);
    }
    /// Emit `ebreak`.
    pub fn ebreak(&mut self) {
        self.emit_op(Op::Ebreak, 0, 0, 0, 0, 0);
    }
    /// Emit `fence`.
    pub fn fence(&mut self) {
        self.emit_op(Op::Fence, 0, 0, 0, 0, 0);
    }
    /// Emit `fence.i`.
    pub fn fence_i(&mut self) {
        self.emit_op(Op::FenceI, 0, 0, 0, 0, 0);
    }
    /// Emit `sfence.vma rs1, rs2`.
    pub fn sfence_vma(&mut self, rs1: u8, rs2: u8) {
        self.emit_op(Op::SfenceVma, 0, rs1, rs2, 0, 0);
    }
    /// Emit `mret`.
    pub fn mret(&mut self) {
        self.emit_op(Op::Mret, 0, 0, 0, 0, 0);
    }
    /// Emit `sret`.
    pub fn sret(&mut self) {
        self.emit_op(Op::Sret, 0, 0, 0, 0, 0);
    }
    /// Emit `csrrw rd, csr, rs1`.
    pub fn csrrw(&mut self, rd: u8, csr: u16, rs1: u8) {
        self.emit_op(Op::Csrrw, rd, rs1, 0, 0, csr as i64);
    }
    /// Emit `csrrs rd, csr, rs1`.
    pub fn csrrs(&mut self, rd: u8, csr: u16, rs1: u8) {
        self.emit_op(Op::Csrrs, rd, rs1, 0, 0, csr as i64);
    }
    /// Emit `csrrc rd, csr, rs1`.
    pub fn csrrc(&mut self, rd: u8, csr: u16, rs1: u8) {
        self.emit_op(Op::Csrrc, rd, rs1, 0, 0, csr as i64);
    }
    /// Emit `csrrwi rd, csr, zimm`.
    pub fn csrrwi(&mut self, rd: u8, csr: u16, zimm: u8) {
        self.emit_op(Op::Csrrwi, rd, zimm, 0, 0, csr as i64);
    }
    /// Emit `lr.d rd, (rs1)`.
    pub fn lr_d(&mut self, rd: u8, rs1: u8) {
        self.emit_op(Op::LrD, rd, rs1, 0, 0, 0);
    }
    /// Emit `sc.d rd, rs2, (rs1)`.
    pub fn sc_d(&mut self, rd: u8, rs2: u8, rs1: u8) {
        self.emit_op(Op::ScD, rd, rs1, rs2, 0, 0);
    }
    /// Emit `lr.w rd, (rs1)`.
    pub fn lr_w(&mut self, rd: u8, rs1: u8) {
        self.emit_op(Op::LrW, rd, rs1, 0, 0, 0);
    }
    /// Emit `sc.w rd, rs2, (rs1)`.
    pub fn sc_w(&mut self, rd: u8, rs2: u8, rs1: u8) {
        self.emit_op(Op::ScW, rd, rs1, rs2, 0, 0);
    }
    /// Emit `amoadd.d rd, rs2, (rs1)`.
    pub fn amoadd_d(&mut self, rd: u8, rs2: u8, rs1: u8) {
        self.emit_op(Op::AmoaddD, rd, rs1, rs2, 0, 0);
    }
    /// Emit `amoswap.w rd, rs2, (rs1)`.
    pub fn amoswap_w(&mut self, rd: u8, rs2: u8, rs1: u8) {
        self.emit_op(Op::AmoswapW, rd, rs1, rs2, 0, 0);
    }
    /// Emit `amoadd.w rd, rs2, (rs1)`.
    pub fn amoadd_w(&mut self, rd: u8, rs2: u8, rs1: u8) {
        self.emit_op(Op::AmoaddW, rd, rs1, rs2, 0, 0);
    }

    // ----- pseudo-instructions -----

    /// `nop`.
    pub fn nop(&mut self) {
        self.addi(reg::ZERO, reg::ZERO, 0);
    }
    /// `mv rd, rs`.
    pub fn mv(&mut self, rd: u8, rs: u8) {
        self.addi(rd, rs, 0);
    }
    /// `neg rd, rs`.
    pub fn neg(&mut self, rd: u8, rs: u8) {
        self.sub(rd, reg::ZERO, rs);
    }
    /// `not rd, rs`.
    pub fn not(&mut self, rd: u8, rs: u8) {
        self.xori(rd, rs, -1);
    }
    /// `j label`.
    pub fn j(&mut self, target: Label) {
        self.jal(reg::ZERO, target);
    }
    /// `ret`.
    pub fn ret(&mut self) {
        self.jalr(reg::ZERO, reg::RA, 0);
    }
    /// `call label` (jal ra, label).
    pub fn call(&mut self, target: Label) {
        self.jal(reg::RA, target);
    }
    /// `beqz rs, label`.
    pub fn beqz(&mut self, rs: u8, target: Label) {
        self.beq(rs, reg::ZERO, target);
    }
    /// `bnez rs, label`.
    pub fn bnez(&mut self, rs: u8, target: Label) {
        self.bne(rs, reg::ZERO, target);
    }

    /// Materialize an arbitrary 64-bit constant into `rd`.
    pub fn li(&mut self, rd: u8, imm: i64) {
        if (-2048..2048).contains(&imm) {
            self.addi(rd, reg::ZERO, imm);
        } else if imm >= i32::MIN as i64 && imm <= i32::MAX as i64 {
            let low = (imm << 52) >> 52; // sign-extended low 12
            let high = imm.wrapping_sub(low);
            self.lui(rd, high & 0xffff_f000);
            if low != 0 {
                self.addiw(rd, rd, low);
            }
        } else {
            let low = (imm << 52) >> 52;
            let rest = imm.wrapping_sub(low) >> 12;
            self.li(rd, rest);
            self.slli(rd, rd, 12);
            if low != 0 {
                self.addi(rd, rd, low);
            }
        }
    }

    /// Load the absolute address of a label into `rd` (auipc+addi pair).
    pub fn la(&mut self, rd: u8, target: Label) {
        self.fixups.push(Fixup {
            offset: self.buf.len(),
            label: target,
            kind: FixKind::AuipcPair,
        });
        self.auipc(rd, 0);
        self.addi(rd, rd, 0);
    }

    // ----- data directives -----

    /// Align to a power-of-two boundary with zero fill.
    pub fn align(&mut self, pow2: u64) {
        let mask = (1u64 << pow2) - 1;
        while self.here() & mask != 0 {
            self.buf.push(0);
        }
    }
    /// Emit a 32-bit little-endian datum.
    pub fn data_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Emit a 64-bit little-endian datum.
    pub fn data_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Emit a 64-bit absolute address of a label.
    pub fn data_addr(&mut self, target: Label) {
        self.fixups.push(Fixup {
            offset: self.buf.len(),
            label: target,
            kind: FixKind::Abs64,
        });
        self.data_u64(0);
    }
    /// Emit `n` zero bytes.
    pub fn zeros(&mut self, n: usize) {
        self.buf.resize(self.buf.len() + n, 0);
    }

    /// Resolve fixups and return the final image.
    ///
    /// # Panics
    ///
    /// Panics on unbound labels or out-of-range branch displacements.
    pub fn assemble(mut self) -> Program {
        for fix in std::mem::take(&mut self.fixups) {
            let target = self.labels[fix.label.0].expect("unbound label");
            let at = self.base + fix.offset as u64;
            match fix.kind {
                FixKind::Branch | FixKind::Jal => {
                    let disp = target.wrapping_sub(at) as i64;
                    let limit = if matches!(fix.kind, FixKind::Branch) {
                        4096
                    } else {
                        1 << 20
                    };
                    assert!(
                        (-limit..limit).contains(&disp),
                        "branch displacement {disp} out of range"
                    );
                    let raw = self.read32(fix.offset);
                    let mut d = crate::decode::decode32(raw);
                    d.imm = disp;
                    self.write32(fix.offset, encode(&d).expect("refix encodes"));
                }
                FixKind::AuipcPair => {
                    let disp = target.wrapping_sub(at) as i64;
                    let low = (disp << 52) >> 52;
                    let high = disp.wrapping_sub(low);
                    let raw = self.read32(fix.offset);
                    let mut d = crate::decode::decode32(raw);
                    d.imm = high;
                    self.write32(fix.offset, encode(&d).expect("auipc encodes"));
                    let raw = self.read32(fix.offset + 4);
                    let mut d = crate::decode::decode32(raw);
                    d.imm = low;
                    self.write32(fix.offset + 4, encode(&d).expect("addi encodes"));
                }
                FixKind::Abs64 => {
                    self.buf[fix.offset..fix.offset + 8].copy_from_slice(&target.to_le_bytes());
                }
            }
        }
        Program {
            base: self.base,
            entry: self.base,
            bytes: self.buf,
        }
    }

    fn read32(&self, off: usize) -> u32 {
        u32::from_le_bytes(self.buf[off..off + 4].try_into().unwrap())
    }

    fn write32(&mut self, off: usize, v: u32) {
        self.buf[off..off + 4].copy_from_slice(&v.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::reg::*;
    use super::*;
    use crate::decode::decode32;
    use crate::op::Op;

    fn words(p: &Program) -> Vec<u32> {
        p.bytes
            .chunks(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect()
    }

    #[test]
    fn forward_and_backward_branches() {
        let mut a = Asm::new(0x1000);
        let fwd = a.label();
        let back = a.bound_label();
        a.addi(T0, T0, 1); // 0x1000
        a.bne(T0, T1, fwd); // 0x1004 -> 0x100c
        a.j(back); // 0x1008 -> 0x1000
        a.bind(fwd);
        a.ebreak(); // 0x100c
        let p = a.assemble();
        let w = words(&p);
        let bne = decode32(w[1]);
        assert_eq!((bne.op, bne.imm), (Op::Bne, 8));
        let j = decode32(w[2]);
        assert_eq!((j.op, j.imm), (Op::Jal, -8));
    }

    #[test]
    fn li_materializes_any_constant() {
        use crate::exec::int_compute;
        use crate::op::Op as O;
        for imm in [
            0i64,
            1,
            -1,
            2047,
            -2048,
            2048,
            0x1234,
            -0x1234,
            0x7fff_ffff,
            -0x8000_0000,
            0x1_0000_0000,
            0x1234_5678_9abc_def0,
            i64::MIN,
            i64::MAX,
        ] {
            let mut a = Asm::new(0);
            a.li(T0, imm);
            let p = a.assemble();
            // Interpret the li sequence directly.
            let mut regs = [0u64; 32];
            for w in words(&p) {
                let d = decode32(w);
                let aval = regs[d.rs1 as usize];
                let v = match d.op {
                    O::Lui => d.imm as u64,
                    _ => int_compute(d.op, aval, d.imm as u64).unwrap(),
                };
                regs[d.rd as usize] = v;
            }
            assert_eq!(regs[T0 as usize], imm as u64, "li {imm:#x}");
        }
    }

    #[test]
    fn la_resolves_absolute_address() {
        let mut a = Asm::new(0x8000_0000);
        let data = a.label();
        a.la(T0, data);
        a.ebreak();
        a.align(3);
        a.bind(data);
        a.data_u64(0x1122);
        let p = a.assemble();
        let w = words(&p);
        let auipc = decode32(w[0]);
        let addi = decode32(w[1]);
        assert_eq!(auipc.op, Op::Auipc);
        let resolved = 0x8000_0000u64
            .wrapping_add(auipc.imm as u64)
            .wrapping_add(addi.imm as u64);
        assert_eq!(resolved, 0x8000_0010);
    }

    #[test]
    fn data_directives() {
        let mut a = Asm::new(0);
        let l = a.label();
        a.data_u32(7);
        a.align(3);
        a.bind(l);
        a.data_addr(l);
        a.zeros(3);
        let p = a.assemble();
        assert_eq!(p.bytes.len(), 8 + 8 + 3);
        assert_eq!(
            u64::from_le_bytes(p.bytes[8..16].try_into().unwrap()),
            8,
            "label address stored"
        );
    }

    /// One emitter per immediate-carrying shape: its last operand that fits
    /// assembles and decodes back, the first that does not is refused by
    /// name — never masked into a different instruction.
    #[test]
    fn out_of_range_operands_panic_by_name() {
        type Emit = fn(&mut Asm, i64);
        let cases: [(&str, Emit, i64, i64); 13] = [
            ("addi", |a, i| a.addi(T0, T1, i), 2047, 2048),
            ("addi", |a, i| a.addi(T0, T1, i), -2048, -2049),
            ("andi", |a, i| a.andi(T0, T1, i), -1, 0xfff),
            ("ld", |a, i| a.ld(T0, i, T1), 2047, 2048),
            ("fld", |a, i| a.fld(FT0, i, T1), 2047, 2048),
            ("sd", |a, i| a.sd(T0, i, T1), -2048, -2049),
            ("fsd", |a, i| a.fsd(FT0, i, T1), -2048, -2049),
            ("slli", |a, i| a.slli(T0, T1, i), 63, 64),
            ("slliw", |a, i| a.slliw(T0, T1, i), 31, 32),
            ("csrrw", |a, i| a.csrrw(T0, i as u16, T1), 4095, 4096),
            ("csrrwi", |a, i| a.csrrwi(T0, 0x300, i as u8), 31, 32),
            ("lui", |a, i| a.lui(T0, i), 0xffff_f000, 0x1_0000_0000),
            ("auipc", |a, i| a.auipc(T0, i), -0x8000_0000, 0x800),
        ];
        for (name, emit, fits, too_far) in cases {
            let mut a = Asm::new(0);
            emit(&mut a, fits);
            let d = decode32(words(&a.assemble())[0]);
            let got = if name == "csrrwi" {
                d.rs1 as i64
            } else {
                d.imm
            };
            assert_eq!(
                (mnemonic(d.op), got),
                (name, fits as i32 as i64),
                "{name} {fits}"
            );

            let refused = std::panic::catch_unwind(|| emit(&mut Asm::new(0), too_far));
            let msg = *refused
                .expect_err("must be refused")
                .downcast::<String>()
                .unwrap();
            assert!(
                msg.contains(&format!("`{name}`")),
                "{name} {too_far}: {msg}"
            );
            assert!(
                msg.contains(&too_far.to_string()),
                "{name} {too_far}: {msg}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "unbound label")]
    fn unbound_label_panics() {
        let mut a = Asm::new(0);
        let l = a.label();
        a.j(l);
        let _ = a.assemble();
    }

    #[test]
    fn program_loads_into_memory() {
        use crate::mem::{PhysMem, SparseMemory};
        let mut a = Asm::new(0x8000_0000);
        a.nop();
        let p = a.assemble();
        let mut m = SparseMemory::new();
        p.load_into(&mut m);
        assert_eq!(m.fetch32(0x8000_0000), 0x0000_0013);
    }
}
