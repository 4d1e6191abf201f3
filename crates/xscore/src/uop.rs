//! Micro-operations, macro-op fusion, and commit events (the probe
//! payloads the design exposes to DiffTest, paper §III-B3).

use crate::bpu::BranchPrediction;
use riscv_isa::exec::int_compute;
use riscv_isa::op::{DecodedInst, Op, RegFile};
use riscv_isa::trap::{Exception, Trap};
use serde::{Deserialize, Serialize};

/// A register source operand: class (fp?) and architectural index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SrcReg {
    /// Floating-point register class.
    pub fp: bool,
    /// Architectural register index.
    pub idx: u8,
}

/// A decoded (possibly fused) micro-operation flowing down the pipeline:
/// built once, at predecode, and copied once, into its ROB slot. The
/// branch prediction of a control-flow uop travels beside it (in the
/// `ibuf` entry, then in [`crate::rob::Rob::pred`]), not inside.
#[derive(Debug, Clone, Copy)]
pub struct Uop {
    /// PC of the (first) instruction.
    pub pc: u64,
    /// The (first) instruction.
    pub inst: DecodedInst,
    /// Second instruction of a fused macro-op pair.
    pub fused: Option<DecodedInst>,
    /// Predicted next PC (what fetch continued with).
    pub predicted_npc: u64,
    /// Source registers (up to 3).
    pub srcs: [Option<SrcReg>; 3],
    /// Destination register, if any.
    pub dest: Option<SrcReg>,
}

// What moving any uop costs: a control-flow uop's 64-byte prediction stays out.
const _: () = assert!(std::mem::size_of::<Uop>() <= 80);

impl Uop {
    /// Build a uop from one decoded instruction.
    ///
    /// Source slots are positional — `srcs[0]` is rs1, `srcs[1]` rs2,
    /// `srcs[2]` rs3 — with `None` for an unused operand or the integer
    /// zero register. Everything downstream (rename, wakeup, execute)
    /// relies on the position, so an x0 operand must leave a hole, not
    /// compact the array: `sltu rd, x0, rs2` reads its one source as
    /// operand *two*.
    pub fn new(pc: u64, inst: DecodedInst, npc: u64) -> Self {
        let [rd, rs1, rs2, rs3] = inst.op.shape().regs();
        Uop {
            pc,
            inst,
            fused: None,
            predicted_npc: npc,
            srcs: [
                operand(rs1, inst.rs1),
                operand(rs2, inst.rs2),
                operand(rs3, inst.rs3),
            ],
            dest: operand(rd, inst.rd),
        }
    }

    /// Total encoded length in bytes (covers fused pairs).
    pub fn byte_len(&self) -> u64 {
        self.inst.len as u64 + self.fused.map_or(0, |f| f.len as u64)
    }

    /// Architectural next PC for sequential flow.
    pub fn fallthrough(&self) -> u64 {
        self.pc + self.byte_len()
    }

    /// True for a register-move eligible for move elimination:
    /// `addi rd, rs, 0` / `add rd, rs, x0` with integer registers.
    pub fn is_reg_move(&self) -> bool {
        self.fused.is_none() && is_reg_move(&self.inst)
    }

    /// The moved-from source of a register move.
    pub fn move_src(&self) -> u8 {
        debug_assert!(self.is_reg_move());
        if self.inst.op == Op::Add && self.inst.rs1 == 0 {
            self.inst.rs2
        } else {
            self.inst.rs1
        }
    }
}

/// A predecoded instruction in the `ibuf`, the latch between the frontend
/// (which pushes) and rename (which pops): the uop as its ROB slot will
/// hold it, and what rename peels off.
#[derive(Debug, Clone)]
pub(crate) struct PreUop {
    pub uop: Uop,
    /// Branch prediction attached at fetch (control flow only).
    pub pred: Option<BranchPrediction>,
    /// A fetch fault standing in for the instruction: (cause, tval).
    pub fault: Option<(Exception, u64)>,
    /// Cycle the instruction entered the ibuf (lifecycle fetch stamp).
    pub fetched_at: u64,
}

/// The register an operand field names, given the file its instruction's
/// shape puts it in: `None` for a field the shape does not use and for
/// the integer zero register, which is never renamed.
fn operand(file: Option<RegFile>, idx: u8) -> Option<SrcReg> {
    match file? {
        RegFile::X if idx == 0 => None,
        file => Some(SrcReg {
            fp: file == RegFile::F,
            idx,
        }),
    }
}

/// The destination register of a single (unfused) instruction.
pub fn dest_of(d: &DecodedInst) -> Option<SrcReg> {
    operand(d.op.shape().regs()[0], d.rd)
}

/// Is the single instruction `d` a register move (see
/// [`Uop::is_reg_move`])?
pub fn is_reg_move(d: &DecodedInst) -> bool {
    match d.op {
        Op::Addi => d.imm == 0 && d.rd != 0 && d.rs1 != 0,
        Op::Add => d.rd != 0 && ((d.rs1 == 0) != (d.rs2 == 0)),
        _ => false,
    }
}

/// Try to fuse two consecutive decoded instructions into one macro-op
/// (paper §IV-A: "certain consecutive arithmetic instructions can be
/// fused into a single micro-operation").
///
/// Patterns (all require the second instruction to overwrite and consume
/// the first's destination):
///
/// - `lui rd, hi` + `addi rd, rd, lo` — load-immediate pair,
/// - `slli rd, rs1, {1,2,3}` + `add rd, rd, rs2` — shXadd shape,
/// - `slli rd, rs, 32` + `srli rd, rd, 32` — zero-extend word.
pub fn try_fuse(a: &DecodedInst, b: &DecodedInst) -> bool {
    if a.rd == 0 || a.rd != b.rd {
        return false;
    }
    match (a.op, b.op) {
        (Op::Lui, Op::Addi) => b.rs1 == a.rd,
        (Op::Slli, Op::Add) => {
            (1..=3).contains(&a.imm) && (b.rs1 == a.rd || b.rs2 == a.rd) && b.rs1 != b.rs2
        }
        (Op::Slli, Op::Srli) => a.imm == 32 && b.imm == 32 && b.rs1 == a.rd,
        _ => false,
    }
}

/// Execute a fused pair given the three possible source values
/// (`v_rs1_a`: first inst rs1; `v_other`: the second inst's non-chained
/// operand).
pub fn exec_fused(a: &DecodedInst, b: &DecodedInst, v_rs1_a: u64, v_other: u64) -> u64 {
    let mid = match a.op {
        Op::Lui => a.imm as u64,
        _ => int_compute(a.op, v_rs1_a, a.imm as u64).expect("fusible first op"),
    };
    match b.op {
        Op::Addi => int_compute(Op::Addi, mid, b.imm as u64).expect("addi"),
        Op::Srli => int_compute(Op::Srli, mid, b.imm as u64).expect("srli"),
        Op::Add => int_compute(Op::Add, mid, v_other).expect("add"),
        _ => unreachable!("non-fusible second op"),
    }
}

/// Build the fused uop from a pair of consecutive uops (assumes
/// [`try_fuse`] returned true for their instructions).
pub fn fuse(first: &Uop, second: &Uop) -> Uop {
    let (a, b) = (first.inst, second.inst);
    // Positional sources: slot 0 is a.rs1 (absent for lui), slot 1 is
    // b's non-chained operand — `exec_fused` reads them by position.
    let mut srcs = [None; 3];
    if a.op != Op::Lui && a.rs1 != 0 {
        srcs[0] = Some(SrcReg {
            fp: false,
            idx: a.rs1,
        });
    }
    if b.op == Op::Add {
        let other = if b.rs1 == a.rd { b.rs2 } else { b.rs1 };
        if other != 0 {
            srcs[1] = Some(SrcReg {
                fp: false,
                idx: other,
            });
        }
    }
    Uop {
        fused: Some(b),
        predicted_npc: second.predicted_npc,
        srcs,
        dest: Some(SrcReg {
            fp: false,
            idx: a.rd,
        }),
        ..*first
    }
}

/// Memory access details of a committed instruction (probe payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommitMem {
    /// Virtual address.
    pub vaddr: u64,
    /// Physical address.
    pub paddr: u64,
    /// Size in bytes.
    pub size: u64,
    /// Store?
    pub is_store: bool,
    /// Loaded value / stored data.
    pub value: u64,
    /// MMIO access (DiffTest skips value comparison).
    pub mmio: bool,
}

/// One committed instruction, as reported by the instruction-commit probe.
///
/// This mirrors the paper's per-instruction probe that is "instantiated
/// more than once in a superscalar processor": the commit stage emits up
/// to `commit_width` of these per cycle.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CommitEvent {
    /// Hart index.
    pub hart: usize,
    /// PC.
    pub pc: u64,
    /// The instruction.
    pub inst: DecodedInst,
    /// The second instruction of a fused pair, if any (the macro-fusion
    /// diff-rule steps the REF twice for these).
    pub fused: Option<DecodedInst>,
    /// Destination write (fp?, arch index, value).
    pub wb: Option<(bool, u8, u64)>,
    /// Memory access.
    pub mem: Option<CommitMem>,
    /// Trap taken by/instead of this instruction.
    pub trap: Option<Trap>,
    /// An SC that failed (including micro-architectural timeouts — the
    /// §III-B2c diff-rule source).
    pub sc_failed: bool,
    /// The hart halted at this instruction.
    pub halted: bool,
    /// Cycle of commit.
    pub cycle: u64,
}

/// A committed store leaving the store buffer for the cache hierarchy —
/// the event feeding DiffTest's Global Memory (paper §III-B2b).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SbufferDrainEvent {
    /// Hart index.
    pub hart: usize,
    /// Physical address.
    pub paddr: u64,
    /// Size in bytes.
    pub size: u64,
    /// Data written.
    pub data: u64,
    /// Cycle the store entered the cache hierarchy.
    pub cycle: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use riscv_isa::op::Op;

    fn di(op: Op, rd: u8, rs1: u8, rs2: u8, imm: i64) -> DecodedInst {
        DecodedInst {
            op,
            rd,
            rs1,
            rs2,
            imm,
            len: 4,
            ..Default::default()
        }
    }

    #[test]
    fn src_extraction() {
        let u = Uop::new(0, di(Op::Add, 3, 1, 2, 0), 4);
        assert_eq!(u.srcs[0], Some(SrcReg { fp: false, idx: 1 }));
        assert_eq!(u.srcs[1], Some(SrcReg { fp: false, idx: 2 }));
        assert_eq!(u.dest, Some(SrcReg { fp: false, idx: 3 }));

        let u = Uop::new(0, di(Op::Lui, 3, 0, 0, 0x1000), 4);
        assert_eq!(u.srcs[0], None, "lui has no register sources");

        let u = Uop::new(0, di(Op::Sd, 0, 2, 7, 8), 4);
        assert_eq!(u.srcs[0], Some(SrcReg { fp: false, idx: 2 }));
        assert_eq!(u.srcs[1], Some(SrcReg { fp: false, idx: 7 }));
        assert_eq!(u.dest, None);

        let fma = DecodedInst {
            op: Op::FmaddD,
            rd: 1,
            rs1: 2,
            rs2: 3,
            rs3: 4,
            len: 4,
            ..Default::default()
        };
        let u = Uop::new(0, fma, 4);
        assert_eq!(u.srcs[2], Some(SrcReg { fp: true, idx: 4 }));
        assert_eq!(u.dest, Some(SrcReg { fp: true, idx: 1 }));
    }

    /// Every operation: the sources and the destination are the registers
    /// its shape reads and writes, each in its own slot, and an integer
    /// `x0` leaves a hole where a floating-point `f0` does not.
    #[test]
    fn every_op_sources_and_dest_follow_its_shape() {
        for op in Op::ALL {
            let files = op.shape().regs();
            for idx in [[0u8; 4], [1, 2, 3, 4]] {
                let inst = DecodedInst {
                    op,
                    rd: idx[0],
                    rs1: idx[1],
                    rs2: idx[2],
                    rs3: idx[3],
                    len: 4,
                    ..Default::default()
                };
                let u = Uop::new(0, inst, 4);
                let slots = [u.dest, u.srcs[0], u.srcs[1], u.srcs[2]];
                for (slot, (file, idx)) in slots.into_iter().zip(files.into_iter().zip(idx)) {
                    let want = match file {
                        Some(RegFile::F) => Some(SrcReg { fp: true, idx }),
                        Some(RegFile::X) if idx != 0 => Some(SrcReg { fp: false, idx }),
                        _ => None,
                    };
                    assert_eq!(slot, want, "{op:?} {idx}");
                }
                assert_eq!(
                    u.dest.is_some(),
                    inst.writes_fpr() || inst.writes_gpr(),
                    "{op:?}"
                );
                assert_eq!(u.dest, dest_of(&inst));
            }
        }
        // `sltu rd, x0, rs2` reads its one source as operand two.
        let u = Uop::new(0, di(Op::Sltu, 3, 0, 7, 0), 4);
        assert_eq!(u.srcs, [None, Some(SrcReg { fp: false, idx: 7 }), None]);
    }

    #[test]
    fn move_detection() {
        assert!(Uop::new(0, di(Op::Addi, 3, 5, 0, 0), 4).is_reg_move());
        assert!(!Uop::new(0, di(Op::Addi, 3, 5, 0, 1), 4).is_reg_move());
        assert!(!Uop::new(0, di(Op::Addi, 0, 5, 0, 0), 4).is_reg_move());
        let mv = Uop::new(0, di(Op::Add, 3, 0, 5, 0), 4);
        assert!(mv.is_reg_move());
        assert_eq!(mv.move_src(), 5);
    }

    #[test]
    fn fusion_patterns() {
        let lui = di(Op::Lui, 5, 0, 0, 0x12345000);
        let addi = di(Op::Addi, 5, 5, 0, 0x678);
        assert!(try_fuse(&lui, &addi));
        assert_eq!(exec_fused(&lui, &addi, 0, 0), 0x12345678);

        let slli = di(Op::Slli, 6, 7, 0, 2);
        let add = di(Op::Add, 6, 6, 8, 0);
        assert!(try_fuse(&slli, &add));
        assert_eq!(exec_fused(&slli, &add, 3, 100), 112); // (3<<2)+100

        let slli32 = di(Op::Slli, 6, 7, 0, 32);
        let srli32 = di(Op::Srli, 6, 6, 0, 32);
        assert!(try_fuse(&slli32, &srli32));
        assert_eq!(
            exec_fused(&slli32, &srli32, 0xdead_beef_1234_5678, 0),
            0x1234_5678
        );
    }

    #[test]
    fn fusion_rejects_broken_chains() {
        let lui = di(Op::Lui, 5, 0, 0, 0x1000);
        let addi_other = di(Op::Addi, 6, 5, 0, 1); // different rd
        assert!(!try_fuse(&lui, &addi_other));
        let addi_nonchain = di(Op::Addi, 5, 4, 0, 1); // doesn't consume rd
        assert!(!try_fuse(&lui, &addi_nonchain));
        let slli4 = di(Op::Slli, 5, 7, 0, 4); // shift too large for shXadd
        let add = di(Op::Add, 5, 5, 8, 0);
        assert!(!try_fuse(&slli4, &add));
    }

    #[test]
    fn fused_uop_sources() {
        let slli = di(Op::Slli, 6, 7, 0, 2);
        let add = di(Op::Add, 6, 6, 8, 0);
        let u = fuse(&Uop::new(0x100, slli, 0x104), &Uop::new(0x104, add, 0x108));
        assert_eq!((u.byte_len(), u.predicted_npc), (8, 0x108));
        assert_eq!(u.srcs[0], Some(SrcReg { fp: false, idx: 7 }));
        assert_eq!(u.srcs[1], Some(SrcReg { fp: false, idx: 8 }));
        assert_eq!(u.dest, Some(SrcReg { fp: false, idx: 6 }));
    }
}
