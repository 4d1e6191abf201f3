//! The composite branch prediction unit: micro-BTB, main BTB, TAGE-SC,
//! ITTAGE (NH only), and the return address stack.
//!
//! The BPU runs decoupled from the IFU (paper §IV-A): it produces fetch
//! targets ahead of fetch. Direction comes from TAGE-SC, return targets
//! from the RAS, indirect targets from ITTAGE (falling back to the BTB),
//! and the micro-BTB's only job is to make taken redirects zero-bubble
//! when it hits.

use crate::tage::{TagePred, TageSc};
use riscv_isa::op::{DecodedInst, Op};
use std::sync::Arc;

/// The kind of control transfer at the end of a predicted block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CfKind {
    /// Conditional branch.
    Branch,
    /// Direct jump (jal), not a call.
    Jump,
    /// Function call (jal/jalr with rd == ra).
    Call,
    /// Function return (jalr ra).
    Ret,
    /// Other indirect jump.
    Indirect,
}

/// Classify a control-flow instruction.
pub fn cf_kind(d: &DecodedInst) -> Option<CfKind> {
    match d.op {
        Op::Beq | Op::Bne | Op::Blt | Op::Bge | Op::Bltu | Op::Bgeu => Some(CfKind::Branch),
        Op::Jal => Some(if d.rd == 1 {
            CfKind::Call
        } else {
            CfKind::Jump
        }),
        Op::Jalr => Some(if d.rd == 1 {
            CfKind::Call
        } else if d.rs1 == 1 && d.rd == 0 {
            CfKind::Ret
        } else {
            CfKind::Indirect
        }),
        _ => None,
    }
}

/// Prediction for one control-flow instruction.
#[derive(Debug, Clone, PartialEq)]
pub struct BranchPrediction {
    /// Predicted taken (always true for jumps).
    pub taken: bool,
    /// Predicted target when taken.
    pub target: u64,
    /// TAGE metadata (conditional branches only).
    pub tage: Option<TagePred>,
    /// Whether the target came from the micro-BTB (zero-bubble redirect).
    pub ubtb_hit: bool,
    /// Confidence is low (drives PUBS).
    pub low_confidence: bool,
    /// RAS snapshot for recovery: the whole stack, shared with every
    /// other prediction made while the stack did not change.
    pub ras_snapshot: Arc<Vec<u64>>,
    /// Global history before this branch (for recovery).
    pub ghist_before: u64,
}

#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct BtbEntry {
    pc: u64,
    target: u64,
    valid: bool,
}

/// The composite BPU.
#[derive(Debug, Clone, PartialEq)]
pub struct Bpu {
    /// Direction predictor.
    pub tage: TageSc,
    ubtb: Vec<BtbEntry>,
    btb: Vec<BtbEntry>,
    ittage: Option<Vec<BtbEntry>>, // tagged target tables folded into one
    /// Copy-on-write: predictions hold references to the stack as it
    /// was, so only a call or return that finds it shared copies it.
    ras: Arc<Vec<u64>>,
    ras_depth: usize,
    /// Speculative global history (restored on mispredict).
    pub ghist: u64,
    /// Statistics: conditional branch predictions.
    pub cond_predictions: u64,
    /// Statistics: conditional branch mispredictions.
    pub cond_mispredictions: u64,
    /// Statistics: indirect target mispredictions.
    pub indirect_mispredictions: u64,
}

impl Bpu {
    /// Build a BPU from the configuration knobs.
    pub fn new(
        ubtb_entries: usize,
        btb_entries: usize,
        tage_entries: usize,
        ittage: bool,
        ras_depth: usize,
    ) -> Self {
        Bpu {
            tage: TageSc::new(tage_entries),
            ubtb: vec![BtbEntry::default(); ubtb_entries.next_power_of_two()],
            btb: vec![BtbEntry::default(); btb_entries.next_power_of_two()],
            ittage: ittage.then(|| vec![BtbEntry::default(); 2048]),
            ras: Arc::default(),
            ras_depth,
            ghist: 0,
            cond_predictions: 0,
            cond_mispredictions: 0,
            indirect_mispredictions: 0,
        }
    }

    fn btb_idx(table: &[BtbEntry], pc: u64) -> usize {
        ((pc >> 1) as usize) & (table.len() - 1)
    }

    fn btb_lookup(table: &[BtbEntry], pc: u64) -> Option<u64> {
        let e = &table[Self::btb_idx(table, pc)];
        (e.valid && e.pc == pc).then_some(e.target)
    }

    fn btb_insert(table: &mut [BtbEntry], pc: u64, target: u64) {
        let i = Self::btb_idx(table, pc);
        table[i] = BtbEntry {
            pc,
            target,
            valid: true,
        };
    }

    /// Predict one control-flow instruction, speculatively updating
    /// history and the RAS.
    pub fn predict(&mut self, pc: u64, d: &DecodedInst) -> BranchPrediction {
        let kind = cf_kind(d).expect("predict called on a control-flow instruction");
        let ras_snapshot = self.ras.clone();
        let ghist_before = self.ghist;
        let fallthrough = pc.wrapping_add(d.len as u64);
        let mut tage_meta = None;
        let mut low_confidence = false;
        let (taken, target) = match kind {
            CfKind::Branch => {
                self.cond_predictions += 1;
                let p = self.tage.predict(pc, self.ghist);
                low_confidence = p.weak;
                let t = p.taken;
                tage_meta = Some(p);
                self.ghist = (self.ghist << 1) | t as u64;
                (t, pc.wrapping_add(d.imm as u64))
            }
            CfKind::Jump => (true, pc.wrapping_add(d.imm as u64)),
            CfKind::Call => {
                let target = if d.op == Op::Jal {
                    pc.wrapping_add(d.imm as u64)
                } else {
                    self.indirect_target(pc)
                };
                self.ras_push(fallthrough);
                (true, target)
            }
            CfKind::Ret => {
                let target = self.ras_pop().unwrap_or_else(|| self.indirect_target(pc));
                (true, target)
            }
            CfKind::Indirect => (true, self.indirect_target(pc)),
        };
        let ubtb_hit = Self::btb_lookup(&self.ubtb, pc).is_some();
        BranchPrediction {
            taken,
            target,
            tage: tage_meta,
            ubtb_hit,
            low_confidence,
            ras_snapshot,
            ghist_before,
        }
    }

    fn ras_push(&mut self, ret: u64) {
        let ras = Arc::make_mut(&mut self.ras);
        if ras.len() == self.ras_depth {
            ras.remove(0);
        }
        ras.push(ret);
    }

    fn ras_pop(&mut self) -> Option<u64> {
        if self.ras.is_empty() {
            return None; // nothing to pop: leave a shared stack shared
        }
        Arc::make_mut(&mut self.ras).pop()
    }

    fn indirect_target(&self, pc: u64) -> u64 {
        if let Some(it) = &self.ittage {
            if let Some(t) = Self::btb_lookup(it, pc) {
                return t;
            }
        }
        Self::btb_lookup(&self.btb, pc).unwrap_or(pc.wrapping_add(4))
    }

    /// Resolve a control-flow instruction: train predictors and (on a
    /// mispredict) restore speculative state.
    pub fn resolve(
        &mut self,
        pc: u64,
        d: &DecodedInst,
        pred: &BranchPrediction,
        actual_taken: bool,
        actual_target: u64,
        mispredicted: bool,
    ) {
        let kind = cf_kind(d).expect("resolve on control flow");
        if let Some(tp) = pred.tage {
            self.tage.update(pc, tp, actual_taken);
            if actual_taken != pred.taken {
                self.cond_mispredictions += 1;
            }
        }
        match kind {
            CfKind::Indirect | CfKind::Ret | CfKind::Call if d.op == Op::Jalr => {
                if actual_target != pred.target {
                    self.indirect_mispredictions += 1;
                }
                if let Some(it) = &mut self.ittage {
                    Self::btb_insert(it, pc, actual_target);
                }
                Self::btb_insert(&mut self.btb, pc, actual_target);
            }
            _ => {}
        }
        if actual_taken {
            Self::btb_insert(&mut self.ubtb, pc, actual_target);
            Self::btb_insert(&mut self.btb, pc, actual_target);
        }
        if mispredicted {
            // Restore speculative structures, then redo the history update
            // with the actual outcome.
            self.ras = pred.ras_snapshot.clone();
            self.ghist = pred.ghist_before;
            match kind {
                CfKind::Branch => self.ghist = (self.ghist << 1) | actual_taken as u64,
                CfKind::Call => self.ras_push(pc.wrapping_add(d.len as u64)),
                CfKind::Ret => {
                    self.ras_pop();
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn branch_at(_pc: u64, imm: i64) -> DecodedInst {
        DecodedInst {
            op: Op::Bne,
            rs1: 5,
            rs2: 6,
            imm,
            len: 4,
            ..Default::default()
        }
    }

    fn new_bpu() -> Bpu {
        Bpu::new(32, 2048, 1024, true, 16)
    }

    #[test]
    fn classifies_control_flow() {
        let jal_ra = DecodedInst {
            op: Op::Jal,
            rd: 1,
            ..Default::default()
        };
        assert_eq!(cf_kind(&jal_ra), Some(CfKind::Call));
        let jal = DecodedInst {
            op: Op::Jal,
            rd: 0,
            ..Default::default()
        };
        assert_eq!(cf_kind(&jal), Some(CfKind::Jump));
        let ret = DecodedInst {
            op: Op::Jalr,
            rd: 0,
            rs1: 1,
            ..Default::default()
        };
        assert_eq!(cf_kind(&ret), Some(CfKind::Ret));
        let ind = DecodedInst {
            op: Op::Jalr,
            rd: 0,
            rs1: 5,
            ..Default::default()
        };
        assert_eq!(cf_kind(&ind), Some(CfKind::Indirect));
        let add = DecodedInst {
            op: Op::Add,
            ..Default::default()
        };
        assert_eq!(cf_kind(&add), None);
    }

    #[test]
    fn learns_loop_branch() {
        let mut bpu = new_bpu();
        let d = branch_at(0x1000, -16);
        let mut wrong = 0;
        for i in 0..500 {
            let taken = i % 10 != 9; // loop of 10
            let p = bpu.predict(0x1000, &d);
            let mis = p.taken != taken;
            if mis && i > 100 {
                wrong += 1;
            }
            bpu.resolve(0x1000, &d, &p, taken, 0x1000 - 16, mis);
        }
        assert!(wrong < 40, "late mispredicts {wrong}");
    }

    #[test]
    fn ras_predicts_returns() {
        let mut bpu = new_bpu();
        let call = DecodedInst {
            op: Op::Jal,
            rd: 1,
            imm: 0x100,
            len: 4,
            ..Default::default()
        };
        let ret = DecodedInst {
            op: Op::Jalr,
            rd: 0,
            rs1: 1,
            len: 4,
            ..Default::default()
        };
        let p = bpu.predict(0x2000, &call);
        assert_eq!(p.target, 0x2100);
        bpu.resolve(0x2000, &call, &p, true, 0x2100, false);
        let p = bpu.predict(0x2100, &ret);
        assert_eq!(p.target, 0x2004, "RAS must supply the return address");
    }

    #[test]
    fn ittage_learns_indirect_target() {
        let mut bpu = new_bpu();
        let ind = DecodedInst {
            op: Op::Jalr,
            rd: 0,
            rs1: 5,
            len: 4,
            ..Default::default()
        };
        let p = bpu.predict(0x3000, &ind);
        // Cold: wrong target.
        bpu.resolve(0x3000, &ind, &p, true, 0x9000, p.target != 0x9000);
        let p2 = bpu.predict(0x3000, &ind);
        assert_eq!(p2.target, 0x9000, "second prediction uses learned target");
    }

    #[test]
    fn mispredict_restores_history_and_ras() {
        let mut bpu = new_bpu();
        let call = DecodedInst {
            op: Op::Jal,
            rd: 1,
            imm: 0x100,
            len: 4,
            ..Default::default()
        };
        let br = branch_at(0x4000, 0x40);
        // Speculate: call then branch.
        let pc0 = bpu.predict(0x2000, &call);
        let before_ras = pc0.ras_snapshot.len();
        let pbr = bpu.predict(0x4000, &br);
        // The branch was wrong-path garbage: resolving the *call* as
        // mispredicted must restore the RAS to its snapshot + new push.
        bpu.resolve(0x2000, &call, &pc0, true, 0xbeef_0000, true);
        assert_eq!(bpu.ras.len(), before_ras + 1);
        assert_eq!(*bpu.ras.last().unwrap(), 0x2004);
        let _ = pbr;
    }

    #[test]
    fn ubtb_hit_after_training() {
        let mut bpu = new_bpu();
        let d = branch_at(0x5000, -32);
        let p = bpu.predict(0x5000, &d);
        assert!(!p.ubtb_hit, "cold uBTB");
        bpu.resolve(0x5000, &d, &p, true, 0x5000 - 32, !p.taken);
        let p2 = bpu.predict(0x5000, &d);
        assert!(p2.ubtb_hit, "trained uBTB hits");
    }
}
