//! Execute: issue select for the functional-unit queues, the FU pipe,
//! writeback, and branch resolution.

use crate::config::InjectedBug;
use crate::core::{Progress, Redirect, Shared};
use crate::issue::Picks;
use crate::lifecycle::SquashCause;
use crate::rob::{RobIdx, RobState, RobTag};
use crate::uop::exec_fused;
use riscv_isa::exec::{branch_taken, has_imm_operand, int_compute};
use riscv_isa::fpu::fp_execute;
use riscv_isa::op::{DecodedInst, FuClass, Op};

#[derive(Debug, Clone, Copy)]
struct FuInFlight {
    done_at: u64,
    tag: RobTag,
}

/// The functional-unit pipe: uops issued and not yet written back.
#[derive(Debug, Clone)]
pub(crate) struct Exec {
    fu_pipe: Vec<FuInFlight>,
    /// Earliest `done_at` in `fu_pipe`; lets [`Exec::writeback`] skip
    /// scanning the pipe on cycles where nothing can complete.
    fu_pipe_min: u64,
    /// Reusable scratch for the due-this-cycle writeback batch (empty
    /// between ticks).
    wb_scratch: Vec<FuInFlight>,
    /// ALU ready count observed by the last [`Exec::issue`], so skipped
    /// idle spans can bulk-replicate the Fig. 15 histogram sample.
    pub last_ready_alu: usize,
}

impl Default for Exec {
    fn default() -> Self {
        Exec {
            fu_pipe: Vec::new(),
            fu_pipe_min: u64::MAX,
            wb_scratch: Vec::new(),
            last_ready_alu: 0,
        }
    }
}

impl Exec {
    /// When the earliest uop in the pipe completes (early if squashed).
    pub(crate) fn next_done(&self) -> Option<u64> {
        (!self.fu_pipe.is_empty()).then_some(self.fu_pipe_min)
    }

    /// Drop uops younger than `seq` (0: all of them) from the pipe.
    pub(crate) fn squash(&mut self, seq: u64) {
        self.fu_pipe.retain(|f| f.tag.seq <= seq);
        if seq == 0 {
            self.fu_pipe_min = u64::MAX;
        }
    }

    /// Select from the functional-unit queues (the load and store queues
    /// are the LSU's) and start the picked uops down the pipe.
    #[inline(always)]
    pub(crate) fn issue(&mut self, sh: &mut Shared) -> Progress {
        let mut ready_alu = 0;
        let mut issued = 0;
        // Queue by queue: nothing an issued uop does this cycle (it
        // writes no register before the next tick) can change what a
        // later queue finds ready. One pick buffer serves the tick's
        // selects, built when the first queue with a ready slot needs it.
        let mut picks = None;
        for qi in 0..sh.regs.iqs.len() {
            let iq = &mut sh.regs.iqs[qi];
            let class = iq.class;
            if matches!(class, FuClass::Load | FuClass::Store) || iq.ready_count() == 0 {
                continue;
            }
            let picks = picks.get_or_insert_with(Picks::default);
            let ready = iq.select(picks);
            if class == FuClass::Alu {
                ready_alu += ready;
            }
            for &tag in picks.iter() {
                sh.mark_issued(tag);
                let done_at = sh.cycle + fu_latency(class, &sh.rob.cold(tag.idx).uop.inst);
                self.fu_pipe.push(FuInFlight { done_at, tag });
                self.fu_pipe_min = self.fu_pipe_min.min(done_at);
                issued += 1;
            }
        }
        sh.perf.record_ready_n(ready_alu, 1);
        self.last_ready_alu = ready_alu;
        Progress(issued > 0)
    }

    /// Write back every uop whose latency elapsed, oldest first, up to
    /// and including the first mispredicted branch.
    #[inline(always)]
    pub(crate) fn writeback(&mut self, sh: &mut Shared) -> (Progress, Option<Redirect>) {
        let mut due = std::mem::take(&mut self.wb_scratch);
        // Nothing in flight completes before `fu_pipe_min`: skip the
        // scan on cycles with nothing due.
        if !self.fu_pipe.is_empty() && sh.cycle >= self.fu_pipe_min {
            let mut min = u64::MAX;
            self.fu_pipe.retain(|f| {
                if f.done_at <= sh.cycle {
                    due.push(*f);
                } else {
                    min = min.min(f.done_at);
                }
                f.done_at > sh.cycle
            });
            self.fu_pipe_min = min;
            // Unique seqs: unstable sort is deterministic here.
            due.sort_unstable_by_key(|f| f.tag.seq);
        }
        let progress = Progress(!due.is_empty());
        let mut redirect = None;
        for f in &due {
            if !sh.rob.live(f.tag) {
                continue; // squashed
            }
            redirect = execute_and_writeback(sh, f.tag.idx);
            if redirect.is_some() {
                // Everything left in `due` is younger: the redirect
                // squashes it.
                break;
            }
        }
        self.wb_scratch = due;
        self.wb_scratch.clear();
        (progress, redirect)
    }
}

/// Compute the result of a (non-memory) uop and write it back. A
/// control-flow uop that resolves against its prediction returns the
/// redirect to its real target.
#[inline]
fn execute_and_writeback(sh: &mut Shared, idx: RobIdx) -> Option<Redirect> {
    let uop = &sh.rob.cold(idx).uop;
    let d = uop.inst;
    let fused = uop.fused;
    let pc = uop.pc;
    let predicted_npc = uop.predicted_npc;
    let fallthrough = uop.fallthrough();
    // Positional operand read: slot i holds operand i+1's mapping,
    // or None for x0 / unused (which read as zero). Compacting here
    // instead would hand `sltu rd, x0, rs2` its rs2 as operand one.
    let mut srcs = [0u64; 3];
    for (i, s) in sh.rob.hot(idx).phys_srcs.iter().enumerate() {
        if let Some((fp, p)) = s {
            srcs[i] = sh.regs.read(*fp, *p);
        }
    }
    let v = |i: usize| srcs[i];

    let mut value = 0u64;
    let mut fflags = 0u64;
    let mut taken = false;
    let mut target = 0u64;
    if let Some(b) = fused {
        value = exec_fused(&d, &b, v(0), v(1));
    } else if d.is_branch() {
        taken = branch_taken(d.op, v(0), v(1));
        target = pc.wrapping_add(d.imm as u64);
    } else if d.op == Op::Jal {
        taken = true;
        target = pc.wrapping_add(d.imm as u64);
        value = fallthrough;
    } else if d.op == Op::Jalr {
        taken = true;
        target = v(0).wrapping_add(d.imm as u64) & !1;
        value = fallthrough;
    } else if d.op == Op::Auipc {
        value = pc.wrapping_add(d.imm as u64);
    } else if d.op == Op::Lui {
        value = d.imm as u64;
    } else if let Some(r) = int_compute(
        d.op,
        v(0),
        if has_imm_operand(d.op) {
            d.imm as u64
        } else {
            v(1)
        },
    ) {
        value = r;
    } else {
        // Floating point through the host FPU, under a rounding mode rename
        // found legal.
        let rm = d.rounding(sh.csr.frm()).unwrap_or_default();
        let r = fp_execute(d.op, v(0), v(1), v(2), rm);
        value = r.bits;
        fflags = r.flags;
    }
    if let Some(bug) = sh.cfg.run.injected_bug {
        value = apply_injected_bug(bug, d.op, value);
    }

    let e = sh.rob.hot_mut(idx);
    e.wb_value = value;
    e.fflags = fflags as u8;
    e.state = RobState::Done;
    e.actual_taken = taken;
    let (has_dest, fp, p) = (e.has_dest, e.dest_fp, e.phys_rd);
    let c = sh.rob.cold_mut(idx);
    c.life.executed = sh.cycle;
    c.life.writeback = sh.cycle;
    c.actual_target = target;
    if has_dest {
        sh.regs.write(fp, p, value);
    }
    // Branch resolution.
    let actual_npc = if taken { target } else { fallthrough };
    if !d.is_control_flow() || actual_npc == predicted_npc {
        return None;
    }
    let e = sh.rob.hot_mut(idx);
    e.mispredicted = true;
    e.bpu_resolved = true;
    let seq = e.seq;
    if let Some(pred) = sh.rob.pred(idx) {
        sh.bpu.resolve(pc, &d, pred, taken, target, true);
    }
    Some(Redirect {
        after: Some(idx),
        seq,
        new_pc: actual_npc,
        cause: SquashCause::Mispredict,
    })
}

/// Corrupt a writeback value according to an armed [`InjectedBug`].
fn apply_injected_bug(bug: InjectedBug, op: Op, value: u64) -> u64 {
    use InjectedBug::*;
    match bug {
        MulLowBit if op == Op::Mul => value ^ 1,
        AddwNoSext if op == Op::Addw => value & 0xffff_ffff,
        _ => value,
    }
}

fn fu_latency(class: FuClass, d: &DecodedInst) -> u64 {
    use Op::*;
    match class {
        FuClass::Alu | FuClass::Bru => 1,
        FuClass::Mdu => match d.op {
            Mul | Mulh | Mulhsu | Mulhu | Mulw => 3,
            _ => 20, // divide
        },
        FuClass::Fma => 5, // cascade FMA (paper §IV-A)
        FuClass::Fmisc => match d.op {
            FdivS | FdivD => 12,
            FsqrtS | FsqrtD => 14,
            _ => 3,
        },
        FuClass::Load | FuClass::Store => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{dispatch, Bench, ADDI_X5, ADDI_X6, BOOT, JAL_16};

    #[test]
    fn a_mispredict_ends_writeback_and_comes_back_as_a_redirect() {
        let mut bench = Bench::new();
        let (mut sh, st) = bench.split();
        // Independent one-cycle uops: a jal predicted to fall through
        // between two addis.
        dispatch(&mut sh, st, &[ADDI_X5, JAL_16, ADDI_X6]);
        let exec = &mut st.exec;
        sh.cycle = 1;
        assert!(
            !exec.writeback(&mut sh).0 .0,
            "nothing in the pipe: a no-op"
        );
        assert!(exec.issue(&mut sh).0, "three ready uops issue");
        assert_eq!(exec.next_done(), Some(2));
        assert!(!exec.issue(&mut sh).0, "nothing left to select");

        sh.cycle = 2;
        let (progress, redirect) = exec.writeback(&mut sh);
        assert!(progress.0);
        let r = redirect.expect("the jal resolves against its prediction");
        assert_eq!(
            (r.new_pc, r.cause),
            (BOOT + 4 + 16, SquashCause::Mispredict)
        );
        let states: Vec<RobState> = (0..3).map(|k| sh.rob.hot(sh.rob.nth(k)).state).collect();
        // The addi behind the jal was due too, but the redirect squashes
        // it: writeback stopped at the jal.
        assert_eq!(states, [RobState::Done, RobState::Done, RobState::Issued]);
        assert_eq!(r.after, Some(sh.rob.nth(1)));
        assert_eq!(exec.next_done(), None, "the pipe drained");
        assert!(!exec.writeback(&mut sh).0 .0);
    }
}
