//! In-order commit: retirement, exceptions, and the serializing
//! instructions that execute at the ROB head.

use crate::atomics::AtomicEnd;
use crate::core::{Progress, Redirect, Shared};
use crate::lifecycle::SquashCause;
use crate::prf::Rat;
use crate::rob::{RobIdx, RobState};
use crate::uop::CommitEvent;
use riscv_isa::csr::{self, Privilege};
use riscv_isa::mem::UART_TX;
use riscv_isa::op::{DecodedInst, Op};
use riscv_isa::trap::{Exception, Trap};

/// How a commit tick ended, when it ended on something the rest of the
/// pipeline has to act on.
#[derive(Debug, Clone, Copy)]
pub(crate) enum CommitEnd {
    /// Squash and restart fetch.
    Redirect(Redirect),
    /// The head is an LR/SC/AMO with its operands ready: the atomics
    /// unit takes it from here.
    Atomic,
}

/// The architectural (committed) side of the core.
#[derive(Debug, Clone, Default)]
pub(crate) struct Commit {
    pub arat_int: Rat,
    pub arat_fp: Rat,
    pub instret: u64,
    /// CPI-stack recovery window: opened by a redirect (its cause and
    /// the sequence number that raised it), closed when the first
    /// instruction past it commits.
    pub recovery: Option<(SquashCause, u64)>,
}

/// A commit event with nothing but its identity filled in.
fn event(sh: &Shared, pc: u64, inst: DecodedInst) -> CommitEvent {
    CommitEvent { hart: sh.hart, pc, inst, cycle: sh.cycle, ..Default::default() }
}

/// A redirect that empties the ROB, raised by the head `seq`.
fn flush_all(seq: u64, new_pc: u64, cause: SquashCause) -> Redirect {
    Redirect { after: None, seq, new_pc, cause }
}

impl Commit {
    /// Retire up to `commit_width` instructions off the ROB head.
    #[inline(always)]
    pub(crate) fn tick(&mut self, sh: &mut Shared) -> (Progress, Option<CommitEnd>) {
        let committed = sh.out.commits.len();
        let mut end = None;
        for slot in 0..sh.cfg.commit_width {
            let Some(h) = sh.rob.head() else { break };
            let head = sh.rob.hot(h);
            if head.replay_at_commit {
                // Memory-order violation: squash and re-execute from the
                // load itself.
                let pc = sh.rob.cold(h).uop.pc;
                let r = flush_all(head.seq, pc, SquashCause::MemOrderViolation);
                end = Some(CommitEnd::Redirect(r));
                break;
            }
            let done = head.state == RobState::Done;
            // An entry carrying an exception is always `Done`.
            if done || head.commit_exec {
                if let Some((cause, tval)) = sh.rob.cold(h).exception {
                    end = self.fault(sh, cause, tval);
                    break;
                }
            }
            if head.commit_exec {
                // Serialized: only at the first commit slot.
                if slot == 0 {
                    end = self.commit_system(sh, h);
                }
                break;
            }
            if !done {
                break;
            }
            // Stores need store-buffer space.
            if head.sq_idx.is_some() {
                let mmio = sh.rob.cold(h).mem_info.is_some_and(|m| m.mmio);
                if !mmio && sh.lsq.sbuffer_full() {
                    break;
                }
            }
            self.retire(sh, h);
        }
        // The head moved (every retirement, trap and halt emits an
        // event) or the tick ended on a redirect or a hand-off.
        let progress = Progress(sh.out.commits.len() > committed || end.is_some());
        (progress, end)
    }

    /// Commit the head's destination mapping, count it, emit `ev` and
    /// free the slot: the part of retirement every path shares.
    #[inline]
    fn retire_head(&mut self, sh: &mut Shared, h: RobIdx, ev: CommitEvent) {
        let e = sh.rob.hot(h);
        let uop = &sh.rob.cold(h).uop;
        if let Some(dest) = uop.dest {
            let arat = if dest.fp { &mut self.arat_fp } else { &mut self.arat_int };
            arat[dest.idx as usize] = e.phys_rd;
            sh.regs.prf(dest.fp).release(e.old_phys);
        }
        let arch_count = 1 + uop.fused.is_some() as u64;
        self.instret += arch_count;
        sh.perf.instret += arch_count;
        sh.perf.uops += 1;
        sh.csr.minstret = self.instret;
        sh.out.commits.push(ev);
        sh.finalize_retired(h);
        sh.rob.pop_head();
    }

    /// Retire the (done, fault-free, non-serializing) head.
    #[inline]
    fn retire(&mut self, sh: &mut Shared, h: RobIdx) {
        let e = *sh.rob.hot(h);
        let seq = e.seq;
        if self.recovery.is_some_and(|(_, boundary)| seq > boundary) {
            self.recovery = None;
        }
        // Eliminated moves read their (shared) register at commit.
        let wb_value = if e.eliminated { sh.regs.int.read(e.phys_rd) } else { e.wb_value };
        let c = sh.rob.cold(h);
        // LSQ bookkeeping.
        if e.lq_idx.is_some() {
            sh.lsq.commit_load(seq);
            sh.perf.loads += 1;
        }
        if e.sq_idx.is_some() {
            sh.perf.stores += 1;
            match c.mem_info {
                // Device store at commit (UART).
                Some(m) if m.mmio => {
                    if m.paddr == UART_TX {
                        sh.output.push(m.value as u8);
                    }
                    sh.lsq.pop_store(seq);
                }
                _ => {
                    let delay = sh.cfg.sbuffer_drain_delay;
                    sh.lsq.commit_store(seq, sh.cycle, delay);
                    sh.events.push(sh.cycle + delay);
                }
            }
        }
        // Branch training (at commit, if not already resolved).
        if c.uop.inst.is_control_flow() {
            if c.uop.inst.is_branch() {
                sh.perf.branches += 1;
                if e.mispredicted {
                    sh.perf.branch_mispredicts += 1;
                }
            }
            if !e.bpu_resolved {
                if let Some(pred) = sh.rob.pred(h) {
                    sh.bpu.resolve(
                        c.uop.pc,
                        &c.uop.inst,
                        pred,
                        e.actual_taken,
                        c.actual_target,
                        false,
                    );
                }
            }
            sh.pubs_conf.update(c.uop.pc, e.mispredicted);
        }
        sh.csr.set_fflags(e.fflags as u64);
        if c.uop.fused.is_some() {
            sh.perf.fused_pairs += 1;
        }
        let ev = CommitEvent {
            fused: c.uop.fused,
            wb: c.uop.dest.map(|d| (d.fp, d.idx, wb_value)),
            mem: c.mem_info,
            // SCs retire through the atomic path, never through here.
            ..event(sh, c.uop.pc, c.uop.inst)
        };
        self.retire_head(sh, h, ev);
    }

    /// Enter the trap the head raised; the head itself is squashed with
    /// everything behind it.
    pub(crate) fn take_exception(
        &mut self,
        sh: &mut Shared,
        cause: Exception,
        tval: u64,
    ) -> Redirect {
        let h = sh.rob.head().expect("exception at head");
        let uop = &sh.rob.cold(h).uop;
        let (pc, inst) = (uop.pc, uop.inst);
        sh.perf.exceptions += 1;
        let trap = Trap::Exception(cause, tval);
        let handler = sh.csr.take_trap(trap, pc);
        sh.out.commits.push(CommitEvent { trap: Some(trap), ..event(sh, pc, inst) });
        flush_all(sh.rob.hot(h).seq, handler, SquashCause::Exception)
    }

    /// Execute the serializing instruction in the head `h` at the commit
    /// point. `None` while it has to wait.
    fn commit_system(&mut self, sh: &mut Shared, h: RobIdx) -> Option<CommitEnd> {
        let seq = sh.rob.hot(h).seq;
        let uop = &sh.rob.cold(h).uop;
        let (d, pc, dest, next_pc) = (uop.inst, uop.pc, uop.dest, uop.fallthrough());
        // Sources are ready unless their producer is still in flight
        // (a CSR source operand, an atomic's address or data).
        if !entry_ready_commit(sh, h) {
            return None;
        }
        // Atomics get their own multi-cycle path.
        if d.is_amo() || matches!(d.op, Op::LrW | Op::LrD | Op::ScW | Op::ScD) {
            return Some(CommitEnd::Atomic);
        }
        let mut ev = event(sh, pc, d);
        let mut redirect = next_pc;
        match d.op {
            Op::Csrrw | Op::Csrrs | Op::Csrrc | Op::Csrrwi | Op::Csrrsi | Op::Csrrci => {
                let csrno = d.csr();
                let src = if matches!(d.op, Op::Csrrwi | Op::Csrrsi | Op::Csrrci) {
                    d.rs1 as u64
                } else {
                    let first = sh.rob.hot(h).phys_srcs.into_iter().flatten().next();
                    first.map_or(0, |(fp, p)| sh.regs.read(fp, p))
                };
                let old = match sh.csr.read(csrno) {
                    Ok(old) => old,
                    Err(ex) => return self.fault(sh, ex, d.raw as u64),
                };
                let newv = match d.op {
                    Op::Csrrw | Op::Csrrwi => Some(src),
                    Op::Csrrs | Op::Csrrsi => (src != 0).then_some(old | src),
                    _ => (src != 0).then_some(old & !src),
                };
                if let Some(v) = newv {
                    if let Err(ex) = sh.csr.write(csrno, v) {
                        return self.fault(sh, ex, d.raw as u64);
                    }
                    if csrno == csr::addr::SATP {
                        sh.mmu.flush();
                    }
                }
                if let Some(dest) = dest {
                    write_dest_at_commit(sh, h, old);
                    ev.wb = Some((dest.fp, dest.idx, old));
                }
            }
            Op::Fence => {
                // Fence semantics: committed stores reach the memory
                // system before the fence retires.
                if !sh.lsq.sbuffer.is_empty() {
                    return None;
                }
            }
            Op::Wfi => {}
            Op::FenceI => {
                sh.mem.flush_l1i(sh.hart);
            }
            Op::SfenceVma => {
                if sh.csr.privilege == Privilege::User
                    || (sh.csr.privilege == Privilege::Supervisor
                        && sh.csr.mstatus & csr::mstatus::TVM != 0)
                {
                    return self.fault(sh, Exception::IllegalInstruction, d.raw as u64);
                }
                sh.mmu.flush();
            }
            Op::Mret | Op::Sret => {
                let ret = if d.op == Op::Mret { sh.csr.mret() } else { sh.csr.sret() };
                match ret {
                    Ok(t) => redirect = t,
                    Err(ex) => return self.fault(sh, ex, 0),
                }
            }
            Op::Ecall => {
                let cause = match sh.csr.privilege {
                    Privilege::User => Exception::EcallFromU,
                    Privilege::Supervisor => Exception::EcallFromS,
                    Privilege::Machine => Exception::EcallFromM,
                };
                return self.fault(sh, cause, 0);
            }
            Op::Ebreak => {
                // Halt only once every committed store reached the memory
                // system (other harts may depend on them).
                if !sh.lsq.sbuffer.is_empty() {
                    return None;
                }
                *sh.halted = Some(sh.regs.int.read(self.arat_int[10]));
                ev.halted = true;
                self.retire_head(sh, h, ev);
                return None;
            }
            other => panic!("unhandled commit-exec op {other:?}"),
        }
        // Retire the system op and flush younger (serialization).
        self.retire_head(sh, h, ev);
        let r = flush_all(seq, redirect, SquashCause::Serialize);
        Some(CommitEnd::Redirect(r))
    }

    /// [`Commit::take_exception`] as the end of this commit tick.
    fn fault(&mut self, sh: &mut Shared, cause: Exception, tval: u64) -> Option<CommitEnd> {
        Some(CommitEnd::Redirect(self.take_exception(sh, cause, tval)))
    }

    /// Retire the atomic at the head with the result of its memory side,
    /// or take the fault it ran into; either way the pipeline restarts
    /// behind it.
    pub(crate) fn retire_atomic(&mut self, sh: &mut Shared, end: AtomicEnd) -> Redirect {
        let (value, sc_failed, mem) = match end {
            AtomicEnd::Fault(cause, tval) => return self.take_exception(sh, cause, tval),
            AtomicEnd::Done { value, sc_failed, mem } => (value, sc_failed, mem),
        };
        let h = sh.rob.head().expect("atomic at head");
        let seq = sh.rob.hot(h).seq;
        let uop = &sh.rob.cold(h).uop;
        let (dest, next_pc) = (uop.dest, uop.fallthrough());
        let ev = CommitEvent {
            wb: dest.map(|d| (d.fp, d.idx, value)),
            mem,
            sc_failed,
            ..event(sh, uop.pc, uop.inst)
        };
        write_dest_at_commit(sh, h, value);
        self.retire_head(sh, h, ev);
        // Serialize after atomics.
        flush_all(seq, next_pc, SquashCause::Serialize)
    }
}

fn entry_ready_commit(sh: &Shared, idx: RobIdx) -> bool {
    let srcs = sh.rob.hot(idx).phys_srcs;
    srcs.iter().flatten().all(|&(fp, p)| sh.regs.is_ready(fp, p))
}

fn write_dest_at_commit(sh: &mut Shared, idx: RobIdx, value: u64) {
    let e = sh.rob.hot_mut(idx);
    e.wb_value = value;
    let (fp, p, has) = (e.dest_fp, e.phys_rd, e.has_dest);
    if has {
        sh.regs.write(fp, p, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{dispatch, Bench, ADDI_X5, ECALL, LR_D_X6_X5};

    #[test]
    fn commit_ends_on_what_the_head_is() {
        // An unexecuted head: nothing to do.
        let mut bench = Bench::new();
        let (mut sh, st) = bench.split();
        dispatch(&mut sh, st, &[ADDI_X5]);
        let (progress, end) = st.commit.tick(&mut sh);
        assert!(!progress.0 && end.is_none(), "waiting on the head is a no-op");

        // A trap at the head: an event, no retirement, a full flush to
        // the (reset) trap vector.
        let mut bench = Bench::new();
        let (mut sh, st) = bench.split();
        dispatch(&mut sh, st, &[ECALL, ADDI_X5]);
        let (progress, end) = st.commit.tick(&mut sh);
        let Some(CommitEnd::Redirect(r)) = end else {
            panic!("an ecall redirects: {end:?}");
        };
        assert!(progress.0);
        assert_eq!((r.after, r.new_pc, r.cause), (None, 0, SquashCause::Exception));
        assert_eq!(r.seq, sh.rob.hot(sh.rob.nth(0)).seq);
        assert!(sh.out.commits[0].trap.is_some());
        assert_eq!((st.commit.instret, sh.rob.len()), (0, 2), "the squash is the caller's");

        // An atomic at the head is handed to the atomics unit.
        let mut bench = Bench::new();
        let (mut sh, st) = bench.split();
        dispatch(&mut sh, st, &[LR_D_X6_X5]);
        let (progress, end) = st.commit.tick(&mut sh);
        assert!(progress.0 && matches!(end, Some(CommitEnd::Atomic)), "{end:?}");
        assert!(sh.out.commits.is_empty());
    }
}
