//! Rename and dispatch: the speculative RATs, structural-hazard checks
//! on the `ibuf` head, move elimination, macro-op fusion and PUBS
//! marking.

use crate::bpu::BranchPrediction;
use crate::config::IssuePolicy;
use crate::core::{Progress, Shared};
use crate::issue::DefTable;
use crate::prf::Rat;
use crate::rob::RobState;
use crate::uop::{dest_of, fuse, is_reg_move, try_fuse, PreUop, Uop};
use riscv_isa::op::{DecodedInst, FuClass, Op};
use riscv_isa::trap::Exception;
use std::collections::VecDeque;

/// How one ibuf entry (or fused pair) renames: everything the
/// structural-hazard checks need, known before a uop is built.
#[derive(Debug, Clone, Copy)]
struct RenamePlan {
    is_load: bool,
    is_store: bool,
    commit_exec: bool,
    /// Issue queue the uop dispatches to.
    qi: usize,
    move_elim: bool,
    /// Register class of the destination to allocate, if any.
    alloc_fp: Option<bool>,
}

/// The speculative rename maps and what stalled the stage last.
#[derive(Debug, Clone, Default)]
pub(crate) struct Rename {
    pub rat_int: Rat,
    pub rat_fp: Rat,
    /// PUBS: in-flight producer of each integer register.
    pub pubs_def: DefTable,
    /// This tick stopped on a full ROB / a full issue queue (read by the
    /// CPI attributor).
    pub blocked_rob: bool,
    pub blocked_iq: bool,
}

impl Rename {
    /// Rename up to `decode_width` uops off the front of `ibuf`.
    #[inline(always)]
    pub(crate) fn tick(&mut self, sh: &mut Shared, ibuf: &mut VecDeque<PreUop>) -> Progress {
        let waiting = ibuf.len();
        self.blocked_rob = false;
        self.blocked_iq = false;
        for _ in 0..sh.cfg.decode_width {
            let Some(front) = ibuf.front() else { break };
            if sh.rob.is_full() {
                sh.perf.rob_full_cycles += 1;
                self.blocked_rob = true;
                break;
            }
            // Fetch fault pseudo-op: becomes an exception-carrying entry.
            if let Some((cause, tval)) = front.fault {
                let (_, e, c) = sh.rob.push(&front.uop, &mut None);
                e.state = RobState::Done;
                c.exception = Some((cause, tval));
                c.life.fetched = front.fetched_at;
                c.life.decoded = front.fetched_at;
                c.life.renamed = sh.cycle;
                c.life.dispatched = sh.cycle;
                ibuf.pop_front();
                break;
            }
            // Try fusion with the next entry.
            let (a, d) = (&front.uop, &front.uop.inst);
            let fuse_next = sh.cfg.fusion
                && ibuf.get(1).is_some_and(|b| {
                    front.pred.is_none()
                        && b.pred.is_none()
                        && b.fault.is_none()
                        && b.uop.pc == a.pc + d.len as u64
                        && try_fuse(d, &b.uop.inst)
                });
            // Structural hazards are tested on the ibuf entry itself: a
            // stalled cycle moves nothing.
            let plan = rename_plan(sh, a.pc, d, fuse_next);
            if self.stalls(sh, &plan) {
                break;
            }
            // The uop goes from the ibuf entry straight into its slot.
            if fuse_next {
                let fused = fuse(a, &ibuf[1].uop);
                self.rename_one(sh, &fused, &mut None, front.fetched_at, &plan);
                ibuf.pop_front();
            } else {
                let PreUop { uop, pred, fetched_at, .. } = ibuf.front_mut().expect("front");
                self.rename_one(sh, uop, pred, *fetched_at, &plan);
            }
            ibuf.pop_front();
        }
        // Rename only ever pops its input latch, and everything it does
        // ends with a pop.
        Progress(ibuf.len() < waiting)
    }

    /// True when a structural hazard (LQ/SQ, issue queue, free list)
    /// keeps the planned uop from renaming this cycle.
    fn stalls(&mut self, sh: &mut Shared, plan: &RenamePlan) -> bool {
        if plan.is_load && sh.lsq.lq.is_full() || plan.is_store && sh.lsq.sq.is_full() {
            return true;
        }
        if !plan.commit_exec && sh.regs.iqs[plan.qi].is_full() {
            self.blocked_iq = true;
            return true;
        }
        plan.alloc_fp.is_some_and(|fp| sh.regs.prf(fp).free_count() == 0)
    }

    /// Rename and dispatch one uop whose plan found no hazard, filling
    /// its ROB slot in place.
    #[inline]
    fn rename_one(
        &mut self,
        sh: &mut Shared,
        uop: &Uop,
        pred: &mut Option<BranchPrediction>,
        fetched_at: u64,
        plan: &RenamePlan,
    ) {
        let d = uop.inst;
        // Map sources.
        let rat = |fp| if fp { &self.rat_fp } else { &self.rat_int };
        let phys_srcs = uop.srcs.map(|s| s.map(|s| (s.fp, rat(s.fp)[s.idx as usize])));
        let is_cf = d.is_control_flow();
        let pc = uop.pc;
        let dest = uop.dest;
        let move_src = plan.move_elim.then(|| uop.move_src());
        let (tag, e, c) = sh.rob.push(uop, pred);
        sh.perf.dispatched += 1;
        e.phys_srcs = phys_srcs;
        e.commit_exec = plan.commit_exec;
        let at = if fetched_at != 0 { fetched_at } else { sh.cycle };
        c.life.fetched = at;
        c.life.decoded = at;
        c.life.renamed = sh.cycle;
        c.life.dispatched = sh.cycle;
        if d.op == Op::Illegal {
            c.exception = Some((Exception::IllegalInstruction, d.raw as u64));
            e.state = RobState::Done;
        }
        // Destination renaming.
        if let Some(dest) = dest {
            let rat = if dest.fp { &mut self.rat_fp } else { &mut self.rat_int };
            e.old_phys = rat[dest.idx as usize];
            e.has_dest = true;
            if let Some(src) = move_src {
                let shared = rat[src as usize];
                sh.regs.int.addref(shared);
                e.phys_rd = shared;
                e.eliminated = true;
                e.state = RobState::Done;
                sh.perf.moves_eliminated += 1;
            } else {
                e.phys_rd = sh.regs.prf(dest.fp).alloc().expect("checked free");
                e.dest_fp = dest.fp;
            }
            rat[dest.idx as usize] = e.phys_rd;
        }
        // Control-flow snapshot (after renaming own dest).
        if is_cf {
            c.rat_snapshot = (self.rat_int, self.rat_fp);
        }
        // LSQ allocation.
        if plan.is_load {
            e.lq_idx = Some(sh.lsq.alloc_load(tag, d.mem_size()));
        }
        if plan.is_store {
            e.sq_idx = Some(sh.lsq.alloc_store(tag.seq, d.mem_size()));
        }
        // PUBS marking.
        let mut high_priority = false;
        if sh.cfg.issue_policy == IssuePolicy::Pubs && d.is_branch() && sh.pubs_conf.unconfident(pc)
        {
            high_priority = true;
            sh.perf.high_priority_dispatched += 1;
            // Mark in-flight producers of the branch's operands.
            for r in [d.rs1, d.rs2] {
                let producer = self.pubs_def.producer_of(r);
                if producer != 0 {
                    for iq in &mut sh.regs.iqs {
                        iq.mark_high_priority(producer);
                    }
                }
            }
        }
        if let Some(dest) = dest {
            if !dest.fp {
                self.pubs_def.define(dest.idx, tag.seq);
            }
        }
        // Dispatch.
        if !plan.commit_exec && !e.eliminated {
            let regs = &mut *sh.regs;
            regs.iqs[plan.qi].dispatch(tag, high_priority, phys_srcs, &mut regs.int, &mut regs.fp);
        }
    }
}

fn rename_plan(sh: &Shared, pc: u64, d: &DecodedInst, fused: bool) -> RenamePlan {
    // A fused pair writes the integer register both halves name.
    let dest_fp = if fused { Some(false) } else { dest_of(d).map(|r| r.fp) };
    let move_elim = sh.cfg.move_elimination && !fused && is_reg_move(d);
    RenamePlan {
        is_load: d.is_load() && !matches!(d.op, Op::LrW | Op::LrD),
        is_store: d.is_store() && !d.is_amo() && !matches!(d.op, Op::ScW | Op::ScD),
        commit_exec: d.is_system()
            || d.is_amo()
            || matches!(d.op, Op::LrW | Op::LrD | Op::ScW | Op::ScD | Op::Illegal),
        qi: match d.fu_class() {
            FuClass::Alu | FuClass::Bru => (pc >> 2) as usize % 2,
            FuClass::Mdu => 2,
            FuClass::Store => 3,
            FuClass::Load => 4,
            FuClass::Fma => 5,
            FuClass::Fmisc => 6,
        },
        move_elim,
        alloc_fp: dest_fp.filter(|_| !move_elim),
    }
}

#[cfg(test)]
mod tests {
    use crate::rob::RobTag;
    use crate::testing::{pre, Bench, ADDI_X5, BOOT, LD_X7_X5};

    #[test]
    fn a_structural_stall_pops_nothing_and_reports_no_progress() {
        // (the structure that is full, an instruction that needs it)
        let hazards = [("free list", ADDI_X5), ("LQ", LD_X7_X5), ("IQ", ADDI_X5)];
        for (hazard, raw) in hazards {
            let mut bench = Bench::new();
            let (mut sh, st) = bench.split();
            let (rename, ibuf) = (&mut st.rename, &mut st.frontend.ibuf);
            match hazard {
                "free list" => while sh.regs.int.alloc().is_some() {},
                "LQ" => {
                    while !sh.lsq.lq.is_full() {
                        sh.lsq.alloc_load(RobTag::default(), 8);
                    }
                }
                _ => {
                    // Same-parity PCs all steer to ALU queue 0; nothing
                    // issues them here, so the queue fills.
                    ibuf.extend((0..sh.cfg.iq_entries as u64).map(|i| pre(BOOT + 8 * i, raw)));
                    while !ibuf.is_empty() {
                        assert!(rename.tick(&mut sh, ibuf).0, "renaming is progress");
                    }
                    assert!(sh.regs.iqs[0].is_full());
                }
            }
            ibuf.push_back(pre(BOOT + 0x1000, raw));
            let dispatched = sh.perf.dispatched;
            assert!(!rename.tick(&mut sh, ibuf).0, "full {hazard}: a stalled tick is a no-op");
            assert_eq!(ibuf.len(), 1, "full {hazard}: the ibuf head stays");
            assert_eq!(sh.perf.dispatched, dispatched, "full {hazard}");
            assert_eq!(rename.blocked_iq, hazard == "IQ");
            assert!(!rename.blocked_rob);
        }
    }
}
