//! LR/SC/AMO: the memory side of an atomic executing at the ROB head —
//! store-buffer drain, translation, the LR reservation, the exclusive
//! load and the store back. Retiring the instruction is commit's job:
//! this unit only says how its memory side ended ([`AtomicEnd`]).

use crate::core::{Progress, Shared};
use crate::lsu_issue::{InflightArena, MemReqKind};
use crate::perf::PerfCounters;
use crate::tlbs::MmuResult;
use crate::uop::CommitMem;
use riscv_isa::exec::{amo_compute, load_extend};
use riscv_isa::mem::RESERVATION_GRANULE;
use riscv_isa::mmu::AccessType;
use riscv_isa::op::Op;
use riscv_isa::trap::Exception;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Phase {
    /// No atomic at the head.
    #[default]
    Idle,
    /// Waiting for the store buffer to drain.
    Drain,
    /// Atomic load (LR / AMO read) in flight at physical address `pa`.
    Load { pa: u64 },
    /// Atomic store (SC / AMO write) of `newv`, `sent` once the L1D
    /// accepted it; `old` is the loaded value.
    Store { old: u64, newv: u64, pa: u64, size: u64, sent: bool },
}

/// How the memory side of the atomic at the ROB head ended.
#[derive(Debug, Clone, Copy)]
pub(crate) enum AtomicEnd {
    /// It produced `value` for rd; `mem` is the access for the commit
    /// probe (none for a failed SC).
    Done { value: u64, sc_failed: bool, mem: Option<CommitMem> },
    /// It faulted before touching memory: (cause, tval).
    Fault(Exception, u64),
}

/// The reservation and the state machine of the atomic in progress.
#[derive(Debug, Clone, Default)]
pub(crate) struct Atomics {
    reservation: Option<u64>,
    lr_cycle: u64,
    phase: Phase,
    /// DiffTest hook: force the next SC to fail.
    pub force_sc_fail: bool,
}

/// The commit-probe record of an atomic's access (bare addressing).
fn access(pa: u64, size: u64, is_store: bool, value: u64) -> Option<CommitMem> {
    Some(CommitMem { vaddr: pa, paddr: pa, size, is_store, value, mmio: false })
}

impl Atomics {
    /// True while an atomic holds the ROB head.
    pub(crate) fn busy(&self) -> bool {
        self.phase != Phase::Idle
    }

    /// Take over the atomic commit found at the ROB head.
    pub(crate) fn begin(&mut self) {
        self.phase = Phase::Drain;
    }

    pub(crate) fn clear_reservation(&mut self) {
        self.reservation = None;
        self.lr_cycle = 0;
    }

    /// Another hart's store became visible: a reservation on a granule
    /// it touches dies.
    pub(crate) fn snoop(&mut self, perf: &mut PerfCounters, paddr: u64, size: u64) {
        if let Some(g) = self.reservation {
            let start = paddr & !(RESERVATION_GRANULE - 1);
            let end = (paddr + size - 1) & !(RESERVATION_GRANULE - 1);
            if g == start || g == end {
                self.reservation = None;
                perf.reservation_snoop_kills += 1;
            }
        }
    }

    /// Advance the atomic at the head by one cycle.
    pub(crate) fn tick(
        &mut self,
        sh: &mut Shared,
        inflight: &mut InflightArena,
    ) -> (Progress, Option<AtomicEnd>) {
        // Waiting for committed stores to reach memory, or for a
        // completion, changes nothing. Past the drain everything does: a
        // fault, the SC decision, or a submit attempt (retried every
        // tick, accepted or not).
        let progress = Progress(match self.phase {
            Phase::Drain => sh.lsq.sbuffer.is_empty(),
            Phase::Store { sent, .. } => !sent,
            Phase::Idle | Phase::Load { .. } => false,
        });
        let end = match self.phase {
            Phase::Drain if progress.0 => self.start(sh, inflight),
            _ => {
                self.try_store(sh, inflight);
                None
            }
        };
        (progress, end)
    }

    /// Store buffer empty: translate, then decide an SC or send the
    /// exclusive load of an LR / AMO.
    fn start(&mut self, sh: &mut Shared, inflight: &mut InflightArena) -> Option<AtomicEnd> {
        let h = sh.rob.head().expect("atomic at head");
        let srcs = sh.rob.hot(h).phys_srcs;
        let d = sh.rob.cold(h).uop.inst;
        let addr = srcs[0].map_or(0, |(fp, p)| sh.regs.read(fp, p));
        let size = d.mem_size();
        let is_lr = matches!(d.op, Op::LrW | Op::LrD);
        let fault = |this: &mut Self, cause| {
            this.phase = Phase::Idle;
            Some(AtomicEnd::Fault(cause, addr))
        };
        if !addr.is_multiple_of(size) {
            return fault(self, Exception::StoreAddrMisaligned);
        }
        // Translate (bare mode in practice for atomics tests).
        let ty = if is_lr { AccessType::Load } else { AccessType::Store };
        let pa = match sh.translate(addr, ty) {
            MmuResult::Done { pa, .. } => pa,
            MmuResult::Fault { cause, .. } => return fault(self, cause),
        };
        let granule = pa & !(RESERVATION_GRANULE - 1);
        if matches!(d.op, Op::ScW | Op::ScD) {
            // Decide success now.
            let timeout = sh.cycle.saturating_sub(self.lr_cycle) > sh.cfg.sc_timeout_cycles;
            let success = !self.force_sc_fail && !timeout && self.reservation == Some(granule);
            self.force_sc_fail = false;
            self.reservation = None;
            if !success {
                // Failed SC: rd = 1, no store.
                sh.perf.sc_failures += 1;
                return self.done(1, true, None);
            }
            let newv = srcs[1].map_or(0, |(fp, p)| sh.regs.read(fp, p));
            sh.perf.sc_successes += 1;
            // This decision is the linearization point: other harts'
            // reservations on the granule must die NOW, not when the
            // store completes in memory.
            sh.out.res_kills.push((pa, size));
            self.phase = Phase::Store { old: 0, newv, pa, size, sent: false };
            self.try_store(sh, inflight);
            return None;
        }
        // LR / AMO: acquire the line exclusively and load.
        if inflight.submit(sh, MemReqKind::AtomicLoad, pa, size, 0) {
            self.phase = Phase::Load { pa };
            if is_lr {
                self.reservation = Some(granule);
                self.lr_cycle = sh.cycle;
            }
        }
        None
    }

    /// Offer the computed write to the L1D, if one is waiting.
    fn try_store(&mut self, sh: &mut Shared, inflight: &mut InflightArena) {
        if let Phase::Store { newv, pa, size, sent: sent @ false, .. } = &mut self.phase {
            *sent = inflight.submit(sh, MemReqKind::AtomicStore, *pa, *size, *newv);
        }
    }

    fn done(&mut self, value: u64, sc_failed: bool, mem: Option<CommitMem>) -> Option<AtomicEnd> {
        self.phase = Phase::Idle;
        Some(AtomicEnd::Done { value, sc_failed, mem })
    }

    /// The exclusive load came back with `raw`: an LR is done, an AMO
    /// computes its write.
    pub(crate) fn loaded(
        &mut self,
        sh: &mut Shared,
        inflight: &mut InflightArena,
        raw: u64,
    ) -> Option<AtomicEnd> {
        let Phase::Load { pa } = self.phase else {
            return None;
        };
        let h = sh.rob.head().expect("atomic at head");
        let d = sh.rob.cold(h).uop.inst;
        let size = d.mem_size();
        let old = load_extend(if size == 4 { Op::Lw } else { Op::Ld }, raw);
        if matches!(d.op, Op::LrW | Op::LrD) {
            return self.done(old, false, access(pa, size, false, old));
        }
        // AMO: compute the new value and store it back in the same cycle
        // (the line is exclusive; the write is effectively atomic).
        let src = sh.rob.hot(h).phys_srcs[1].map_or(0, |(fp, p)| sh.regs.read(fp, p));
        let newv = amo_compute(d.op, old, src);
        // The AMO's write linearizes here: kill remote reservations on
        // the granule this cycle.
        sh.out.res_kills.push((pa, size));
        self.phase = Phase::Store { old, newv, pa, size, sent: false };
        // Try immediately to minimize the exclusivity window.
        self.try_store(sh, inflight);
        None
    }

    /// The store back (SC / AMO write) entered the cache hierarchy.
    pub(crate) fn stored(&mut self, sh: &mut Shared) -> Option<AtomicEnd> {
        let Phase::Store { old, newv, pa, size, .. } = self.phase else {
            return None;
        };
        sh.emit_drain(pa, size, newv);
        self.done(old, false, access(pa, size, true, newv))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{dispatch, Bench, BOOT, LR_D_X6_X5, SC_D_X7_X6_X5};
    use riscv_isa::state::ArchState;

    /// Run the LR of an `lr.d; sc.d` pair at address 0 to its end, pop
    /// it, optionally let a remote store hit `snoop`, then decide the SC.
    fn sc_after(snoop: Option<u64>) -> (Option<AtomicEnd>, u64, usize) {
        let mut bench = Bench::new();
        let (mut sh, st) = bench.split();
        dispatch(&mut sh, st, &[LR_D_X6_X5, SC_D_X7_X6_X5]);
        let (at, inflight) = (&mut st.atomics, &mut st.lsu.inflight);
        sh.cycle = 1;
        at.begin();
        let (progress, end) = at.tick(&mut sh, inflight);
        assert!(progress.0 && end.is_none() && at.busy(), "the exclusive load is on its way");
        assert_eq!(at.reservation, Some(0));
        sh.cycle = 2;
        assert!(!at.tick(&mut sh, inflight).0 .0, "waiting for the load is a no-op");
        let end = at.loaded(&mut sh, inflight, 42);
        assert!(matches!(end, Some(AtomicEnd::Done { value: 42, sc_failed: false, .. })));
        assert!(!at.busy());
        sh.rob.pop_head();

        if let Some(paddr) = snoop {
            at.snoop(sh.perf, paddr, 4);
        }
        sh.cycle = 3;
        at.begin();
        let (progress, end) = at.tick(&mut sh, inflight);
        assert!(progress.0, "an SC decides the cycle the store buffer is empty");
        (end, sh.perf.reservation_snoop_kills, sh.out.res_kills.len())
    }

    #[test]
    fn sc_fails_after_a_remote_store_to_the_reserved_granule() {
        // The store hits the far end of the 64-byte granule.
        let (end, kills, res_kills) = sc_after(Some(60));
        let failed = matches!(end, Some(AtomicEnd::Done { value: 1, sc_failed: true, mem: None }));
        assert!(failed, "{end:?}");
        assert_eq!((kills, res_kills), (1, 0), "no store, nothing to linearize");

        // Controls: no remote store, or one to the next granule — the SC
        // succeeds and its store goes out.
        for snoop in [None, Some(64)] {
            let (end, kills, res_kills) = sc_after(snoop);
            assert!(end.is_none(), "a successful SC ends when its store completes: {end:?}");
            assert_eq!((kills, res_kills), (0, 1));
        }
    }

    #[test]
    fn restore_arch_state_invalidates_lr_reservation() {
        // A reservation acquired on the pre-rollback path (a replayed or
        // squashed LR) must not give a post-restore SC a stale success
        // window.
        let mut bench = Bench::new();
        let at = &mut bench.split().1.atomics;
        at.reservation = Some(0x8002_0000);
        at.lr_cycle = 42;
        bench.core().restore_arch_state(&ArchState::new(BOOT, 0));
        let at = &bench.split().1.atomics;
        assert_eq!((at.reservation, at.lr_cycle), (None, 0), "stale LR state survived restore");
    }
}
