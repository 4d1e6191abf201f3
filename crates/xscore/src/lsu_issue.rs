//! The load/store pipelines: issue from the load and store queues,
//! translation, store-to-load forwarding, the replay and deferred-
//! delivery queues, the arena of requests in flight to the L1D, data-
//! side completions, and the store-buffer drain.

use crate::core::{Progress, Shared};
use crate::frontend::FETCH_ID_FLAG;
use crate::issue::Picks;
use crate::lsu::ForwardResult;
use crate::rob::{RobIdx, RobState, RobTag};
use crate::tlbs::MmuResult;
use crate::uop::CommitMem;
use riscv_isa::exec::load_extend;
use riscv_isa::mem::{MTIME, UART_TX};
use riscv_isa::mmu::AccessType;
use riscv_isa::op::FuClass;
use uncore::{AccessKind, Completion, CoreReq};

/// What a data-side request in flight was for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MemReqKind {
    Load { tag: RobTag },
    SbufferDrain,
    AtomicLoad,
    AtomicStore,
}

#[derive(Debug, Clone, Copy)]
struct InflightSlot {
    gen: u64,
    kind: MemReqKind,
    live: bool,
}

/// Flat slot arena for in-flight data-side requests: O(1) insert/remove
/// with no hashing on the hot path, fully deterministic iteration order
/// (slot index order), and ids that encode `hart | generation | slot` so
/// a completion for a squashed-and-reused slot is recognized as stale by
/// its generation.
#[derive(Debug, Clone, Default)]
pub(crate) struct InflightArena {
    slots: Vec<InflightSlot>,
    free: Vec<u16>,
}

impl InflightArena {
    /// Generation bits sit between the slot (low 16) and the fetch flag
    /// (bit 55): 39 bits, wrapping after 2^39 reuses of one slot.
    const GEN_MASK: u64 = (1 << 39) - 1;

    fn insert(&mut self, hart: usize, kind: MemReqKind) -> u64 {
        let slot = match self.free.pop() {
            Some(s) => {
                let e = &mut self.slots[s as usize];
                e.gen = (e.gen + 1) & Self::GEN_MASK;
                e.kind = kind;
                e.live = true;
                s
            }
            None => {
                let s = self.slots.len();
                debug_assert!(s < u16::MAX as usize, "in-flight arena overflow");
                self.slots.push(InflightSlot { gen: 0, kind, live: true });
                s as u16
            }
        };
        ((hart as u64) << 56) | (self.slots[slot as usize].gen << 16) | slot as u64
    }

    /// Remove and return the request behind `id`. `None` for fetch ids,
    /// stale generations (the slot was squashed and reused), and ids
    /// already removed.
    fn remove(&mut self, id: u64) -> Option<MemReqKind> {
        if id & FETCH_ID_FLAG != 0 {
            return None;
        }
        let slot = (id & 0xffff) as usize;
        let gen = (id >> 16) & Self::GEN_MASK;
        let e = self.slots.get_mut(slot)?;
        if !e.live || e.gen != gen {
            return None;
        }
        e.live = false;
        self.free.push(slot as u16);
        Some(e.kind)
    }

    /// Drop every live load younger than `seq` (flush paths). Iterates
    /// in slot order: deterministic by construction.
    fn squash_loads(&mut self, seq: u64) {
        for (i, e) in self.slots.iter_mut().enumerate() {
            if e.live && matches!(e.kind, MemReqKind::Load { tag } if tag.seq > seq) {
                e.live = false;
                self.free.push(i as u16);
            }
        }
    }

    /// Offer a request for `kind` to the L1D: the arena entry stays only
    /// if the port accepted it.
    pub(crate) fn submit(
        &mut self,
        sh: &mut Shared,
        kind: MemReqKind,
        addr: u64,
        size: u64,
        data: u64,
    ) -> bool {
        let id = self.insert(sh.hart, kind);
        let access = match kind {
            MemReqKind::Load { .. } => AccessKind::Load,
            MemReqKind::AtomicLoad => AccessKind::LoadExclusive,
            MemReqKind::SbufferDrain | MemReqKind::AtomicStore => AccessKind::Store,
        };
        let accepted =
            sh.mem.submit_data(CoreReq { core: sh.hart, kind: access, addr, size, data, id });
        if !accepted {
            self.remove(id);
        }
        accepted
    }
}

/// Loads between issue and writeback, and every data request in flight.
#[derive(Debug, Clone, Default)]
pub(crate) struct LsuIssue {
    /// Requests in flight to the L1D (the atomics unit's included).
    pub inflight: InflightArena,
    /// Loads to re-issue: (retry_at, load).
    replay_q: Vec<(u64, RobTag)>,
    /// Loads whose value is known, waiting out their latency:
    /// (deliver_at, load, value).
    deferred_loads: Vec<(u64, RobTag, u64)>,
}

impl LsuIssue {
    /// The earliest cycle a replay or a deferred delivery is due.
    pub(crate) fn next_due(&self) -> Option<u64> {
        let replays = self.replay_q.iter().map(|&(at, _)| at);
        let deliveries = self.deferred_loads.iter().map(|&(at, ..)| at);
        replays.chain(deliveries).min()
    }

    /// Drop loads younger than `seq` from every queue here. Deferred
    /// deliveries stay: a stale one is recognized by its tag.
    pub(crate) fn squash(&mut self, seq: u64) {
        self.inflight.squash_loads(seq);
        self.replay_q.retain(|&(_, t)| t.seq <= seq);
    }

    /// Take the data-side completion `c`: a load delivers its value, a
    /// drained store leaves the store buffer. The kind of any other live
    /// request is handed back — it belongs to the atomics unit.
    #[inline(always)]
    pub(crate) fn complete(&mut self, sh: &mut Shared, c: &Completion) -> Option<MemReqKind> {
        let kind = self.inflight.remove(c.req.id)?; // None: squashed request
        match kind {
            MemReqKind::Load { tag } => {
                if sh.rob.live(tag) {
                    let v = load_extend(sh.rob.cold(tag.idx).uop.inst.op, c.data);
                    finish_load(sh, tag.idx, v);
                }
                None
            }
            MemReqKind::SbufferDrain => {
                let head = *sh.lsq.sbuffer.front().expect("drain completes head");
                sh.emit_drain(head.paddr, head.size, head.data);
                sh.lsq.sbuffer.pop_front();
                None
            }
            atomic => Some(atomic),
        }
    }

    /// Re-issue the replays that are due, deliver the deferred values
    /// that are due, then select from the store and load queues (stores
    /// first, so a same-cycle store/load pair forwards instead of racing).
    #[inline(always)]
    pub(crate) fn tick(&mut self, sh: &mut Shared) -> Progress {
        let cycle = sh.cycle;
        let mut inputs = 0;
        // One pass over the replays that were waiting, in place: a due
        // one leaves the queue and re-issues, and what a re-issue pushes
        // back lands behind the pass, due next cycle at the earliest.
        let mut i = 0;
        for _ in 0..self.replay_q.len() {
            let (at, tag) = self.replay_q[i];
            if at > cycle {
                i += 1;
                continue;
            }
            self.replay_q.remove(i);
            inputs += 1;
            if sh.rob.live(tag) {
                sh.mark_issued(tag);
                self.issue_load(sh, tag);
            }
        }
        // Delivering pushes nothing back: done where the entry stands.
        self.deferred_loads.retain(|&(at, tag, v)| {
            if at <= cycle {
                inputs += 1;
                if sh.rob.live(tag) {
                    finish_load(sh, tag.idx, v);
                }
            }
            at > cycle
        });
        // One pick buffer for the tick, built if a queue needs it.
        let mut picks = None;
        for qi in 0..sh.regs.iqs.len() {
            let iq = &mut sh.regs.iqs[qi];
            let class = iq.class;
            if !matches!(class, FuClass::Load | FuClass::Store) || iq.ready_count() == 0 {
                continue;
            }
            let picks = picks.get_or_insert_with(Picks::default);
            iq.select(picks);
            for &tag in picks.iter() {
                inputs += 1;
                sh.mark_issued(tag);
                if class == FuClass::Load {
                    self.issue_load(sh, tag);
                } else {
                    issue_store(sh, tag);
                }
            }
        }
        // Taken off a queue, not "a queue got shorter": a load replayed
        // again leaves `replay_q` as long as it found it.
        Progress(inputs > 0)
    }

    #[inline]
    fn issue_load(&mut self, sh: &mut Shared, tag: RobTag) {
        let idx = tag.idx;
        if sh.cfg.run.telemetry {
            let c = sh.rob.cold_mut(idx);
            if c.issued_at == 0 {
                c.issued_at = sh.cycle;
            }
        }
        let d = sh.rob.cold(idx).uop.inst;
        let lq_idx = sh.rob.hot(idx).lq_idx.expect("load has an LQ entry");
        let size = d.mem_size();
        let Some((va, pa, tlat)) = translate_uop(sh, idx, AccessType::Load) else {
            return;
        };
        // Record in the LQ.
        let l = &mut sh.lsq.lq[lq_idx];
        l.paddr = Some(pa);
        l.size = size;
        sh.rob.cold_mut(idx).mem_info = Some(CommitMem {
            vaddr: va,
            paddr: pa,
            size,
            is_store: false,
            value: 0,
            mmio: pa == MTIME || pa == UART_TX,
        });
        // MMIO loads resolve functionally.
        if pa == MTIME || pa == UART_TX {
            let v = if pa == MTIME { sh.csr.time } else { 0 };
            self.deliver_later(sh, tag, v, 4 + tlat);
            return;
        }
        // Store-to-load forwarding.
        match sh.lsq.forward(tag.seq, pa, size) {
            ForwardResult::Forward(raw) => {
                sh.perf.load_forwards += 1;
                let v = load_extend(d.op, raw);
                self.deliver_later(sh, tag, v, 2 + tlat);
            }
            ForwardResult::Stall => self.replay_load_later(sh, tag, 4),
            ForwardResult::None => {
                // Line-crossing loads take a slow functional path.
                if uncore::line_of(pa) != uncore::line_of(pa + size - 1) {
                    let raw = sh.mem.coherent_read(pa, size);
                    let v = load_extend(d.op, raw);
                    self.deliver_later(sh, tag, v, 8 + tlat);
                    return;
                }
                let kind = MemReqKind::Load { tag };
                if !self.inflight.submit(sh, kind, pa, size, 0) {
                    self.replay_load_later(sh, tag, 2);
                }
            }
        }
    }

    /// Put a load that could not proceed back to `Waiting`, to be
    /// re-issued in `delay` cycles.
    fn replay_load_later(&mut self, sh: &mut Shared, tag: RobTag, delay: u64) {
        sh.rob.hot_mut(tag.idx).state = RobState::Waiting;
        sh.rob.cold_mut(tag.idx).life.replays += 1;
        self.replay_q.push((sh.cycle + delay, tag));
    }

    /// Finish a load after `lat` cycles with an already-known value.
    fn deliver_later(&mut self, sh: &Shared, tag: RobTag, value: u64, lat: u64) {
        self.deferred_loads.push((sh.cycle + lat.max(1), tag, value));
    }

    /// Offer the oldest committed store to the L1D once its drain delay
    /// passed.
    #[inline(always)]
    pub(crate) fn drain(&mut self, sh: &mut Shared) -> Progress {
        let head = sh.lsq.sbuffer.front().copied();
        let head = head.filter(|h| !h.issued && h.drain_at <= sh.cycle);
        // A submit attempt (hit or rejected) counts as progress: MSHR
        // rejection statistics accrue per attempted cycle.
        let progress = Progress(head.is_some());
        if let Some(h) = head {
            let kind = MemReqKind::SbufferDrain;
            if self.inflight.submit(sh, kind, h.paddr, h.size, h.data) {
                sh.lsq.sbuffer.front_mut().expect("head").issued = true;
            }
        }
        progress
    }
}

/// Generate and translate the address of the load or store in `idx`:
/// `(va, pa, walk latency)`, or `None` with the fault left on the uop.
fn translate_uop(sh: &mut Shared, idx: RobIdx, access: AccessType) -> Option<(u64, u64, u64)> {
    let imm = sh.rob.cold(idx).uop.inst.imm;
    let base = sh.rob.hot(idx).phys_srcs[0].map_or(0, |(fp, p)| sh.regs.read(fp, p));
    let va = base.wrapping_add(imm as u64);
    match sh.translate(va, access) {
        MmuResult::Done { pa, latency } => Some((va, pa, latency)),
        MmuResult::Fault { cause, .. } => {
            sh.rob.cold_mut(idx).exception = Some((cause, va));
            sh.rob.hot_mut(idx).state = RobState::Done;
            None
        }
    }
}

/// Deliver the value of the (live) load in `idx`.
#[inline]
fn finish_load(sh: &mut Shared, idx: RobIdx, value: u64) {
    let cycle = sh.cycle;
    let e = sh.rob.hot_mut(idx);
    e.wb_value = value;
    e.state = RobState::Done;
    let (has_dest, fp, p, lq_idx) = (e.has_dest, e.dest_fp, e.phys_rd, e.lq_idx);
    let c = sh.rob.cold_mut(idx);
    if let Some(m) = &mut c.mem_info {
        m.value = value;
    }
    c.life.executed = cycle;
    c.life.writeback = cycle;
    let issued_at = c.issued_at;
    if let Some(li) = lq_idx {
        sh.lsq.lq[li].done = true;
    }
    if has_dest {
        sh.regs.write(fp, p, value);
    }
    if sh.cfg.run.telemetry && issued_at > 0 {
        sh.perf.load_to_use.record(cycle.saturating_sub(issued_at));
    }
}

#[inline]
fn issue_store(sh: &mut Shared, tag: RobTag) {
    let idx = tag.idx;
    let e = sh.rob.hot(idx);
    let sq_idx = e.sq_idx.expect("store has an SQ entry");
    let data = e.phys_srcs[1].map_or(0, |(fp, p)| sh.regs.read(fp, p));
    let size = sh.rob.cold(idx).uop.inst.mem_size();
    let Some((va, pa, _)) = translate_uop(sh, idx, AccessType::Store) else {
        return;
    };
    let mmio = pa == UART_TX || pa == MTIME;
    let s = &mut sh.lsq.sq[sq_idx];
    s.paddr = Some(pa);
    s.data = Some(data);
    s.size = size;
    s.mmio = mmio;
    sh.rob.hot_mut(idx).state = RobState::Done;
    let c = sh.rob.cold_mut(idx);
    c.mem_info = Some(CommitMem { vaddr: va, paddr: pa, size, is_store: true, value: data, mmio });
    c.life.executed = sh.cycle;
    c.life.writeback = sh.cycle;
    // Memory-order check: younger loads that already executed on an
    // overlapping address must replay.
    if let Some(viol) = sh.lsq.order_violation(tag.seq, pa, size) {
        debug_assert!(sh.rob.live(viol), "LQ entry outlived its ROB slot");
        sh.rob.hot_mut(viol.idx).replay_at_commit = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{dispatch, Bench, LD_X7_X5, SW_X6_X5};

    #[test]
    fn a_load_replayed_again_is_progress_though_the_queue_is_as_long() {
        let mut bench = Bench::new();
        let (mut sh, st) = bench.split();
        // A word store under a doubleword load of the same address: the
        // partial overlap cannot forward, so the load replays until the
        // store leaves the SQ — which, with no commit stage, is never.
        dispatch(&mut sh, st, &[SW_X6_X5, LD_X7_X5]);
        let lsu = &mut st.lsu;
        let load = sh.rob.nth(1);
        sh.cycle = 1;
        assert!(lsu.tick(&mut sh).0, "store and load issue");
        assert_eq!(sh.rob.hot(sh.rob.nth(0)).state, RobState::Done);
        assert_eq!((lsu.replay_q.len(), sh.rob.cold(load).life.replays), (1, 1));
        assert_eq!(lsu.next_due(), Some(5));

        sh.cycle = 2;
        assert!(!lsu.tick(&mut sh).0, "nothing due: a no-op");
        sh.cycle = 5;
        assert!(lsu.tick(&mut sh).0, "the replay was taken off the queue");
        assert_eq!((lsu.replay_q.len(), sh.rob.cold(load).life.replays), (1, 2));
        assert_eq!(sh.rob.hot(load).state, RobState::Waiting);
        assert_eq!(lsu.next_due(), Some(9));
    }

    fn load(seq: u64) -> MemReqKind {
        MemReqKind::Load { tag: RobTag { seq, ..Default::default() } }
    }

    #[test]
    fn inflight_arena_rejects_stale_and_fetch_ids() {
        let mut a = InflightArena::default();
        let id0 = a.insert(1, load(7));
        assert_eq!(id0 >> 56, 1, "hart tag in the top byte");
        assert_eq!(a.remove(id0), Some(load(7)));
        assert_eq!(a.remove(id0), None, "double completion ignored");
        // The slot is reused with a bumped generation: the old id is
        // recognized as stale instead of matching the new request.
        let id1 = a.insert(1, MemReqKind::SbufferDrain);
        assert_eq!(id0 & 0xffff, id1 & 0xffff, "slot reused");
        assert_ne!(id0, id1, "generation distinguishes reuse");
        assert_eq!(a.remove(id0), None, "stale generation ignored");
        assert_eq!(a.remove(id1), Some(MemReqKind::SbufferDrain));
        // Fetch ids never enter the arena.
        assert_eq!(a.remove(FETCH_ID_FLAG | 3), None);
    }

    #[test]
    fn inflight_arena_squashes_younger_loads_only() {
        let mut a = InflightArena::default();
        let keep = a.insert(0, load(3));
        let drop1 = a.insert(0, load(9));
        let drain = a.insert(0, MemReqKind::SbufferDrain);
        a.squash_loads(5);
        assert_eq!(a.remove(drop1), None, "flushed entry gone");
        assert_eq!(a.remove(keep), Some(load(3)));
        assert_eq!(a.remove(drain), Some(MemReqKind::SbufferDrain));
    }
}
