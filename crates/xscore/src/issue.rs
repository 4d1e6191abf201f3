//! Distributed issue queues with the AGE baseline policy and PUBS
//! (Prioritizing Unconfident Branch Slices, paper §IV-D).
//!
//! PUBS components per the original paper [Ando, MICRO'18] as summarized
//! in §IV-D2: a confidence estimation table (`ConfTable`), a branch slice
//! table (`BrSliceTable`) + define table (`DefTable`) that propagate
//! "this instruction feeds an unconfident branch" backwards through
//! producers, and a prioritized select (`PriorityIssue`).

use crate::config::IssuePolicy;
use crate::prf::{PReg, Prf, WAIT_QUEUES};
use crate::rob::{RobIdx, RobTag};
use riscv_isa::op::FuClass;

/// Upper bound on any queue's per-cycle issue width, so a cycle's
/// selections fit in a fixed stack buffer ([`Picks`]) instead of a
/// heap allocation on the hottest loop in the model.
pub const MAX_ISSUE_WIDTH: usize = 8;

/// Slots per queue: one bit each in the `u32` ready and waiter masks.
pub const IQ_SLOTS: usize = 32;

/// A uop's renamed sources, `(fp, preg)` per operand slot.
pub type Srcs = [Option<(bool, PReg)>; 3];

/// Up to [`MAX_ISSUE_WIDTH`] selected uops, best policy key first: the
/// buffer a stage lends to every [`IssueQueue::select`] of its tick. A
/// select only rewinds `len`; the tags past it are an earlier, longer
/// pick's leftovers and are never handed out.
#[derive(Debug, Default)]
pub struct Picks {
    tags: [RobTag; MAX_ISSUE_WIDTH],
    len: usize,
}

impl std::ops::Deref for Picks {
    type Target = [RobTag];

    /// The uops the last select picked, best key first.
    fn deref(&self) -> &[RobTag] {
        &self.tags[..self.len]
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct IqSlot {
    seq: u64,
    rob: RobIdx,
    /// Distinct sources not yet written.
    pending: u8,
    /// Kept to find the slot's waiter bits again on a flush. The copy
    /// can never go stale: sources are fixed at rename.
    srcs: Srcs,
}

/// A single distributed issue queue, driven by wakeups.
///
/// Entries live in fixed slots. A slot with unwritten sources is
/// registered as a waiter on each of them in the PRF
/// ([`Prf::add_waiter`]); every register write returns its waiters, and
/// [`IssueQueue::wake`] counts the slot's pending sources down, setting
/// its bit in `ready` at zero. A waiter bit therefore exists exactly
/// while its slot is occupied by the uop that registered it and that
/// source is unwritten — the write clears it, and a flush clears those
/// of the slots it frees — so `ready` always equals what polling every
/// entry's sources would find, and `ready_count` is a popcount.
///
/// All state is inline and contiguous (`age`, the masks and the slots
/// share a handful of cache lines): the tick is bound by distinct host
/// cache lines touched, not by entries examined.
#[derive(Debug, Clone)]
pub struct IssueQueue {
    /// FU class served.
    pub class: FuClass,
    /// Maximum instructions selected per cycle.
    pub width: usize,
    /// This queue's column in the PRF waiter rows.
    index: usize,
    capacity: usize,
    policy: IssuePolicy,
    len: usize,
    /// Occupied slots whose sources are all written.
    ready: u32,
    /// Occupied slots carrying the PUBS high-priority mark.
    high: u32,
    /// Free slots.
    free: u32,
    /// Occupied slots, oldest first (dispatch order is program order).
    age: [u8; IQ_SLOTS],
    slots: [IqSlot; IQ_SLOTS],
}

impl IssueQueue {
    /// Create queue number `index` of the core.
    pub fn new(
        index: usize,
        class: FuClass,
        capacity: usize,
        width: usize,
        policy: IssuePolicy,
    ) -> Self {
        assert!(
            width <= MAX_ISSUE_WIDTH,
            "issue width {width} over the Picks bound"
        );
        assert!(
            capacity <= IQ_SLOTS,
            "issue queue capacity {capacity} over the slot-mask bound"
        );
        assert!(
            index < WAIT_QUEUES,
            "issue queue {index} over the waiter-row bound"
        );
        IssueQueue {
            class,
            width,
            index,
            capacity,
            policy,
            len: 0,
            ready: 0,
            high: 0,
            free: if capacity == IQ_SLOTS {
                u32::MAX
            } else {
                (1 << capacity) - 1
            },
            age: [0; IQ_SLOTS],
            slots: [IqSlot::default(); IQ_SLOTS],
        }
    }

    /// True when no entry can be dispatched this cycle.
    pub fn is_full(&self) -> bool {
        self.len >= self.capacity
    }

    /// Occupancy.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Entries whose operands are all available (the Fig. 15 statistic).
    pub fn ready_count(&self) -> usize {
        self.ready.count_ones() as usize
    }

    /// Insert a dispatched uop (younger than everything in the queue)
    /// with its renamed sources, registering it as a waiter on each
    /// source that is not written yet.
    ///
    /// # Panics
    ///
    /// Panics when full.
    pub fn dispatch(
        &mut self,
        tag: RobTag,
        high_priority: bool,
        srcs: Srcs,
        prf_int: &mut Prf,
        prf_fp: &mut Prf,
    ) {
        assert!(!self.is_full(), "issue queue overflow");
        debug_assert!(
            self.len == 0 || self.slots[self.age[self.len - 1] as usize].seq < tag.seq,
            "dispatch out of program order"
        );
        let slot = self.free.trailing_zeros() as usize;
        let bit = 1u32 << slot;
        self.free &= !bit;
        let mut pending = 0;
        for (i, src) in srcs.iter().enumerate() {
            let Some((fp, p)) = *src else { continue };
            let prf = if fp { &mut *prf_fp } else { &mut *prf_int };
            // One waiter bit per register: a repeated source counts once.
            if !prf.is_ready(p) && !srcs[..i].contains(src) {
                prf.add_waiter(p, self.index, slot);
                pending += 1;
            }
        }
        self.slots[slot] = IqSlot {
            seq: tag.seq,
            rob: tag.idx,
            pending,
            srcs,
        };
        if pending == 0 {
            self.ready |= bit;
        }
        if high_priority {
            self.high |= bit;
        }
        self.age[self.len] = slot as u8;
        self.len += 1;
    }

    /// A register write found `slots` of this queue waiting for it.
    pub fn wake(&mut self, mut slots: u32) {
        while slots != 0 {
            let slot = slots.trailing_zeros() as usize;
            slots &= slots - 1;
            let s = &mut self.slots[slot];
            debug_assert!(
                self.free & (1 << slot) == 0 && s.pending > 0,
                "wakeup of a slot that is not waiting"
            );
            s.pending -= 1;
            if s.pending == 0 {
                self.ready |= 1 << slot;
            }
        }
    }

    /// Select up to `width` ready entries into `picks` (rewound first)
    /// and remove them.
    ///
    /// The picks come best policy key first — oldest for AGE,
    /// unconfident-branch-slice entries first for PUBS (`PriorityIssue`),
    /// age breaking ties. Returns the number of entries that were ready
    /// before selection. No allocation, and no work at all when nothing
    /// is ready: the age list is walked once per priority class,
    /// stopping at `width` picks.
    pub fn select(&mut self, picks: &mut Picks) -> usize {
        picks.len = 0;
        let ready_count = self.ready_count();
        if ready_count == 0 {
            return 0;
        }
        let passes = match self.policy {
            IssuePolicy::Age => [self.ready, 0],
            IssuePolicy::Pubs => [self.ready & self.high, self.ready & !self.high],
        };
        let mut picked = 0u32;
        for mut pass in passes {
            for &slot in &self.age[..self.len] {
                if pass == 0 || picks.len == self.width {
                    break;
                }
                let bit = 1u32 << slot;
                if pass & bit != 0 {
                    pass &= !bit;
                    picked |= bit;
                    let s = &self.slots[slot as usize];
                    picks.tags[picks.len] = RobTag {
                        seq: s.seq,
                        idx: s.rob,
                    };
                    picks.len += 1;
                }
            }
        }
        self.release(picked);
        ready_count
    }

    /// Free `slots` and close the gaps they leave in the age list.
    fn release(&mut self, slots: u32) {
        let mut kept = 0;
        for i in 0..self.len {
            let slot = self.age[i];
            if slots & (1 << slot) == 0 {
                self.age[kept] = slot;
                kept += 1;
            }
        }
        self.len = kept;
        self.free |= slots;
        self.ready &= !slots;
        self.high &= !slots;
    }

    /// Remove entries younger than `seq` (flush), withdrawing the waiter
    /// bits they still hold. The age list is in program order, so the
    /// flushed entries are its tail.
    pub fn flush_after(&mut self, seq: u64, prf_int: &mut Prf, prf_fp: &mut Prf) {
        let mut flushed = 0u32;
        for &slot in self.age[..self.len].iter().rev() {
            let s = &self.slots[slot as usize];
            if s.seq <= seq {
                break;
            }
            if s.pending > 0 {
                for &(fp, p) in s.srcs.iter().flatten() {
                    let prf = if fp { &mut *prf_fp } else { &mut *prf_int };
                    prf.remove_waiter(p, self.index, slot as usize);
                }
            }
            flushed |= 1 << slot;
        }
        self.release(flushed);
    }

    /// Raise the priority of a specific in-flight entry (PUBS back-
    /// propagation marks producers after dispatch).
    pub fn mark_high_priority(&mut self, seq: u64) {
        for &slot in &self.age[..self.len] {
            if self.slots[slot as usize].seq == seq {
                self.high |= 1 << slot;
            }
        }
    }
}

// ---------------------------------------------------------------------
// PUBS tables.
// ---------------------------------------------------------------------

/// Branch confidence estimation table (PUBS `ConfTable`): a table of
/// resetting counters — a branch is *confident* once it has been
/// predicted correctly `threshold` times in a row.
#[derive(Debug, Clone)]
pub struct ConfTable {
    counters: Vec<u8>,
    threshold: u8,
}

impl ConfTable {
    /// Create a table with `entries` counters (power of two).
    pub fn new(entries: usize, threshold: u8) -> Self {
        ConfTable {
            counters: vec![0; entries.next_power_of_two()],
            threshold,
        }
    }

    fn idx(&self, pc: u64) -> usize {
        ((pc >> 1) as usize) & (self.counters.len() - 1)
    }

    /// Is the branch at `pc` low-confidence?
    pub fn unconfident(&self, pc: u64) -> bool {
        self.counters[self.idx(pc)] < self.threshold
    }

    /// Train on a resolved branch.
    pub fn update(&mut self, pc: u64, mispredicted: bool) {
        let i = self.idx(pc);
        if mispredicted {
            self.counters[i] = 0;
        } else {
            self.counters[i] = (self.counters[i] + 1).min(self.threshold);
        }
    }
}

/// PUBS define/branch-slice tracking at rename time.
///
/// `DefTable` maps each architectural register to the sequence number of
/// its most recent producer; when an unconfident branch renames, its
/// operand producers (and transitively *their* producers, one level per
/// rename pass, which converges quickly in practice) are marked
/// high-priority via the issue queues.
#[derive(Debug, Clone, Default)]
pub struct DefTable {
    producer: [u64; 32],
}

impl DefTable {
    /// Create an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that `seq` produces architectural register `rd`.
    pub fn define(&mut self, rd: u8, seq: u64) {
        if rd != 0 {
            self.producer[rd as usize] = seq;
        }
    }

    /// The most recent producer of `rs` (0 = none in flight).
    pub fn producer_of(&self, rs: u8) -> u64 {
        self.producer[rs as usize]
    }

    /// Forget everything (flush).
    pub fn clear(&mut self) {
        self.producer = [0; 32];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The scan-based queue the wakeup queue replaced, kept as the
    /// reference: collect every entry whose sources poll ready, keep the
    /// `width` smallest `(deprioritized, seq)` keys.
    struct ScanQueue {
        width: usize,
        policy: IssuePolicy,
        entries: Vec<(u64, bool, Srcs)>,
    }

    impl ScanQueue {
        fn select(&mut self, mut ready: impl FnMut(&Srcs) -> bool) -> (Vec<u64>, usize) {
            let mut keys: Vec<(bool, u64)> = self
                .entries
                .iter()
                .filter(|e| ready(&e.2))
                .map(|e| match self.policy {
                    IssuePolicy::Age => (false, e.0),
                    IssuePolicy::Pubs => (!e.1, e.0),
                })
                .collect();
            let ready_count = keys.len();
            keys.sort_unstable();
            keys.truncate(self.width);
            let picks: Vec<u64> = keys.into_iter().map(|k| k.1).collect();
            self.entries.retain(|e| !picks.contains(&e.0));
            (picks, ready_count)
        }
    }

    fn tag(seq: u64) -> RobTag {
        RobTag {
            seq,
            ..Default::default()
        }
    }

    /// A queue with both register files and the one pick buffer every
    /// select reuses; every register starts unwritten.
    struct Bench {
        iq: IssueQueue,
        int: Prf,
        fp: Prf,
        picks: Picks,
    }

    impl Bench {
        fn new(policy: IssuePolicy) -> Self {
            Bench {
                iq: IssueQueue::new(1, FuClass::Alu, 8, 2, policy),
                int: Prf::new(16),
                fp: Prf::new(16),
                picks: Picks::default(),
            }
        }

        fn dispatch(&mut self, seq: u64, high_priority: bool, srcs: Srcs) {
            self.iq
                .dispatch(tag(seq), high_priority, srcs, &mut self.int, &mut self.fp);
        }

        fn write(&mut self, fp: bool, p: PReg) {
            let row = if fp {
                self.fp.write(p, 0)
            } else {
                self.int.write(p, 0)
            };
            self.iq.wake(row[1]);
        }

        fn select(&mut self) -> (Vec<u64>, usize) {
            let ready = self.iq.select(&mut self.picks);
            (self.picks.iter().map(|t| t.seq).collect(), ready)
        }
    }

    #[test]
    fn a_select_with_nothing_ready_rewinds_the_reused_buffer() {
        let mut b = Bench::new(IssuePolicy::Age);
        b.dispatch(1, false, [None; 3]);
        b.dispatch(2, false, [None; 3]);
        b.dispatch(3, false, [Some((false, 4)), None, None]);
        assert_eq!(b.select(), (vec![1, 2], 2));
        // Seq 3 still waits: the two tags of the pick before are past
        // `len` now, and nothing hands them out.
        assert_eq!(b.iq.select(&mut b.picks), 0, "ready count");
        assert!(b.picks.is_empty());
        assert_eq!(b.iq.ready_count(), 0);
        b.write(false, 4);
        assert_eq!(b.select(), (vec![3], 1), "a shorter pick over a longer one");
    }

    #[test]
    fn age_policy_prefers_oldest() {
        let mut b = Bench::new(IssuePolicy::Age);
        b.dispatch(3, false, [None; 3]);
        b.dispatch(5, true, [None; 3]);
        b.dispatch(9, false, [None; 3]);
        assert_eq!(b.select(), (vec![3, 5], 3));
        assert_eq!(b.iq.len(), 1);
    }

    #[test]
    fn pubs_policy_prefers_marked_entries() {
        let mut b = Bench::new(IssuePolicy::Pubs);
        b.dispatch(3, false, [None; 3]);
        b.dispatch(5, false, [None; 3]);
        b.dispatch(9, true, [None; 3]);
        assert_eq!(b.select().0, vec![9, 3], "priority first, then age");
    }

    #[test]
    fn only_woken_entries_are_selected() {
        let mut b = Bench::new(IssuePolicy::Age);
        // A repeated source is one waiter; a second register is a second.
        b.dispatch(
            1,
            false,
            [Some((false, 4)), Some((false, 4)), Some((true, 4))],
        );
        b.dispatch(2, false, [Some((false, 5)), None, None]);
        assert_eq!(b.select(), (vec![], 0));
        b.write(false, 5);
        b.write(false, 4);
        assert_eq!(b.select(), (vec![2], 1), "seq 1 still waits for f4");
        b.write(true, 4);
        assert_eq!(b.select(), (vec![1], 1));
        assert!(b.iq.is_empty());
    }

    #[test]
    fn flush_removes_younger_and_their_waiter_bits() {
        let mut b = Bench::new(IssuePolicy::Age);
        for s in 1..=5 {
            b.dispatch(s, false, [Some((false, 7)), None, None]);
        }
        b.iq.flush_after(2, &mut b.int, &mut b.fp);
        assert_eq!(b.iq.len(), 2);
        assert_eq!(
            b.int.waiters(7)[1].count_ones(),
            2,
            "flushed slots no longer wait"
        );
        b.write(false, 7);
        assert_eq!(b.select(), (vec![1, 2], 2));
        b.iq.flush_after(0, &mut b.int, &mut b.fp);
        assert!(b.iq.is_empty());
    }

    #[test]
    fn late_priority_marking() {
        let mut b = Bench::new(IssuePolicy::Pubs);
        b.dispatch(1, false, [None; 3]);
        b.dispatch(2, false, [None; 3]);
        b.iq.mark_high_priority(2);
        assert_eq!(b.select().0[0], 2);
    }

    /// One in-flight uop of the differential model.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Stage {
        Queued,
        Issued,
        Done,
    }

    #[derive(Debug, Clone, Copy)]
    struct ModelUop {
        seq: u64,
        dest: (bool, PReg),
        srcs: Srcs,
        stage: Stage,
    }

    const QI: usize = 3;

    /// The wakeup queue and the scan oracle driven by one script inside
    /// a miniature rename/retire model, so registers are allocated,
    /// written, freed and recycled the way the core does it.
    struct Diff<'a> {
        iq: IssueQueue,
        /// Lent by the test: one buffer for every select of every script.
        picks: &'a mut Picks,
        oracle: ScanQueue,
        int: Prf,
        fp: Prf,
        uops: Vec<ModelUop>,
        /// Destinations of retired uops that an in-flight uop still reads.
        retired: Vec<(bool, PReg)>,
        next_seq: u64,
    }

    impl Diff<'_> {
        fn prf(&mut self, fp: bool) -> &mut Prf {
            if fp {
                &mut self.fp
            } else {
                &mut self.int
            }
        }

        fn polls_ready(&self, srcs: &Srcs) -> bool {
            srcs.iter().flatten().all(|&(fp, p)| {
                if fp {
                    self.fp.is_ready(p)
                } else {
                    self.int.is_ready(p)
                }
            })
        }

        fn release_unread(&mut self) {
            let uops = std::mem::take(&mut self.uops);
            let read =
                |r: &(bool, PReg)| uops.iter().any(|u| u.srcs.iter().flatten().any(|s| s == r));
            let (keep, free): (Vec<_>, Vec<_>) = std::mem::take(&mut self.retired)
                .into_iter()
                .partition(read);
            self.uops = uops;
            self.retired = keep;
            for (fp, p) in free {
                self.prf(fp).release(p);
            }
        }

        fn flush_after(&mut self, keep: usize) {
            let seq = if keep == 0 {
                0
            } else {
                self.uops[keep - 1].seq
            };
            // The order of the core: squashed destinations go back to
            // the free list, then the queues drop the squashed entries.
            for u in self.uops.split_off(keep) {
                self.prf(u.dest.0).release(u.dest.1);
            }
            self.iq.flush_after(seq, &mut self.int, &mut self.fp);
            self.oracle.entries.retain(|e| e.0 <= seq);
        }

        fn step(
            &mut self,
            (kind, a, b, c): (u8, usize, usize, usize),
        ) -> Result<(), TestCaseError> {
            let n = self.uops.len();
            match kind {
                // Dispatch: sources are older in-flight or retired
                // destinations (written or not), possibly repeated.
                0..=4 => {
                    let dest_fp = a & 1 == 1;
                    if !self.iq.is_full() && self.prf(dest_fp).free_count() > 0 {
                        let mut pool: Vec<(bool, PReg)> =
                            self.uops.iter().map(|u| u.dest).collect();
                        pool.extend(&self.retired);
                        let mut srcs: Srcs = [None; 3];
                        for (i, pick) in [a >> 1, b, c].into_iter().enumerate() {
                            if !pool.is_empty() && pick % 4 != 0 {
                                srcs[i] = Some(pool[(pick / 4) % pool.len()]);
                            }
                        }
                        let dest = (dest_fp, self.prf(dest_fp).alloc().expect("checked free"));
                        let seq = self.next_seq;
                        self.next_seq += 1 + (c as u64 & 1); // gaps, like after a flush
                        let high = b % 5 == 0;
                        self.iq
                            .dispatch(tag(seq), high, srcs, &mut self.int, &mut self.fp);
                        self.oracle.entries.push((seq, high, srcs));
                        self.uops.push(ModelUop {
                            seq,
                            dest,
                            srcs,
                            stage: Stage::Queued,
                        });
                    }
                }
                // Select, compared pick for pick.
                5..=7 => {
                    let ready = self.iq.select(self.picks);
                    let picks: Vec<u64> = self.picks.iter().map(|t| t.seq).collect();
                    let (int, fp) = (&self.int, &self.fp);
                    let (want, want_ready) = self.oracle.select(|s| {
                        s.iter()
                            .flatten()
                            .all(|&(f, p)| if f { fp.is_ready(p) } else { int.is_ready(p) })
                    });
                    prop_assert_eq!(&picks, &want);
                    prop_assert_eq!(ready, want_ready);
                    prop_assert_eq!(self.iq.ready_count(), want_ready - want.len());
                    for u in &mut self.uops {
                        if picks.contains(&u.seq) {
                            prop_assert_eq!(
                                u.stage,
                                Stage::Queued,
                                "a selected slot must be waiting"
                            );
                            u.stage = Stage::Issued;
                        }
                    }
                }
                // An issued uop writes back and wakes its consumers.
                8..=10 => {
                    let issued: Vec<usize> = (0..n)
                        .filter(|&i| self.uops[i].stage == Stage::Issued)
                        .collect();
                    if !issued.is_empty() {
                        let u = &mut self.uops[issued[a % issued.len()]];
                        u.stage = Stage::Done;
                        let (fp, p) = u.dest;
                        let row = self.prf(fp).write(p, 0);
                        for (q, &m) in row.iter().enumerate() {
                            prop_assert!(q == QI || m == 0, "waiter bit in another queue's column");
                        }
                        self.iq.wake(row[QI]);
                    }
                }
                // In-order retire.
                11..=12 => {
                    if n > 0 && self.uops[0].stage == Stage::Done {
                        let u = self.uops.remove(0);
                        self.retired.push(u.dest);
                    }
                }
                13 => {
                    if n > 0 {
                        self.flush_after(a % n + 1);
                    }
                }
                14 => self.flush_after(0),
                _ => {
                    if n > 0 {
                        let seq = self.uops[a % n].seq;
                        self.iq.mark_high_priority(seq);
                        for e in &mut self.oracle.entries {
                            e.1 |= e.0 == seq;
                        }
                    }
                }
            }
            self.release_unread();
            // The queues agree without selecting...
            prop_assert_eq!(self.iq.len(), self.oracle.entries.len());
            let polled = self
                .oracle
                .entries
                .iter()
                .filter(|e| self.polls_ready(&e.2))
                .count();
            prop_assert_eq!(self.iq.ready_count(), polled);
            // ...and a register has exactly one waiter bit per queued uop
            // still waiting for it: none on a written, freed or recycled
            // one.
            for fp in [false, true] {
                let prf = if fp { &self.fp } else { &self.int };
                for p in 0..24 {
                    let waiting = self
                        .uops
                        .iter()
                        .filter(|u| {
                            u.stage == Stage::Queued
                                && u.srcs.contains(&Some((fp, p)))
                                && !prf.is_ready(p)
                        })
                        .count();
                    prop_assert_eq!(
                        prf.waiters(p)[QI].count_ones() as usize,
                        waiting,
                        "waiters of {}{}",
                        if fp { 'f' } else { 'p' },
                        p
                    );
                    if prf.refcount(p) == 0 {
                        prop_assert_eq!(waiting, 0, "a queued uop reads a freed register");
                    }
                }
            }
            Ok(())
        }
    }

    proptest! {
        // The full count is for the optimised CI leg (`cargo test
        // --release -p xscore`); a debug build runs a sample.
        #![proptest_config(ProptestConfig::with_cases(
            if cfg!(debug_assertions) { 128 } else { 4096 }
        ))]

        /// Random dispatch / select / wake / retire / flush / mark
        /// scripts, each run under both policies with every select of
        /// both runs writing into one pick buffer: equal picks, pick
        /// order and ready count at every step, so nothing an earlier,
        /// longer pick left in the buffer is ever handed out.
        #[test]
        fn wakeup_queue_matches_scan_oracle(
            capacity in 1usize..=IQ_SLOTS,
            width in 1usize..=4,
            script in prop::collection::vec((0u8..16, 0usize..64, 0usize..64, 0usize..64), 1..300),
        ) {
            let mut picks = Picks::default();
            for policy in [IssuePolicy::Pubs, IssuePolicy::Age] {
                let mut d = Diff {
                    iq: IssueQueue::new(QI, FuClass::Alu, capacity, width, policy),
                    picks: &mut picks,
                    oracle: ScanQueue { width, policy, entries: Vec::new() },
                    int: Prf::new(24),
                    fp: Prf::new(24),
                    uops: Vec::new(),
                    retired: Vec::new(),
                    next_seq: 1,
                };
                for &s in &script {
                    d.step(s)?;
                }
            }
        }
    }

    #[test]
    fn conf_table_learns_confidence() {
        let mut ct = ConfTable::new(64, 3);
        let pc = 0x1000;
        assert!(ct.unconfident(pc), "cold branches are unconfident");
        for _ in 0..3 {
            ct.update(pc, false);
        }
        assert!(!ct.unconfident(pc));
        ct.update(pc, true); // one mispredict resets
        assert!(ct.unconfident(pc));
    }

    #[test]
    fn def_table_tracks_producers() {
        let mut dt = DefTable::new();
        dt.define(5, 100);
        dt.define(0, 101); // x0 never recorded
        assert_eq!(dt.producer_of(5), 100);
        assert_eq!(dt.producer_of(0), 0);
        dt.define(5, 102);
        assert_eq!(dt.producer_of(5), 102);
        dt.clear();
        assert_eq!(dt.producer_of(5), 0);
    }
}
