//! The reorder buffer: a fixed ring of slots addressed by handle.
//!
//! A uop has two names. Its *sequence number* is its age and identity:
//! monotonically increasing, never reused, so age comparisons and flush
//! boundaries are plain `seq` comparisons. Its *slot index* is where it
//! lives: every structure that refers to an in-flight uop (issue queues,
//! FU pipes, replay and deferred-load lists, in-flight memory requests,
//! LQ entries) keeps both as a [`RobTag`], reaches the entry in O(1)
//! through the index, and recognises a squashed uop by the slot's `seq`
//! no longer matching (free slots hold `seq == 0`).
//!
//! Each slot is split in two: the fields every stage reads or writes
//! ([`RobHot`], one cache line) and the bulky ones most stages leave
//! alone ([`RobCold`]: the uop, lifecycle stamps, commit-probe payloads,
//! the RAT snapshot). A third per-slot array holds the branch prediction
//! of control-flow uops, which no other uop reads or writes.

use crate::bpu::BranchPrediction;
use crate::lifecycle::LifeStamps;
use crate::lsu::LsqPos;
use crate::prf::{PReg, Rat};
use crate::uop::{CommitMem, Uop};
use riscv_isa::trap::Exception;

/// Execution state of a ROB entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RobState {
    /// Waiting in an issue queue (or for commit-time execution).
    #[default]
    Waiting,
    /// Issued to a functional unit / LSU.
    Issued,
    /// Result written back; ready to commit.
    Done,
}

/// Index of a ROB slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RobIdx(u16);

/// Handle to an in-flight uop: the slot it was allocated plus the
/// sequence number that proves the slot still holds it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RobTag {
    /// Sequence number (global program order; 0 is never allocated).
    pub seq: u64,
    /// The slot.
    pub idx: RobIdx,
}

/// The per-stage working set of one in-flight instruction.
#[derive(Debug, Clone, Copy, Default)]
#[repr(align(64))]
pub struct RobHot {
    /// Sequence number of the occupant (0 when the slot is free).
    pub seq: u64,
    /// Result value (for probes and commit-time writes).
    pub wb_value: u64,
    /// Physical source registers (fp?, preg).
    pub phys_srcs: [Option<(bool, PReg)>; 3],
    /// Physical destination (PRF::ZERO when none).
    pub phys_rd: PReg,
    /// Previous mapping of the destination (freed at commit).
    pub old_phys: PReg,
    /// Load-queue position, if a load.
    pub lq_idx: Option<LsqPos>,
    /// Store-queue position, if a store.
    pub sq_idx: Option<LsqPos>,
    /// Pipeline state.
    pub state: RobState,
    /// Floating-point flags accumulated by this instruction.
    pub fflags: u8,
    /// Destination is floating point.
    pub dest_fp: bool,
    /// Entry has a register destination.
    pub has_dest: bool,
    /// This uop was a move eliminated at rename (never executes).
    pub eliminated: bool,
    /// Executes at commit (CSR/system/atomics).
    pub commit_exec: bool,
    /// Resolved control flow: taken?
    pub actual_taken: bool,
    /// Was this branch found mispredicted at resolution?
    pub mispredicted: bool,
    /// BPU already trained/recovered at resolution time.
    pub bpu_resolved: bool,
    /// Memory-order violation: squash and re-fetch at commit.
    pub replay_at_commit: bool,
}

// One cache line per slot: a stage that only touches the hot half pays
// for exactly one line, whatever the neighbours are doing.
const _: () = assert!(std::mem::size_of::<RobHot>() <= 64);

/// The rest of an in-flight instruction: read at execute and commit,
/// written once or twice in a lifetime.
#[derive(Debug, Clone)]
pub struct RobCold {
    /// The micro-op.
    pub uop: Uop,
    /// Per-stage lifecycle stamps (always recorded; see
    /// [`crate::lifecycle`]).
    pub life: LifeStamps,
    /// Exception recorded during execution (taken at commit). An entry
    /// carrying one is always `Done`.
    pub exception: Option<(Exception, u64)>,
    /// Memory access info for the commit probe.
    pub mem_info: Option<CommitMem>,
    /// Resolved control flow: target.
    pub actual_target: u64,
    /// Cycle the uop issued (0 until issued; load-to-use telemetry).
    pub issued_at: u64,
    /// RAT snapshots (int, fp) for control-flow recovery. Written at
    /// rename for control-flow uops only; stale otherwise.
    pub rat_snapshot: (Rat, Rat),
}

/// The reorder buffer: a bounded FIFO of in-flight instructions.
#[derive(Debug)]
pub struct Rob {
    hot: Box<[RobHot]>,
    /// The cold halves, in ring order from slot `cold_base`: `cold[p]`
    /// belongs to slot `(cold_base + p) % capacity`. Grows to the
    /// capacity as the ring first advances past it, so booting a core
    /// does not pay for slots no uop has reached yet — and a clone,
    /// which starts its own at the head, does not pay for free ones.
    cold: Vec<RobCold>,
    /// The fetch-time prediction of each slot's occupant, in `cold`'s
    /// order. Only a control-flow uop taking the slot writes it; under
    /// another it is a leftover, and [`Rob::pred`] the one way to read.
    preds: Vec<Option<BranchPrediction>>,
    cold_base: usize,
    head: usize,
    len: usize,
    next_seq: u64,
}

impl Clone for Rob {
    /// Copies the live slots only (a LightSSS snapshot clones every
    /// core): free slots come back empty, which no holder of a [`RobTag`]
    /// can tell apart — a free slot is only ever asked for its `seq`.
    fn clone(&self) -> Self {
        let mut hot: Box<[RobHot]> = vec![RobHot::default(); self.hot.len()].into();
        let mut cold = Vec::with_capacity(self.len);
        let mut preds = Vec::with_capacity(self.len);
        for k in 0..self.len {
            let idx = self.nth(k);
            hot[idx.0 as usize] = *self.hot(idx);
            cold.push(self.cold(idx).clone());
            preds.push(self.pred(idx).cloned());
        }
        Rob {
            hot,
            cold,
            preds,
            cold_base: self.head,
            head: self.head,
            len: self.len,
            next_seq: self.next_seq,
        }
    }
}

impl Rob {
    /// Create a ROB with `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        assert!(
            capacity <= usize::from(u16::MAX),
            "ROB capacity over the RobIdx range"
        );
        Rob {
            hot: vec![RobHot::default(); capacity].into(),
            cold: Vec::with_capacity(capacity),
            preds: Vec::with_capacity(capacity),
            cold_base: 0,
            head: 0,
            len: 0,
            next_seq: 1,
        }
    }

    /// True when no more instructions can be renamed this cycle.
    pub fn is_full(&self) -> bool {
        self.len >= self.hot.len()
    }

    /// Number of in-flight instructions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Allocate the next entry (state `Waiting`) for `uop`, copied into
    /// the slot from where it stands: its handle, and both halves for
    /// rename to fill in place. `pred` is taken if `uop` is control flow
    /// and left alone otherwise.
    ///
    /// # Panics
    ///
    /// Panics when full — callers must check [`Rob::is_full`].
    pub fn push(
        &mut self,
        uop: &Uop,
        pred: &mut Option<BranchPrediction>,
    ) -> (RobTag, &mut RobHot, &mut RobCold) {
        assert!(!self.is_full(), "ROB overflow");
        let idx = self.nth(self.len);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        let p = self.cold_pos(idx);
        match self.cold.get_mut(p) {
            // A reused slot keeps its (stale) RAT snapshot: 128 bytes
            // only a control-flow uop needs rewritten.
            Some(c) => {
                c.uop = *uop;
                c.life = LifeStamps::default();
                c.exception = None;
                c.mem_info = None;
                c.actual_target = 0;
                c.issued_at = 0;
            }
            None => self.cold.push(RobCold {
                uop: *uop,
                life: LifeStamps::default(),
                exception: None,
                mem_info: None,
                actual_target: 0,
                issued_at: 0,
                rat_snapshot: ([0; 32], [0; 32]),
            }),
        }
        self.preds.resize(self.cold.len(), None); // grows with `cold`
        if uop.inst.is_control_flow() {
            self.preds[p] = pred.take();
        }
        let hot = &mut self.hot[idx.0 as usize];
        *hot = RobHot {
            seq,
            ..Default::default()
        };
        (RobTag { seq, idx }, hot, &mut self.cold[p])
    }

    /// The prediction fetch attached to the uop in `idx`: `None` unless
    /// it is control flow, whatever an earlier occupant left behind.
    #[inline]
    pub fn pred(&self, idx: RobIdx) -> Option<&BranchPrediction> {
        let p = self.cold_pos(idx);
        self.preds[p]
            .as_ref()
            .filter(|_| self.cold[p].uop.inst.is_control_flow())
    }

    /// Is the uop behind `tag` still in flight (neither committed nor
    /// squashed)?
    #[inline]
    pub fn live(&self, tag: RobTag) -> bool {
        self.hot[tag.idx.0 as usize].seq == tag.seq
    }

    /// The hot half of a slot.
    #[inline]
    pub fn hot(&self, idx: RobIdx) -> &RobHot {
        &self.hot[idx.0 as usize]
    }

    /// Mutable hot half of a slot.
    #[inline]
    pub fn hot_mut(&mut self, idx: RobIdx) -> &mut RobHot {
        &mut self.hot[idx.0 as usize]
    }

    /// The cold half of a slot.
    #[inline]
    pub fn cold(&self, idx: RobIdx) -> &RobCold {
        &self.cold[self.cold_pos(idx)]
    }

    /// Mutable cold half of a slot.
    #[inline]
    pub fn cold_mut(&mut self, idx: RobIdx) -> &mut RobCold {
        let p = self.cold_pos(idx);
        &mut self.cold[p]
    }

    /// The oldest entry's slot.
    pub fn head(&self) -> Option<RobIdx> {
        (self.len > 0).then_some(RobIdx(self.head as u16))
    }

    /// Free the oldest entry (commit). The slot's contents stay readable
    /// until the ring wraps around to it.
    pub fn pop_head(&mut self) {
        debug_assert!(self.len > 0, "pop from an empty ROB");
        self.hot[self.head].seq = 0;
        self.head = self.wrap(self.head + 1);
        self.len -= 1;
    }

    /// Slot of the `k`-th oldest entry (`k == len` is the next slot to be
    /// allocated).
    pub fn nth(&self, k: usize) -> RobIdx {
        debug_assert!(k <= self.len);
        RobIdx(self.wrap(self.head + k) as u16)
    }

    /// How many live entries are older than the live entry in `idx`.
    pub fn rank(&self, idx: RobIdx) -> usize {
        let r = self.ahead_of(self.head, idx);
        debug_assert!(r < self.len, "rank of a free slot");
        r
    }

    /// Keep the `keep` oldest entries and free the rest (flush): the tail
    /// rolls back, nothing moves.
    pub fn truncate(&mut self, keep: usize) {
        for k in keep..self.len {
            let idx = self.nth(k);
            self.hot[idx.0 as usize].seq = 0;
        }
        self.len = self.len.min(keep);
    }

    /// Where slot `idx`'s cold half lives in `cold`.
    #[inline]
    fn cold_pos(&self, idx: RobIdx) -> usize {
        self.ahead_of(self.cold_base, idx)
    }

    /// How many slots the ring advances from slot `base` to slot `idx`.
    #[inline]
    fn ahead_of(&self, base: usize, idx: RobIdx) -> usize {
        let i = idx.0 as usize;
        if i >= base {
            i - base
        } else {
            i + self.hot.len() - base
        }
    }

    #[inline]
    fn wrap(&self, i: usize) -> usize {
        if i >= self.hot.len() {
            i - self.hot.len()
        } else {
            i
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use riscv_isa::op::{DecodedInst, Op};
    use std::collections::VecDeque;

    fn uop_of(op: Op, pc: u64) -> Uop {
        Uop::new(
            pc,
            DecodedInst {
                op,
                rd: 1,
                len: 4,
                ..Default::default()
            },
            pc + 4,
        )
    }

    fn uop(pc: u64) -> Uop {
        uop_of(Op::Addi, pc)
    }

    /// A prediction recognisable by its target.
    fn pred(target: u64) -> BranchPrediction {
        BranchPrediction {
            taken: true,
            target,
            tage: None,
            ubtb_hit: false,
            low_confidence: false,
            ras_snapshot: Default::default(),
            ghist_before: 0,
        }
    }

    #[test]
    fn push_get_pop() {
        let mut rob = Rob::new(4);
        let t1 = rob.push(&uop(0x100), &mut None).0;
        let t2 = rob.push(&uop(0x104), &mut None).0;
        assert_eq!(rob.cold(t1.idx).uop.pc, 0x100);
        assert_eq!(rob.cold(t2.idx).uop.pc, 0x104);
        assert_eq!(rob.head(), Some(t1.idx));
        rob.pop_head();
        assert_eq!(rob.head(), Some(t2.idx));
        assert!(!rob.live(t1), "popped entries are unreachable");
        assert!(rob.live(t2));
    }

    #[test]
    fn capacity_enforced() {
        let mut rob = Rob::new(2);
        rob.push(&uop(0), &mut None);
        rob.push(&uop(4), &mut None);
        assert!(rob.is_full());
    }

    #[test]
    fn truncate_removes_younger() {
        let mut rob = Rob::new(8);
        let tags: Vec<RobTag> = (0..6).map(|i| rob.push(&uop(i * 4), &mut None).0).collect();
        rob.truncate(rob.rank(tags[2].idx) + 1);
        assert_eq!(rob.len(), 3);
        assert!(!rob.live(tags[3]));
        assert!(rob.live(tags[2]));
        // Seq numbers keep increasing after a flush, and the freed slot
        // is handed out again under a new seq.
        let t = rob.push(&uop(0x40), &mut None).0;
        assert!(t.seq > tags[5].seq);
        assert_eq!(t.idx, tags[3].idx);
        assert!(
            !rob.live(tags[3]),
            "a stale handle must not match the new occupant"
        );
        rob.truncate(0);
        assert!(rob.is_empty());
    }

    #[derive(Debug, Clone, Copy)]
    enum Step {
        /// Push a plain uop, a predicted branch or an unpredicted one
        /// (the parameter picks which).
        Push(usize),
        PopHead,
        FlushAfter(usize),
        FlushAll,
        Restore,
    }

    /// Weights 6 : 3 : 1 : 1 : 1 over push / pop / flush-after /
    /// flush-all / continue on a clone.
    fn step((kind, k): (u8, usize)) -> Step {
        match kind {
            0..=5 => Step::Push(k),
            6..=8 => Step::PopHead,
            9 => Step::FlushAfter(k),
            10 => Step::FlushAll,
            _ => Step::Restore,
        }
    }

    proptest! {
        // The full count is for the optimised CI leg (`cargo test
        // --release -p xscore`); a debug build runs a sample.
        #![proptest_config(ProptestConfig::with_cases(
            if cfg!(debug_assertions) { 128 } else { 4096 }
        ))]

        /// The ring against a `VecDeque` model: same occupancy, order
        /// and contents after every step, and every handle ever issued
        /// — including stale ones whose slot was reused after a flush —
        /// is live exactly while the model still holds its seq. A slot
        /// shows the prediction its occupant was pushed with and no
        /// other: a plain uop, or a branch pushed without one, in a slot
        /// a predicted branch held before shows none. A snapshot restore
        /// (the run continues on a clone, which holds the live slots
        /// only) changes none of it.
        #[test]
        fn ring_matches_deque_model(
            cap in 1usize..12,
            steps in prop::collection::vec((0u8..12, 0usize..16), 1..200),
        ) {
            let mut rob = Rob::new(cap);
            let mut model: VecDeque<(RobTag, u64, Option<u64>)> = VecDeque::new();
            let mut issued: Vec<RobTag> = Vec::new();
            let mut last_seq = 0;
            for (n, &s) in steps.iter().enumerate() {
                match step(s) {
                    Step::Push(kind) => {
                        prop_assert_eq!(rob.is_full(), model.len() == cap);
                        if !rob.is_full() {
                            let pc = 0x1000 + 4 * n as u64;
                            let (op, mut p) = match kind % 3 {
                                0 => (Op::Addi, None),
                                1 => (Op::Beq, Some(pred(pc))),
                                _ => (Op::Jal, None),
                            };
                            let predicted = p.as_ref().map(|p| p.target);
                            let t = rob.push(&uop_of(op, pc), &mut p).0;
                            prop_assert!(p.is_none(), "a branch's prediction moves into its slot");
                            prop_assert!(t.seq > last_seq, "seq reused or not monotone");
                            last_seq = t.seq;
                            model.push_back((t, pc, predicted));
                            issued.push(t);
                        }
                    }
                    Step::PopHead => {
                        if model.pop_front().is_some() {
                            rob.pop_head();
                        }
                    }
                    Step::FlushAfter(k) => {
                        if let Some(&(t, ..)) = model.get(k) {
                            rob.truncate(rob.rank(t.idx) + 1);
                            model.truncate(k + 1);
                        }
                    }
                    Step::FlushAll => {
                        rob.truncate(0);
                        model.clear();
                    }
                    Step::Restore => {
                        rob = rob.clone();
                        prop_assert_eq!(rob.cold.len(), model.len(), "live slots only");
                        prop_assert_eq!(rob.preds.len(), model.len(), "of every per-slot array");
                    }
                }
                prop_assert_eq!(rob.len(), model.len());
                prop_assert_eq!(rob.head(), model.front().map(|&(t, ..)| t.idx));
                for (k, &(t, pc, predicted)) in model.iter().enumerate() {
                    prop_assert_eq!(rob.nth(k), t.idx);
                    prop_assert_eq!(rob.rank(t.idx), k);
                    prop_assert_eq!(rob.hot(t.idx).seq, t.seq);
                    prop_assert_eq!(rob.cold(t.idx).uop.pc, pc);
                    prop_assert_eq!(rob.pred(t.idx).map(|p| p.target), predicted);
                }
                for &t in &issued {
                    prop_assert_eq!(rob.live(t), model.iter().any(|&(m, ..)| m == t));
                }
            }
        }
    }
}
