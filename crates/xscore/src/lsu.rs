//! Load queue, store queue, and the store buffer.
//!
//! The store buffer holds *committed* stores draining lazily into the L1D
//! — the structure behind two paper scenarios: store-to-load forwarding
//! under RVWMO (§III-B2b) and the stale-PTE window of Fig. 3 (the PTW
//! does not snoop the store buffer).

use crate::rob::{RobIdx, RobTag};
use std::collections::VecDeque;
use std::ops::{Deref, Index, IndexMut};

/// Position of an entry in the LQ or SQ: what a ROB entry's `lq_idx` /
/// `sq_idx` holds. Positions count allocations (wrapping), roll back on
/// a flush, and stay valid until the entry leaves the queue.
pub type LsqPos = u16;

/// An age-ordered queue addressed by position: entries enter at the back
/// in program order, leave at the front in program order (commit), and
/// a flush truncates the back — so nothing ever has to be searched for.
#[derive(Debug, Clone)]
pub struct AgeRing<T> {
    entries: VecDeque<T>,
    /// Position of the front entry.
    base: LsqPos,
    cap: LsqPos,
}

impl<T> AgeRing<T> {
    fn with_capacity(cap: usize) -> Self {
        AgeRing {
            entries: VecDeque::with_capacity(cap),
            base: 0,
            cap: LsqPos::try_from(cap).expect("queue capacity within the LsqPos range"),
        }
    }

    /// True when no entry can be allocated.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= usize::from(self.cap)
    }

    fn push(&mut self, e: T) -> LsqPos {
        let pos = self.base.wrapping_add(self.entries.len() as LsqPos);
        self.entries.push_back(e);
        pos
    }

    fn pop_front(&mut self) -> Option<T> {
        let e = self.entries.pop_front()?;
        self.base = self.base.wrapping_add(1);
        Some(e)
    }

    /// Drop the youngest entries while `younger` holds for them.
    fn truncate_while(&mut self, mut younger: impl FnMut(&T) -> bool) {
        while self.entries.back().is_some_and(&mut younger) {
            self.entries.pop_back();
        }
    }
}

/// Read-only access to the entries, oldest first.
impl<T> Deref for AgeRing<T> {
    type Target = VecDeque<T>;
    fn deref(&self) -> &VecDeque<T> {
        &self.entries
    }
}

impl<T> Index<LsqPos> for AgeRing<T> {
    type Output = T;
    fn index(&self, pos: LsqPos) -> &T {
        &self.entries[usize::from(pos.wrapping_sub(self.base))]
    }
}

impl<T> IndexMut<LsqPos> for AgeRing<T> {
    fn index_mut(&mut self, pos: LsqPos) -> &mut T {
        &mut self.entries[usize::from(pos.wrapping_sub(self.base))]
    }
}

/// A load-queue entry.
#[derive(Debug, Clone, Copy)]
pub struct LqEntry {
    /// Owning ROB sequence number.
    pub seq: u64,
    /// Owning ROB slot.
    pub rob: RobIdx,
    /// Physical address once translated.
    pub paddr: Option<u64>,
    /// Access size.
    pub size: u64,
    /// The load has produced its value.
    pub done: bool,
}

/// A store-queue entry.
#[derive(Debug, Clone, Copy)]
pub struct SqEntry {
    /// Owning ROB sequence number.
    pub seq: u64,
    /// Physical address once the address uop executed.
    pub paddr: Option<u64>,
    /// Access size.
    pub size: u64,
    /// Store data once the data uop executed.
    pub data: Option<u64>,
    /// Committed (awaiting move to the store buffer).
    pub committed: bool,
    /// MMIO store: the device takes it at commit; it reaches no memory.
    pub mmio: bool,
}

/// A committed store waiting in the store buffer.
#[derive(Debug, Clone, Copy)]
pub struct SbufferEntry {
    /// Physical address.
    pub paddr: u64,
    /// Size in bytes.
    pub size: u64,
    /// Data.
    pub data: u64,
    /// Earliest cycle this entry may drain.
    pub drain_at: u64,
    /// In flight to the L1D.
    pub issued: bool,
}

/// Result of scanning stores for a load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForwardResult {
    /// No older store overlaps: go to the cache.
    None,
    /// Fully forwarded value.
    Forward(u64),
    /// An older store overlaps partially or its data/address is not ready
    /// yet: the load must retry later.
    Stall,
}

/// The load/store unit state.
#[derive(Debug, Clone)]
pub struct Lsu {
    /// Load queue.
    pub lq: AgeRing<LqEntry>,
    /// Store queue.
    pub sq: AgeRing<SqEntry>,
    /// Store buffer (committed stores).
    pub sbuffer: VecDeque<SbufferEntry>,
    sbuffer_cap: usize,
}

impl Lsu {
    /// Create an LSU with the given queue capacities.
    pub fn new(lq_cap: usize, sq_cap: usize, sbuffer_cap: usize) -> Self {
        Lsu {
            lq: AgeRing::with_capacity(lq_cap),
            sq: AgeRing::with_capacity(sq_cap),
            sbuffer: VecDeque::with_capacity(sbuffer_cap),
            sbuffer_cap,
        }
    }

    /// Is the store buffer full (blocks store commit)?
    pub fn sbuffer_full(&self) -> bool {
        self.sbuffer.len() >= self.sbuffer_cap
    }

    /// Allocate a load-queue slot.
    pub fn alloc_load(&mut self, tag: RobTag, size: u64) -> LsqPos {
        debug_assert!(!self.lq.is_full());
        self.lq.push(LqEntry {
            seq: tag.seq,
            rob: tag.idx,
            paddr: None,
            size,
            done: false,
        })
    }

    /// Allocate a store-queue slot.
    pub fn alloc_store(&mut self, seq: u64, size: u64) -> LsqPos {
        debug_assert!(!self.sq.is_full());
        self.sq.push(SqEntry {
            seq,
            paddr: None,
            size,
            data: None,
            committed: false,
            mmio: false,
        })
    }

    /// Scan older stores (SQ then store buffer) for a load at
    /// `paddr`/`size` belonging to `seq`.
    ///
    /// Under RVWMO the load may take its value from the youngest older
    /// matching store ("bypass from the private store buffer") — the
    /// behavior DiffTest's global-memory diff-rule legitimizes.
    pub fn forward(&self, seq: u64, paddr: u64, size: u64) -> ForwardResult {
        let load_end = paddr + size;
        // Youngest older SQ store first.
        for e in self.sq.iter().rev() {
            if e.seq >= seq {
                continue;
            }
            match e.paddr {
                // Unknown address: speculate past it; the memory-order
                // check at store execution catches real conflicts. A
                // device store reaches no memory, so it forwards nothing.
                None => continue,
                Some(_) if e.mmio => continue,
                Some(sp) => {
                    let send = sp + e.size;
                    if sp >= load_end || send <= paddr {
                        continue; // disjoint
                    }
                    if sp <= paddr && send >= load_end {
                        match e.data {
                            Some(d) => {
                                let shift = (paddr - sp) * 8;
                                let v = d >> shift;
                                let mask = if size == 8 {
                                    u64::MAX
                                } else {
                                    (1 << (size * 8)) - 1
                                };
                                return ForwardResult::Forward(v & mask);
                            }
                            None => return ForwardResult::Stall,
                        }
                    }
                    return ForwardResult::Stall; // partial overlap
                }
            }
        }
        // Store buffer (committed, not yet drained), youngest first.
        for e in self.sbuffer.iter().rev() {
            let send = e.paddr + e.size;
            if e.paddr >= load_end || send <= paddr {
                continue;
            }
            if e.paddr <= paddr && send >= load_end {
                let shift = (paddr - e.paddr) * 8;
                let mask = if size == 8 {
                    u64::MAX
                } else {
                    (1 << (size * 8)) - 1
                };
                return ForwardResult::Forward((e.data >> shift) & mask);
            }
            return ForwardResult::Stall;
        }
        ForwardResult::None
    }

    /// A store just resolved its address: find younger loads that already
    /// executed with an overlapping address (memory-order violation).
    /// Returns the oldest violating load (the LQ is in program order, so
    /// the first match).
    pub fn order_violation(&self, store_seq: u64, paddr: u64, size: u64) -> Option<RobTag> {
        let send = paddr + size;
        self.lq
            .iter()
            .filter(|l| l.seq > store_seq)
            .find(|l| {
                l.paddr.is_some_and(|lp| {
                    let lend = lp + l.size;
                    lp < send && lend > paddr
                })
            })
            .map(|l| RobTag {
                seq: l.seq,
                idx: l.rob,
            })
    }

    /// Remove the committed store `seq` — the oldest in the SQ, since
    /// stores commit in program order.
    ///
    /// # Panics
    ///
    /// Panics if the SQ is empty.
    pub fn pop_store(&mut self, seq: u64) -> SqEntry {
        let e = self.sq.pop_front().expect("committed store in SQ");
        debug_assert_eq!(e.seq, seq, "stores leave the SQ in program order");
        e
    }

    /// Move the committed store `seq` from the SQ into the store buffer.
    ///
    /// # Panics
    ///
    /// Panics if the entry is missing or incomplete.
    pub fn commit_store(&mut self, seq: u64, now: u64, drain_delay: u64) {
        let e = self.pop_store(seq);
        let paddr = e.paddr.expect("committed store has an address");
        let data = e.data.expect("committed store has data");
        self.sbuffer.push_back(SbufferEntry {
            paddr,
            size: e.size,
            data,
            drain_at: now + drain_delay,
            issued: false,
        });
    }

    /// Remove the committed load `seq` — the oldest in the LQ.
    pub fn commit_load(&mut self, seq: u64) {
        let e = self.lq.pop_front();
        debug_assert_eq!(
            e.map(|e| e.seq),
            Some(seq),
            "loads leave the LQ in program order"
        );
    }

    /// Flush entries younger than `seq` (0 flushes every speculative
    /// entry). The store buffer holds only committed stores: never
    /// flushed.
    pub fn flush_after(&mut self, seq: u64) {
        self.lq.truncate_while(|e| e.seq > seq);
        self.sq.truncate_while(|e| e.seq > seq);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lsu() -> Lsu {
        Lsu::new(8, 8, 4)
    }

    fn tag(seq: u64) -> RobTag {
        RobTag {
            seq,
            ..Default::default()
        }
    }

    #[test]
    fn full_forwarding_from_sq() {
        let mut l = lsu();
        let si = l.alloc_store(10, 8);
        l.sq[si].paddr = Some(0x1000);
        l.sq[si].data = Some(0xdead_beef_1122_3344);
        // Exact match.
        assert_eq!(
            l.forward(20, 0x1000, 8),
            ForwardResult::Forward(0xdead_beef_1122_3344)
        );
        // Contained smaller load: bytes at offset 2..4 are 0x1122.
        assert_eq!(l.forward(20, 0x1002, 2), ForwardResult::Forward(0x1122));
    }

    #[test]
    fn contained_load_extracts_bytes() {
        let mut l = lsu();
        let si = l.alloc_store(10, 8);
        l.sq[si].paddr = Some(0x1000);
        l.sq[si].data = Some(0x8877_6655_4433_2211);
        assert_eq!(l.forward(20, 0x1000, 1), ForwardResult::Forward(0x11));
        assert_eq!(l.forward(20, 0x1003, 1), ForwardResult::Forward(0x44));
        assert_eq!(
            l.forward(20, 0x1004, 4),
            ForwardResult::Forward(0x8877_6655)
        );
    }

    #[test]
    fn youngest_older_store_wins() {
        let mut l = lsu();
        let a = l.alloc_store(10, 8);
        l.sq[a].paddr = Some(0x1000);
        l.sq[a].data = Some(1);
        let b = l.alloc_store(11, 8);
        l.sq[b].paddr = Some(0x1000);
        l.sq[b].data = Some(2);
        assert_eq!(l.forward(20, 0x1000, 8), ForwardResult::Forward(2));
        // A load older than store b sees only store a.
        assert_eq!(l.forward(11, 0x1000, 8), ForwardResult::Forward(1));
    }

    #[test]
    fn partial_overlap_stalls() {
        let mut l = lsu();
        let si = l.alloc_store(10, 4);
        l.sq[si].paddr = Some(0x1002);
        l.sq[si].data = Some(0xffff_ffff);
        assert_eq!(l.forward(20, 0x1000, 8), ForwardResult::Stall);
    }

    #[test]
    fn data_not_ready_stalls() {
        let mut l = lsu();
        let si = l.alloc_store(10, 8);
        l.sq[si].paddr = Some(0x1000);
        assert_eq!(l.forward(20, 0x1000, 8), ForwardResult::Stall);
    }

    #[test]
    fn unknown_address_is_speculated_past() {
        let mut l = lsu();
        let _ = l.alloc_store(10, 8); // paddr unknown
        assert_eq!(l.forward(20, 0x1000, 8), ForwardResult::None);
    }

    #[test]
    fn forwarding_from_store_buffer() {
        let mut l = lsu();
        let si = l.alloc_store(10, 8);
        l.sq[si].paddr = Some(0x2000);
        l.sq[si].data = Some(77);
        l.commit_store(10, 100, 20);
        assert_eq!(l.forward(20, 0x2000, 8), ForwardResult::Forward(77));
        assert_eq!(l.sbuffer[0].drain_at, 120, "drains after the delay");
    }

    #[test]
    fn order_violation_detection() {
        let mut l = lsu();
        let li = l.alloc_load(tag(20), 8);
        l.lq[li].paddr = Some(0x3000);
        l.lq[li].done = true;
        let li2 = l.alloc_load(tag(22), 8);
        l.lq[li2].paddr = Some(0x3000);
        l.lq[li2].done = true;
        // Older store resolves to the same address: both loads violated;
        // the oldest is reported.
        assert_eq!(l.order_violation(10, 0x3000, 8), Some(tag(20)));
        // Disjoint store: no violation.
        assert_eq!(l.order_violation(10, 0x4000, 8), None);
        // Store younger than the loads: no violation.
        assert_eq!(l.order_violation(30, 0x3000, 8), None);
        // A load that issued (address known) but has not produced data
        // yet is also a violation: it will read stale memory.
        let li3 = l.alloc_load(tag(25), 8);
        l.lq[li3].paddr = Some(0x3000);
        assert_eq!(l.order_violation(21, 0x3000, 8), Some(tag(22)));
    }

    #[test]
    fn flush_keeps_store_buffer() {
        let mut l = lsu();
        let si = l.alloc_store(10, 8);
        l.sq[si].paddr = Some(0x1000);
        l.sq[si].data = Some(5);
        l.commit_store(10, 0, 0);
        l.alloc_load(tag(20), 8);
        l.alloc_store(21, 8);
        l.flush_after(15);
        assert!(l.lq.is_empty());
        assert!(l.sq.is_empty());
        assert_eq!(l.sbuffer.len(), 1, "committed stores survive flushes");
    }

    #[test]
    fn positions_survive_commits_and_roll_back_on_flush() {
        let mut l = lsu();
        let a = l.alloc_load(tag(1), 8);
        let b = l.alloc_load(tag(2), 8);
        let c = l.alloc_load(tag(3), 8);
        assert_eq!(l.lq[a].seq, 1);
        l.commit_load(1);
        l.lq[b].done = true;
        assert_eq!(
            (l.lq[b].seq, l.lq[c].seq),
            (2, 3),
            "positions are stable across a pop"
        );
        l.flush_after(2);
        assert_eq!(l.lq.len(), 1);
        // The flushed position is handed out again.
        assert_eq!(l.alloc_load(tag(4), 8), c);
        assert_eq!(l.lq[c].seq, 4);
    }
}
