//! Physical register files, register alias tables, and the free list —
//! with reference-counted physical registers enabling move elimination
//! (paper §IV-A: "Move elimination is enabled by a reference counting
//! mechanism for the integer physical registers").

use crate::issue::IssueQueue;

/// A physical register index.
pub type PReg = u16;

/// The register alias table for one register class.
pub type Rat = [PReg; 32];

/// Width of a [`WaitRow`]: the number of issue queues of a core.
pub const WAIT_QUEUES: usize = 7;

/// The issue-queue slots waiting for one physical register: one slot
/// bitmask per queue (see [`crate::issue::IssueQueue`]).
pub type WaitRow = [u32; WAIT_QUEUES];

/// What a write changes: 32 bytes per register, so marking it ready and
/// collecting its waiters touch one host cache line between them.
#[derive(Debug, Clone, Copy, Default)]
struct Wakeup {
    /// The register holds its final value.
    ready: bool,
    /// Queue slots to wake when the register is written.
    waiters: WaitRow,
}

/// One class (integer or floating point) of physical registers.
///
/// Readiness of an in-flight source only ever goes false -> true (a
/// register is recycled only after its last reader released it), which
/// is what lets the issue queues track it by wakeup instead of polling.
#[derive(Debug, Clone)]
pub struct Prf {
    value: Vec<u64>,
    wakeup: Vec<Wakeup>,
    refcnt: Vec<u32>,
    free: Vec<PReg>,
}

impl Prf {
    /// Create a PRF with `n` physical registers. Register 0 is reserved
    /// as the always-zero register (always ready, never freed).
    pub fn new(n: usize) -> Self {
        let mut free: Vec<PReg> = (1..n as PReg).rev().collect();
        free.shrink_to_fit();
        Prf {
            value: vec![0; n],
            wakeup: vec![Wakeup::default(); n],
            refcnt: vec![0; n],
            free,
        }
    }

    /// The always-zero physical register.
    pub const ZERO: PReg = 0;

    /// Initialize the zero register and mark architectural reset state:
    /// returns a RAT with every architectural register mapped to freshly
    /// allocated, ready, zero-valued physical registers.
    pub fn reset_rat(&mut self) -> Rat {
        self.wakeup[0].ready = true;
        self.refcnt[0] = u32::MAX / 2; // pinned
        let mut rat = [0 as PReg; 32];
        for (i, slot) in rat.iter_mut().enumerate().skip(1) {
            let p = self.alloc().expect("enough registers at reset");
            self.wakeup[p as usize].ready = true;
            self.value[p as usize] = 0;
            *slot = p;
            let _ = i;
        }
        rat
    }

    /// Allocate a fresh physical register (refcount 1, not ready).
    pub fn alloc(&mut self) -> Option<PReg> {
        let p = self.free.pop()?;
        let w = &mut self.wakeup[p as usize];
        debug_assert_eq!(
            w.waiters, [0; WAIT_QUEUES],
            "p{p} recycled with live waiters"
        );
        w.ready = false;
        self.refcnt[p as usize] = 1;
        Some(p)
    }

    /// Number of free physical registers.
    pub fn free_count(&self) -> usize {
        self.free.len()
    }

    /// Increment the reference count (move elimination shares a mapping).
    pub fn addref(&mut self, p: PReg) {
        if p != Self::ZERO {
            self.refcnt[p as usize] += 1;
        }
    }

    /// Decrement the reference count, freeing the register at zero.
    pub fn release(&mut self, p: PReg) {
        if p == Self::ZERO {
            return;
        }
        let r = &mut self.refcnt[p as usize];
        debug_assert!(*r > 0, "double free of p{p}");
        *r -= 1;
        if *r == 0 {
            self.free.push(p);
        }
    }

    /// Write a value and mark the register ready. Returns the slots that
    /// were waiting for it — the caller owes each of them a
    /// [`crate::issue::IssueQueue::wake`] — and forgets them.
    #[must_use = "the waiters of a written register must be woken"]
    pub fn write(&mut self, p: PReg, v: u64) -> WaitRow {
        if p == Self::ZERO {
            return [0; WAIT_QUEUES];
        }
        self.value[p as usize] = v;
        let w = &mut self.wakeup[p as usize];
        w.ready = true;
        std::mem::take(&mut w.waiters)
    }

    /// Register slot `slot` of queue `queue` as waiting for `p`.
    pub fn add_waiter(&mut self, p: PReg, queue: usize, slot: usize) {
        let w = &mut self.wakeup[p as usize];
        debug_assert!(!w.ready, "waiting on a ready register");
        w.waiters[queue] |= 1 << slot;
    }

    /// Forget that slot `slot` of queue `queue` waits for `p` (the slot
    /// was flushed before the register was written).
    pub fn remove_waiter(&mut self, p: PReg, queue: usize, slot: usize) {
        self.wakeup[p as usize].waiters[queue] &= !(1 << slot);
    }

    /// The slots currently waiting for `p` (diagnostics/tests).
    pub fn waiters(&self, p: PReg) -> WaitRow {
        self.wakeup[p as usize].waiters
    }

    /// Read a register's value.
    #[inline]
    pub fn read(&self, p: PReg) -> u64 {
        self.value[p as usize]
    }

    /// True when the register holds its final value.
    #[inline]
    pub fn is_ready(&self, p: PReg) -> bool {
        self.wakeup[p as usize].ready
    }

    /// Current reference count (diagnostics/tests).
    pub fn refcount(&self, p: PReg) -> u32 {
        self.refcnt[p as usize]
    }
}

/// Both physical register files and the issue queues their writes wake:
/// the one structure a register write has to go through.
#[derive(Debug, Clone)]
pub struct Regs {
    /// Integer registers.
    pub int: Prf,
    /// Floating-point registers.
    pub fp: Prf,
    /// The distributed issue queues, in [`WaitRow`] order.
    pub iqs: [IssueQueue; WAIT_QUEUES],
}

impl Regs {
    /// The register file of one class.
    pub fn prf(&mut self, fp: bool) -> &mut Prf {
        if fp {
            &mut self.fp
        } else {
            &mut self.int
        }
    }

    /// Read a register's value.
    pub fn read(&self, fp: bool, p: PReg) -> u64 {
        if fp {
            self.fp.read(p)
        } else {
            self.int.read(p)
        }
    }

    /// True when the register holds its final value.
    pub fn is_ready(&self, fp: bool, p: PReg) -> bool {
        if fp {
            self.fp.is_ready(p)
        } else {
            self.int.is_ready(p)
        }
    }

    /// Write a physical register and wake the issue-queue slots that
    /// were waiting for it. Every write goes through here: a write that
    /// skipped the wakeup would leave its consumers asleep for good.
    pub fn write(&mut self, fp: bool, p: PReg, v: u64) {
        let waiters = self.prf(fp).write(p, v);
        for (iq, &slots) in self.iqs.iter_mut().zip(&waiters) {
            if slots != 0 {
                iq.wake(slots);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_maps_all_arch_regs() {
        let mut prf = Prf::new(64);
        let rat = prf.reset_rat();
        assert_eq!(rat[0], Prf::ZERO);
        // All distinct.
        let mut seen = std::collections::HashSet::new();
        for &p in &rat[1..] {
            assert!(seen.insert(p), "duplicate mapping");
            assert!(prf.is_ready(p));
            assert_eq!(prf.read(p), 0);
        }
        assert_eq!(prf.free_count(), 64 - 32);
    }

    #[test]
    fn alloc_write_read_cycle() {
        let mut prf = Prf::new(8);
        let p = prf.alloc().unwrap();
        assert!(!prf.is_ready(p));
        prf.add_waiter(p, 2, 5);
        assert_eq!(
            prf.write(p, 42)[2],
            1 << 5,
            "a write hands back the waiters"
        );
        assert_eq!(prf.waiters(p), [0; WAIT_QUEUES], "and forgets them");
        assert!(prf.is_ready(p));
        assert_eq!(prf.read(p), 42);
        prf.release(p);
        // Register recycled.
        let p2 = prf.alloc().unwrap();
        assert_eq!(p2, p);
        assert!(!prf.is_ready(p2), "recycled register is not ready");
    }

    #[test]
    fn move_elimination_refcounting() {
        let mut prf = Prf::new(8);
        let p = prf.alloc().unwrap();
        prf.addref(p); // mv elimination: second arch reg maps here
        prf.release(p); // first mapping dies
        assert_eq!(prf.refcount(p), 1);
        // Still allocated: not in the free list.
        let mut allocated = Vec::new();
        while let Some(q) = prf.alloc() {
            assert_ne!(q, p, "shared register must not be reallocated");
            allocated.push(q);
        }
        prf.release(p);
        assert_eq!(prf.refcount(p), 0);
        assert_eq!(prf.alloc(), Some(p), "freed after last reference");
    }

    #[test]
    fn zero_register_is_immortal() {
        let mut prf = Prf::new(64);
        let _ = prf.reset_rat();
        let _ = prf.write(Prf::ZERO, 99);
        assert_eq!(prf.read(Prf::ZERO), 0, "writes to p0 are discarded");
        prf.release(Prf::ZERO); // no-op
        assert!(prf.is_ready(Prf::ZERO));
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut prf = Prf::new(4);
        assert!(prf.alloc().is_some());
        assert!(prf.alloc().is_some());
        assert!(prf.alloc().is_some());
        assert!(prf.alloc().is_none(), "p0 is reserved");
    }
}
