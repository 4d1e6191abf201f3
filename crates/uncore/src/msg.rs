//! TileLink-like coherence protocol messages.
//!
//! The protocol is a simplified TileLink-C (see DESIGN.md §5.7): clients
//! grow permissions with `Acquire`/`Grant`, managers shrink them with
//! `Probe`/`ProbeAck`, and evictions use `Release`/`ReleaseAck`.
//! Permissions follow TileLink's None/Branch/Trunk lattice.

use serde::{Deserialize, Serialize};

/// Cache line size in bytes (fixed across the hierarchy).
pub const LINE_SIZE: u64 = 64;

/// Mask a physical address down to its line address.
#[inline]
pub fn line_of(addr: u64) -> u64 {
    addr & !(LINE_SIZE - 1)
}

/// Line data payload.
pub type LineData = [u8; LINE_SIZE as usize];

/// Coherence permission on a block (TileLink nomenclature).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Perm {
    /// No permission (invalid).
    None,
    /// Branch: read-only shared copy.
    Branch,
    /// Trunk: exclusive read-write copy.
    Trunk,
}

impl Perm {
    /// True when this permission satisfies a request needing `need`.
    #[inline]
    pub fn covers(self, need: Perm) -> bool {
        self >= need
    }
}

/// A node in the memory hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Node {
    /// The instruction cache of core `n`.
    L1i(usize),
    /// The data cache of core `n`.
    L1d(usize),
    /// The private L2 of core `n`.
    L2(usize),
    /// The shared last-level cache.
    L3,
    /// The memory controller.
    Dram,
}

/// Message kinds exchanged between hierarchy nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MsgKind {
    /// Client asks its parent for permission `need` on a line.
    Acquire {
        /// Line address.
        line: u64,
        /// Requested permission.
        need: Perm,
    },
    /// Parent grants permission (with data for a fill).
    Grant {
        /// Line address.
        line: u64,
        /// Permission granted.
        perm: Perm,
        /// Line contents (present on fills, absent on pure upgrades).
        data: Option<Box<LineData>>,
    },
    /// Parent asks a client to shrink its permission to `cap`.
    Probe {
        /// Line address.
        line: u64,
        /// Maximum permission the client may keep.
        cap: Perm,
    },
    /// Client's probe response (data when it held the line dirty).
    ProbeAck {
        /// Line address.
        line: u64,
        /// Permission the client now holds.
        now: Perm,
        /// Dirty data written back, if any.
        data: Option<Box<LineData>>,
    },
    /// Voluntary write-back/shrink on eviction.
    Release {
        /// Line address.
        line: u64,
        /// Dirty data, if the line was modified.
        data: Option<Box<LineData>>,
    },
    /// Acknowledges a `Release`.
    ReleaseAck {
        /// Line address.
        line: u64,
    },
    /// Client acknowledges a `Grant`; the manager keeps the line
    /// serialized until this arrives (prevents probe/grant overlap).
    GrantAck {
        /// Line address.
        line: u64,
    },
}

/// A routed message (its delivery cycle is kept by the queue it waits in).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Msg {
    /// Sender.
    pub src: Node,
    /// Receiver.
    pub dst: Node,
    /// Payload.
    pub kind: MsgKind,
}

/// A core-side memory request kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AccessKind {
    /// Instruction fetch (read-only, L1I path).
    Fetch,
    /// Data load (needs Branch).
    Load,
    /// Data store (needs Trunk; data written on completion).
    Store,
    /// Load that acquires exclusive permission (AMO/LR sequences).
    LoadExclusive,
}

/// A core-side request submitted to the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreReq {
    /// Requesting core.
    pub core: usize,
    /// Request kind.
    pub kind: AccessKind,
    /// Byte address.
    pub addr: u64,
    /// Access size in bytes (1/2/4/8; fetches read a 32-byte block).
    pub size: u64,
    /// Store data (low `size` bytes).
    pub data: u64,
    /// Caller-chosen identifier returned with the completion.
    pub id: u64,
}

/// A completed core-side request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Completion {
    /// The original request.
    pub req: CoreReq,
    /// Cycle of completion.
    pub at: u64,
    /// Load/fetch result (fetches return up to 32 bytes; loads the value).
    pub data: u64,
    /// Fetch block bytes (fetches only).
    pub fetch_block: Option<[u8; 32]>,
    /// True when the access was satisfied without leaving the L1.
    pub l1_hit: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perm_lattice() {
        assert!(Perm::Trunk.covers(Perm::Branch));
        assert!(Perm::Trunk.covers(Perm::Trunk));
        assert!(Perm::Branch.covers(Perm::None));
        assert!(!Perm::Branch.covers(Perm::Trunk));
        assert!(!Perm::None.covers(Perm::Branch));
    }

    #[test]
    fn line_masking() {
        assert_eq!(line_of(0x1234), 0x1200);
        assert_eq!(line_of(0x1240), 0x1240);
        assert_eq!(line_of(0x7f), 0x40);
    }
}
