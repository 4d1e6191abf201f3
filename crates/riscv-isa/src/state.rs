//! The architectural-state container compared by DiffTest.
//!
//! [`ArchState`] is the `S_P` of the paper's formal model (§III-A): the
//! specification-defined state every implementation must expose. Both the
//! DUT (`xscore`) and the REF (`nemu`) project their internal state onto
//! this type — that projection is the `f_Pi` mapping of the paper.

use crate::csr::{CsrFile, Privilege};
use serde::{Deserialize, Serialize};

/// Architectural state of one hart: PC, register files, and the CSR file.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArchState {
    /// Program counter.
    pub pc: u64,
    /// Integer register file (`x0..x31`; `x0` is always zero).
    pub gpr: [u64; 32],
    /// Floating-point register file (raw 64-bit contents, NaN-boxed for
    /// single precision).
    pub fpr: [u64; 32],
    /// Control and status registers.
    pub csr: CsrFile,
}

impl ArchState {
    /// Create a reset state with the given boot PC and hart id.
    pub fn new(pc: u64, hartid: u64) -> Self {
        ArchState {
            pc,
            gpr: [0; 32],
            fpr: [0; 32],
            csr: CsrFile::new(hartid),
        }
    }

    /// Read an integer register (`x0` reads as zero).
    #[inline]
    pub fn read_gpr(&self, r: u8) -> u64 {
        self.gpr[r as usize]
    }

    /// Write an integer register (writes to `x0` are discarded).
    #[inline]
    pub fn write_gpr(&mut self, r: u8, v: u64) {
        if r != 0 {
            self.gpr[r as usize] = v;
        }
    }

    /// Describe the first difference against another state, if any.
    ///
    /// Total over the state: the pc, every register, the privilege mode and
    /// every `CsrFile` field, except the fields whose row in the CSR table
    /// is free-running (`mcycle`, `minstret`, `time`) — those are diff-rules
    /// in the MINJIE rule table, never strict-equality checks.
    pub fn first_diff(&self, other: &ArchState) -> Option<StateDiff> {
        if self.pc != other.pc {
            return Some(StateDiff::Pc {
                lhs: self.pc,
                rhs: other.pc,
            });
        }
        for i in 0..32 {
            if self.gpr[i] != other.gpr[i] {
                return Some(StateDiff::Gpr {
                    index: i as u8,
                    lhs: self.gpr[i],
                    rhs: other.gpr[i],
                });
            }
        }
        for i in 0..32 {
            if self.fpr[i] != other.fpr[i] {
                return Some(StateDiff::Fpr {
                    index: i as u8,
                    lhs: self.fpr[i],
                    rhs: other.fpr[i],
                });
            }
        }
        if self.csr.privilege != other.csr.privilege {
            return Some(StateDiff::Privilege {
                lhs: self.csr.privilege,
                rhs: other.csr.privilege,
            });
        }
        if let Some((csr, lhs, rhs)) = self.csr.first_mismatch(&other.csr) {
            return Some(StateDiff::Csr { csr, lhs, rhs });
        }
        None
    }
}

/// A mismatch between two architectural states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StateDiff {
    /// Program counters differ.
    Pc {
        /// Left-hand (usually DUT) value.
        lhs: u64,
        /// Right-hand (usually REF) value.
        rhs: u64,
    },
    /// An integer register differs.
    Gpr {
        /// Register index.
        index: u8,
        /// Left-hand value.
        lhs: u64,
        /// Right-hand value.
        rhs: u64,
    },
    /// A floating-point register differs.
    Fpr {
        /// Register index.
        index: u8,
        /// Left-hand value.
        lhs: u64,
        /// Right-hand value.
        rhs: u64,
    },
    /// The harts are in different privilege modes.
    Privilege {
        /// Left-hand mode.
        lhs: Privilege,
        /// Right-hand mode.
        rhs: Privilege,
    },
    /// A CSR that is not free-running differs.
    Csr {
        /// Address of the CSR's row.
        csr: u16,
        /// Left-hand raw value.
        lhs: u64,
        /// Right-hand raw value.
        rhs: u64,
    },
}

impl std::fmt::Display for StateDiff {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StateDiff::Pc { lhs, rhs } => write!(f, "pc: {lhs:#x} vs {rhs:#x}"),
            StateDiff::Gpr { index, lhs, rhs } => {
                write!(f, "x{index}: {lhs:#x} vs {rhs:#x}")
            }
            StateDiff::Fpr { index, lhs, rhs } => {
                write!(f, "f{index}: {lhs:#x} vs {rhs:#x}")
            }
            StateDiff::Privilege { lhs, rhs } => write!(f, "privilege: {lhs:?} vs {rhs:?}"),
            StateDiff::Csr { csr, lhs, rhs } => write!(f, "csr {csr:#x}: {lhs:#x} vs {rhs:#x}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::addr;

    #[test]
    fn x0_is_hardwired() {
        let mut s = ArchState::new(0x8000_0000, 0);
        s.write_gpr(0, 42);
        assert_eq!(s.read_gpr(0), 0);
        s.write_gpr(1, 42);
        assert_eq!(s.read_gpr(1), 42);
    }

    #[test]
    fn diff_detects_each_field() {
        let base = ArchState::new(0x80, 0);
        let mut other = base.clone();
        assert_eq!(base.first_diff(&other), None);

        other.pc = 0x84;
        assert!(matches!(
            base.first_diff(&other),
            Some(StateDiff::Pc { .. })
        ));

        let mut other = base.clone();
        other.gpr[5] = 1;
        assert!(matches!(
            base.first_diff(&other),
            Some(StateDiff::Gpr { index: 5, .. })
        ));

        let mut other = base.clone();
        other.fpr[3] = 1;
        assert!(matches!(
            base.first_diff(&other),
            Some(StateDiff::Fpr { index: 3, .. })
        ));

        let mut other = base.clone();
        other.csr.mscratch = 7;
        assert!(matches!(
            base.first_diff(&other),
            Some(StateDiff::Csr {
                csr: addr::MSCRATCH,
                lhs: 0,
                rhs: 7
            })
        ));

        let mut other = base.clone();
        other.csr.privilege = Privilege::User;
        assert!(matches!(
            base.first_diff(&other),
            Some(StateDiff::Privilege { .. })
        ));

        let mut other = base.clone();
        other.csr.mhartid = 1;
        assert!(matches!(
            base.first_diff(&other),
            Some(StateDiff::Csr {
                csr: addr::MHARTID,
                ..
            })
        ));
    }

    #[test]
    fn counters_are_not_compared() {
        let base = ArchState::new(0x80, 0);
        let mut other = base.clone();
        other.csr.mcycle = 999;
        other.csr.minstret = 42;
        other.csr.time = 7;
        assert_eq!(base.first_diff(&other), None);
    }
}
