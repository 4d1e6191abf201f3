//! Trap causes: synchronous exceptions and asynchronous interrupts.

use serde::{Deserialize, Serialize};

/// Synchronous exception causes (RISC-V privileged spec, mcause codes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[repr(u64)]
#[allow(missing_docs)]
pub enum Exception {
    InstAddrMisaligned = 0,
    InstAccessFault = 1,
    IllegalInstruction = 2,
    Breakpoint = 3,
    LoadAddrMisaligned = 4,
    LoadAccessFault = 5,
    StoreAddrMisaligned = 6,
    StoreAccessFault = 7,
    EcallFromU = 8,
    EcallFromS = 9,
    EcallFromM = 11,
    InstPageFault = 12,
    LoadPageFault = 13,
    StorePageFault = 15,
}

impl Exception {
    /// The mcause/scause code for this exception.
    #[inline]
    pub const fn code(self) -> u64 {
        self as u64
    }

    /// True for the three page-fault causes — the exception family the
    /// paper's speculative-TLB diff-rule (Fig. 3) is about.
    #[inline]
    pub fn is_page_fault(self) -> bool {
        matches!(
            self,
            Exception::InstPageFault | Exception::LoadPageFault | Exception::StorePageFault
        )
    }

    /// Reconstruct from an mcause code.
    pub const fn from_code(code: u64) -> Option<Self> {
        use Exception::*;
        Some(match code {
            0 => InstAddrMisaligned,
            1 => InstAccessFault,
            2 => IllegalInstruction,
            3 => Breakpoint,
            4 => LoadAddrMisaligned,
            5 => LoadAccessFault,
            6 => StoreAddrMisaligned,
            7 => StoreAccessFault,
            8 => EcallFromU,
            9 => EcallFromS,
            11 => EcallFromM,
            12 => InstPageFault,
            13 => LoadPageFault,
            15 => StorePageFault,
            _ => return None,
        })
    }
}

impl std::fmt::Display for Exception {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Exception::InstAddrMisaligned => "instruction address misaligned",
            Exception::InstAccessFault => "instruction access fault",
            Exception::IllegalInstruction => "illegal instruction",
            Exception::Breakpoint => "breakpoint",
            Exception::LoadAddrMisaligned => "load address misaligned",
            Exception::LoadAccessFault => "load access fault",
            Exception::StoreAddrMisaligned => "store/AMO address misaligned",
            Exception::StoreAccessFault => "store/AMO access fault",
            Exception::EcallFromU => "environment call from U-mode",
            Exception::EcallFromS => "environment call from S-mode",
            Exception::EcallFromM => "environment call from M-mode",
            Exception::InstPageFault => "instruction page fault",
            Exception::LoadPageFault => "load page fault",
            Exception::StorePageFault => "store/AMO page fault",
        };
        f.write_str(s)
    }
}

impl std::error::Error for Exception {}

/// Asynchronous interrupt causes (code without the interrupt bit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[repr(u64)]
#[allow(missing_docs)]
pub enum Interrupt {
    SupervisorSoftware = 1,
    MachineSoftware = 3,
    SupervisorTimer = 5,
    MachineTimer = 7,
    SupervisorExternal = 9,
    MachineExternal = 11,
}

impl Interrupt {
    /// The interrupt code (low bits of mcause; the top bit is set
    /// separately when written to mcause).
    #[inline]
    pub const fn code(self) -> u64 {
        self as u64
    }

    /// The mcause value with the interrupt bit set.
    #[inline]
    pub fn cause(self) -> u64 {
        (1 << 63) | self.code()
    }
}

/// A trap cause: either exception or interrupt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Trap {
    /// A synchronous exception with its tval.
    Exception(Exception, u64),
    /// An asynchronous interrupt.
    Interrupt(Interrupt),
}

impl Trap {
    /// The value to be written to mcause/scause.
    pub fn cause(&self) -> u64 {
        match self {
            Trap::Exception(e, _) => e.code(),
            Trap::Interrupt(i) => i.cause(),
        }
    }

    /// The value to be written to mtval/stval.
    pub fn tval(&self) -> u64 {
        match self {
            Trap::Exception(_, tval) => *tval,
            Trap::Interrupt(_) => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exception_codes_match_spec() {
        assert_eq!(Exception::IllegalInstruction.code(), 2);
        assert_eq!(Exception::EcallFromU.code(), 8);
        assert_eq!(Exception::StorePageFault.code(), 15);
        for code in [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 13, 15] {
            assert_eq!(Exception::from_code(code).unwrap().code(), code);
        }
        assert_eq!(Exception::from_code(10), None);
        assert_eq!(Exception::from_code(14), None);
    }

    #[test]
    fn page_fault_family() {
        assert!(Exception::LoadPageFault.is_page_fault());
        assert!(!Exception::LoadAccessFault.is_page_fault());
    }

    #[test]
    fn interrupt_cause_has_top_bit() {
        assert_eq!(Interrupt::MachineTimer.cause(), (1 << 63) | 7);
        assert_eq!(
            Trap::Interrupt(Interrupt::SupervisorExternal).cause(),
            (1 << 63) | 9
        );
        assert_eq!(Trap::Exception(Exception::Breakpoint, 0x10).tval(), 0x10);
    }
}
