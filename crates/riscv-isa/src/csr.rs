//! Control and status registers, privilege levels, and trap entry/return.
//!
//! What each CSR *is* is written once, in the `csr_table!` rows below: its
//! address, name, the [`CsrFile`] field and reset value if it stores one,
//! what reads and writes reach ([`Access`]), its named WARL sub-fields, and
//! how state comparison and checkpoints treat it ([`Kind`]). From the rows
//! come [`addr`], `CsrFile` itself, the plain paths of [`CsrFile::read`] /
//! [`CsrFile::write`] (their arms are the irregular rows: views, gates,
//! `mstatus`, `mip`, `satp`'s MODE), the compared set of a full-state
//! check, the restore loader's list and the DRAV rule table of `minjie` —
//! so adding a CSR is one row plus whatever is irregular about it.

use crate::op::{DecodedInst, RegFile};
use crate::trap::{Exception, Interrupt, Trap};
use serde::{Deserialize, Serialize};

/// Privilege levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[repr(u8)]
pub enum Privilege {
    /// User mode (0).
    User = 0,
    /// Supervisor mode (1).
    Supervisor = 1,
    /// Machine mode (3).
    Machine = 3,
}

impl Privilege {
    /// Construct from the 2-bit encoding; 2 (hypervisor) maps to `None`.
    pub fn from_bits(bits: u64) -> Option<Privilege> {
        match bits & 3 {
            0 => Some(Privilege::User),
            1 => Some(Privilege::Supervisor),
            3 => Some(Privilege::Machine),
            _ => None,
        }
    }
}

/// Named bit masks that are also listed by name: `FIELDS` is what a row of
/// the CSR table cites as its sub-fields.
macro_rules! fields {
    ($($field:ident = $mask:expr;)*) => {
        $(pub const $field: u64 = $mask;)*
        /// Every field above with its name: one DRAV rule each.
        pub const FIELDS: &[(&str, u64)] = &[$((stringify!($field), $field)),*];
    };
}

/// mstatus field masks.
#[allow(missing_docs)]
pub mod mstatus {
    fields! {
        SIE = 1 << 1;
        MIE = 1 << 3;
        SPIE = 1 << 5;
        MPIE = 1 << 7;
        SPP = 1 << 8;
        MPP = 0b11 << 11;
        FS = 0b11 << 13;
        XS = 0b11 << 15;
        MPRV = 1 << 17;
        SUM = 1 << 18;
        MXR = 1 << 19;
        TVM = 1 << 20;
        TW = 1 << 21;
        TSR = 1 << 22;
        UXL = 0b11 << 32;
        SXL = 0b11 << 34;
        SD = 1 << 63;
    }

    /// Bits writable through the mstatus CSR.
    pub const WRITE_MASK: u64 =
        SIE | MIE | SPIE | MPIE | SPP | MPP | FS | MPRV | SUM | MXR | TVM | TW | TSR;
    /// The sstatus view of mstatus.
    pub const SSTATUS_MASK: u64 = SIE | SPIE | SPP | FS | XS | SUM | MXR | UXL | SD;
}

/// mip / mie bit masks: one per standard interrupt, at its cause code.
#[allow(missing_docs)]
pub mod mip {
    use crate::trap::Interrupt::*;
    fields! {
        SSI = 1 << SupervisorSoftware.code();
        MSI = 1 << MachineSoftware.code();
        STI = 1 << SupervisorTimer.code();
        MTI = 1 << MachineTimer.code();
        SEI = 1 << SupervisorExternal.code();
        MEI = 1 << MachineExternal.code();
    }

    /// The supervisor-level bits: what mideleg can delegate, and what
    /// M-mode software can set pending.
    pub const S_LEVEL: u64 = SSI | STI | SEI;
    /// Every implemented bit.
    pub const ALL: u64 = S_LEVEL | MSI | MTI | MEI;
}

/// misa value: RV64 with IMAFDC + S + U.
pub const MISA_RV64GCSU: u64 = (2 << 62) // MXL = 64
    | (1 << 0)  // A
    | (1 << 2)  // C
    | (1 << 3)  // D
    | (1 << 5)  // F
    | (1 << 8)  // I
    | (1 << 12) // M
    | (1 << 18) // S
    | (1 << 20); // U

/// medeleg's implemented bits: every exception but `EcallFromM`, which no
/// mode that could be delegated from can raise.
const DELEGABLE_EXCEPTIONS: u64 = {
    let (mut mask, mut code) = (0, 0);
    while code < 64 {
        mask |= (Exception::from_code(code).is_some() as u64) << code;
        code += 1;
    }
    mask & !(1 << Exception::EcallFromM.code())
};

/// What stands behind a row's address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// A field written WARL by mask: it becomes `value & mask`.
    Mask(u64),
    /// Arms of [`CsrFile::read`] / [`CsrFile::write`]: a view of another
    /// row's field, an irregular write, a gate. With no `read` arm the row
    /// reads as its field; with no `write` arm a write is illegal.
    Hand,
    /// Reads as this constant; writes are dropped.
    Const(u64),
    /// Unimplemented: reads zero and drops writes, and the DRAV table says
    /// so with a `ReadOnlyZero` rule.
    Zero,
}

/// How a full-state comparison and a checkpoint treat a row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// DUT and REF must agree.
    Exact,
    /// [`Kind::Exact`], and a checkpoint's restore loader writes it back.
    Restored,
    /// Free-running: excluded from comparison, and a read of it is trusted
    /// to the DUT (the counter-read diff-rule).
    FreeRunning,
}

/// One row of the CSR table: one CSR, or a numbered range of alike ones.
#[derive(Debug, Clone, Copy)]
pub struct CsrRow {
    /// First and last address (equal for a single CSR).
    pub addrs: (u16, u16),
    /// Lower-case name; in a range, address `a` is `name` followed by
    /// `first + a - addrs.0` (`mhpmcounter3`: `first` is 3).
    pub name: &'static str,
    /// The number `addrs.0` carries in that naming.
    pub first: u16,
    /// What reads and writes reach.
    pub access: Access,
    /// How state comparison and checkpoints treat it.
    pub kind: Kind,
    /// Named WARL sub-fields, where the DRAV table has a rule for each.
    pub fields: &'static [(&'static str, u64)],
}

/// `CONST = address [..= last], "name" [+ first], [field = reset]?, access, kind [, sub-fields];`
/// — a row with `[field = reset]` is a `u64` of [`CsrFile`], the others
/// store nothing of their own.
macro_rules! csr_table {
    (@or $value:expr, $default:expr) => { $value };
    (@or $default:expr) => { $default };
    ($(
        $addr:ident = $lo:literal $(..= $hi:literal)?, $name:literal $(+ $first:literal)?,
        $([$field:ident = $reset:expr],)? $access:ident $(($arg:expr))?, $kind:ident
        $(, $fields:expr)?;
    )*) => {
        /// CSR addresses used throughout the workspace (a range goes by
        /// its first address).
        #[allow(missing_docs)]
        pub mod addr {
            $( pub const $addr: u16 = $lo; )*
        }

        /// Every row.
        pub const ROWS: &[CsrRow] = &[$( CsrRow {
            addrs: ($lo, csr_table!(@or $($hi,)? $lo)),
            name: $name,
            first: csr_table!(@or $($first,)? 0),
            access: Access::$access $(($arg))?,
            kind: Kind::$kind,
            fields: csr_table!(@or $($fields,)? &[]),
        }, )*];

        /// The CSR file of one hart: the privilege mode and one field per
        /// row that stores a value, in table order, under the row's name.
        #[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
        pub struct CsrFile {
            /// Current privilege level.
            pub privilege: Privilege,
            $($( #[doc = concat!("`", $name, "`, as stored.")] pub $field: u64, )?)*
        }

        /// Hart 0 out of reset.
        const RESET: CsrFile = CsrFile {
            privilege: Privilege::Machine,
            $($( $field: $reset, )?)*
        };

        impl CsrFile {
            /// Every field with its row's address and kind, in table order.
            pub fn stored(&self) -> impl Iterator<Item = (u16, Kind, u64)> {
                [$($( ($lo, Kind::$kind, self.$field), )?)*].into_iter()
            }

            fn stored_mut(&mut self) -> impl Iterator<Item = (u16, &mut u64)> {
                [$($( ($lo, &mut self.$field), )?)*].into_iter()
            }
        }
    };
}

// Rows with a field stand in `CsrFile`'s field order, which every serialized
// state (checkpoint blobs, snapshots) spells out; a view follows its field.
csr_table! {
    // Out of reset the FPU is on (FS dirty) and UXL = SXL = 2 (64-bit).
    MSTATUS = 0x300, "mstatus", [mstatus = mstatus::FS | 2 << 32 | 2 << 34], Hand, Restored,
        mstatus::FIELDS;
    SSTATUS = 0x100, "sstatus", Hand, Exact; // mstatus under SSTATUS_MASK
    MISA = 0x301, "misa", Const(MISA_RV64GCSU), Exact;
    MEDELEG = 0x302, "medeleg", [medeleg = 0], Mask(DELEGABLE_EXCEPTIONS), Restored;
    MIDELEG = 0x303, "mideleg", [mideleg = 0], Mask(mip::S_LEVEL), Restored;
    MIE = 0x304, "mie", [mie = 0], Mask(mip::ALL), Restored, mip::FIELDS;
    SIE = 0x104, "sie", Hand, Exact; // mie under mideleg
    MIP = 0x344, "mip", [mip = 0], Hand, Restored, mip::FIELDS; // software reaches S_LEVEL only
    SIP = 0x144, "sip", Hand, Exact; // mip under mideleg, SSIP writable
    MTVEC = 0x305, "mtvec", [mtvec = 0], Mask(!0b10), Restored;
    MCOUNTEREN = 0x306, "mcounteren", [mcounteren = 0], Mask(0b111), Restored;
    MSCRATCH = 0x340, "mscratch", [mscratch = 0], Mask(u64::MAX), Restored;
    // Not `Restored`: the restore loader's mret spends it on the checkpointed pc.
    MEPC = 0x341, "mepc", [mepc = 0], Mask(!1), Exact;
    MCAUSE = 0x342, "mcause", [mcause = 0], Mask(u64::MAX), Restored;
    MTVAL = 0x343, "mtval", [mtval = 0], Mask(u64::MAX), Restored;
    MCYCLE = 0xb00, "mcycle", [mcycle = 0], Mask(u64::MAX), FreeRunning;
    CYCLE = 0xc00, "cycle", Hand, FreeRunning; // mcycle, behind counter-enable bit 0
    MINSTRET = 0xb02, "minstret", [minstret = 0], Mask(u64::MAX), FreeRunning;
    INSTRET = 0xc02, "instret", Hand, FreeRunning; // minstret, behind counter-enable bit 2
    STVEC = 0x105, "stvec", [stvec = 0], Mask(!0b10), Restored;
    SCOUNTEREN = 0x106, "scounteren", [scounteren = 0], Mask(0b111), Restored;
    SSCRATCH = 0x140, "sscratch", [sscratch = 0], Mask(u64::MAX), Restored;
    SEPC = 0x141, "sepc", [sepc = 0], Mask(!1), Restored;
    SCAUSE = 0x142, "scause", [scause = 0], Mask(u64::MAX), Restored;
    STVAL = 0x143, "stval", [stval = 0], Mask(u64::MAX), Restored;
    // MODE's top bit (Bare or Sv39) and the PPN; `write` ignores a write naming another mode.
    SATP = 0x180, "satp", [satp = 0], Mask(0x8fff_ffff_ffff_ffff), Restored;
    FCSR = 0x003, "fcsr", [fcsr = 0], Mask(0xff), Restored; // frm in bits 7:5, fflags in bits 4:0
    FFLAGS = 0x001, "fflags", Hand, Exact;
    FRM = 0x002, "frm", Hand, Exact;
    MHARTID = 0xf14, "mhartid", [mhartid = 0], Hand, Exact; // `CsrFile::new` sets it
    TIME = 0xc01, "time", [time = 0], Hand, FreeRunning; // behind counter-enable bit 1
    MVENDORID = 0xf11, "mvendorid", Const(0), Exact;
    MARCHID = 0xf12, "marchid", Const(25), Exact; // XiangShan's registered open-source marchid
    MIMPID = 0xf13, "mimpid", Const(0), Exact;
    // No hardware performance counter beyond the three above, and no PMP.
    MHPMCOUNTER3 = 0xb03..=0xb1f, "mhpmcounter" + 3, Zero, FreeRunning;
    HPMCOUNTER3 = 0xc03..=0xc1f, "hpmcounter" + 3, Zero, FreeRunning; // not gated by the enables
    MHPMEVENT3 = 0x323..=0x33f, "mhpmevent" + 3, Zero, Exact;
    PMPCFG0 = 0x3a0..=0x3af, "pmpcfg" + 0, Zero, Exact;
    PMPADDR0 = 0x3b0..=0x3bf, "pmpaddr" + 0, Zero, Exact;
    // pmpaddr16–63 behave like 0–15, but the DRAV table has never had rules
    // for them: `Const(0)` where `Zero` would add 48 `ReadOnlyZero` rules.
    PMPADDR16 = 0x3c0..=0x3ef, "pmpaddr" + 16, Const(0), Exact;
}

/// The row that holds `csr`, if the address is implemented.
pub fn row(csr: u16) -> Option<&'static CsrRow> {
    ROWS.iter()
        .find(|row| (row.addrs.0..=row.addrs.1).contains(&csr))
}

impl CsrFile {
    /// Create a reset-state CSR file for hart `hartid`.
    ///
    /// The hart resets into machine mode with floating point enabled
    /// (`mstatus.FS = dirty`) so that bare-metal workloads can use the FPU
    /// without an enabling stub.
    pub fn new(hartid: u64) -> Self {
        CsrFile {
            mhartid: hartid,
            ..RESET
        }
    }

    /// What the address holds, bypassing privilege checks and `read`'s
    /// arms: its field, its constant or zero; `None` for a view and for an
    /// address with no row.
    pub fn raw(&self, csr: u16) -> Option<u64> {
        match (self.stored().find(|field| field.0 == csr), row(csr)?.access) {
            (Some(field), _) => Some(field.2),
            (None, Access::Const(v)) => Some(v),
            (None, Access::Zero) => Some(0),
            (None, _) => None,
        }
    }

    /// The first field on which two files disagree, as `(address, self's
    /// value, other's value)`; [`Kind::FreeRunning`] rows are skipped.
    pub fn first_mismatch(&self, other: &CsrFile) -> Option<(u16, u64, u64)> {
        self.stored()
            .zip(other.stored())
            .find(|(lhs, rhs)| lhs.2 != rhs.2 && lhs.1 != Kind::FreeRunning)
            .map(|(lhs, rhs)| (lhs.0, lhs.2, rhs.2))
    }

    #[inline]
    fn mstatus_read(&self) -> u64 {
        let mut v = self.mstatus;
        // SD summarizes FS/XS dirtiness.
        if (v & mstatus::FS) == mstatus::FS || (v & mstatus::XS) == mstatus::XS {
            v |= mstatus::SD;
        }
        v
    }

    /// Read a CSR, checking privilege.
    ///
    /// # Errors
    ///
    /// Returns [`Exception::IllegalInstruction`] for unknown CSRs or
    /// insufficient privilege.
    pub fn read(&self, csr: u16) -> Result<u64, Exception> {
        self.check_privilege(csr)?;
        use addr::*;
        Ok(match csr {
            FFLAGS => self.fcsr & 0x1f,
            FRM => (self.fcsr >> 5) & 0x7,
            FCSR => self.fcsr & 0xff,
            CYCLE => self.mcycle,
            INSTRET => self.minstret,
            SSTATUS => self.mstatus_read() & mstatus::SSTATUS_MASK,
            SIE => self.mie & self.mideleg,
            SIP => self.mip & self.mideleg,
            MSTATUS => self.mstatus_read(),
            // Every other row reads as what it holds.
            _ => self.raw(csr).ok_or(Exception::IllegalInstruction)?,
        })
    }

    /// Write a CSR, applying WARL masks and checking privilege.
    ///
    /// # Errors
    ///
    /// Returns [`Exception::IllegalInstruction`] for unknown or read-only
    /// CSRs, or insufficient privilege.
    pub fn write(&mut self, csr: u16, value: u64) -> Result<(), Exception> {
        self.check_privilege(csr)?;
        if csr >> 10 == 0b11 {
            return Err(Exception::IllegalInstruction); // read-only region
        }
        use addr::*;
        match csr {
            FFLAGS => self.fcsr = merge(self.fcsr, value, 0x1f),
            FRM => self.fcsr = merge(self.fcsr, value << 5, 0xe0),
            SSTATUS => {
                let mask = mstatus::SSTATUS_MASK & mstatus::WRITE_MASK;
                self.mstatus = merge(self.mstatus, value, mask);
            }
            SIE => self.mie = merge(self.mie, value, self.mideleg),
            // Only SSIP is software-writable from S-mode.
            SIP => self.mip = merge(self.mip, value, self.mideleg & mip::SSI),
            // MODE is WARL too: a write naming anything but Bare or Sv39 is ignored whole.
            SATP if !matches!(value >> 60, 0 | 8) => {}
            MSTATUS => {
                self.mstatus = merge(self.mstatus, value, mstatus::WRITE_MASK);
                // MPP is WARL: only 0/1/3 are legal; map 2 to 0.
                if (self.mstatus >> 11) & 3 == 2 {
                    self.mstatus &= !mstatus::MPP;
                }
            }
            MIP => self.mip = merge(self.mip, value, mip::S_LEVEL),
            _ => match row(csr).map(|row| row.access) {
                Some(Access::Mask(mask)) => {
                    let field = self.stored_mut().find(|field| field.0 == csr);
                    *field.expect("a Mask row has a field").1 = value & mask;
                }
                Some(Access::Const(_) | Access::Zero) => {}
                _ => return Err(Exception::IllegalInstruction),
            },
        }
        Ok(())
    }

    /// What every access passes first: the privilege the address demands,
    /// and the gate some rows stand behind.
    fn check_privilege(&self, csr: u16) -> Result<(), Exception> {
        use addr::*;
        let gated = match csr {
            // FP CSRs require an enabled FPU.
            FFLAGS | FRM | FCSR => !self.fp_enabled(),
            // satp traps in S-mode under TVM.
            SATP => self.privilege == Privilege::Supervisor && self.mstatus & mstatus::TVM != 0,
            // User-level counters need their mcounteren bit below M-mode
            // and their scounteren bit in U-mode.
            CYCLE | TIME | INSTRET => {
                let bit = 1 << (csr - CYCLE);
                self.privilege < Privilege::Machine && self.mcounteren & bit == 0
                    || self.privilege == Privilege::User && self.scounteren & bit == 0
            }
            _ => false,
        };
        if (self.privilege as u16) < (csr >> 8) & 0b11 || gated {
            return Err(Exception::IllegalInstruction);
        }
        Ok(())
    }

    /// Take a trap at `pc`, returning the handler address.
    ///
    /// Delegation to S-mode follows medeleg/mideleg when the trap arises
    /// at S or U privilege.
    pub fn take_trap(&mut self, trap: Trap, pc: u64) -> u64 {
        let (code, is_interrupt) = match trap {
            Trap::Exception(e, _) => (e.code(), false),
            Trap::Interrupt(i) => (i.code(), true),
        };
        let deleg = if is_interrupt {
            self.mideleg
        } else {
            self.medeleg
        };
        let to_s = self.privilege <= Privilege::Supervisor && (deleg >> code) & 1 == 1;

        if to_s {
            self.scause = trap.cause();
            self.sepc = pc;
            self.stval = trap.tval();
            let sie = (self.mstatus & mstatus::SIE) != 0;
            self.mstatus &= !(mstatus::SPIE | mstatus::SPP | mstatus::SIE);
            if sie {
                self.mstatus |= mstatus::SPIE;
            }
            if self.privilege == Privilege::Supervisor {
                self.mstatus |= mstatus::SPP;
            }
            self.privilege = Privilege::Supervisor;
            vector_target(self.stvec, is_interrupt, code)
        } else {
            self.mcause = trap.cause();
            self.mepc = pc;
            self.mtval = trap.tval();
            let mie = (self.mstatus & mstatus::MIE) != 0;
            self.mstatus &= !(mstatus::MPIE | mstatus::MPP | mstatus::MIE);
            if mie {
                self.mstatus |= mstatus::MPIE;
            }
            self.mstatus |= (self.privilege as u64) << 11;
            self.privilege = Privilege::Machine;
            vector_target(self.mtvec, is_interrupt, code)
        }
    }

    /// Execute MRET, returning the PC to resume at.
    ///
    /// # Errors
    ///
    /// Illegal below machine mode.
    pub fn mret(&mut self) -> Result<u64, Exception> {
        if self.privilege != Privilege::Machine {
            return Err(Exception::IllegalInstruction);
        }
        let mpp = Privilege::from_bits(self.mstatus >> 11).unwrap_or(Privilege::User);
        let mpie = self.mstatus & mstatus::MPIE != 0;
        self.mstatus &= !(mstatus::MIE | mstatus::MPIE | mstatus::MPP);
        if mpie {
            self.mstatus |= mstatus::MIE;
        }
        self.mstatus |= mstatus::MPIE;
        if mpp != Privilege::Machine {
            self.mstatus &= !mstatus::MPRV;
        }
        self.privilege = mpp;
        Ok(self.mepc)
    }

    /// Execute SRET, returning the PC to resume at.
    ///
    /// # Errors
    ///
    /// Illegal below supervisor mode, or when `mstatus.TSR` is set in
    /// S-mode.
    pub fn sret(&mut self) -> Result<u64, Exception> {
        if self.privilege < Privilege::Supervisor {
            return Err(Exception::IllegalInstruction);
        }
        if self.privilege == Privilege::Supervisor && self.mstatus & mstatus::TSR != 0 {
            return Err(Exception::IllegalInstruction);
        }
        let spp = if self.mstatus & mstatus::SPP != 0 {
            Privilege::Supervisor
        } else {
            Privilege::User
        };
        let spie = self.mstatus & mstatus::SPIE != 0;
        self.mstatus &= !(mstatus::SIE | mstatus::SPIE | mstatus::SPP);
        if spie {
            self.mstatus |= mstatus::SIE;
        }
        self.mstatus |= mstatus::SPIE;
        self.mstatus &= !mstatus::MPRV;
        self.privilege = spp;
        Ok(self.sepc)
    }

    /// The highest-priority pending-and-enabled interrupt, if any should
    /// be taken at the current privilege.
    #[inline]
    pub fn pending_interrupt(&self) -> Option<Interrupt> {
        let pending = self.mip & self.mie;
        if pending == 0 {
            return None;
        }
        let m_enabled = self.privilege < Privilege::Machine || (self.mstatus & mstatus::MIE != 0);
        let m_pending = pending & !self.mideleg;
        if m_enabled && m_pending != 0 {
            return pick_interrupt(m_pending);
        }
        let s_enabled = self.privilege < Privilege::Supervisor
            || (self.privilege == Privilege::Supervisor && self.mstatus & mstatus::SIE != 0);
        let s_pending = pending & self.mideleg;
        if s_enabled && s_pending != 0 {
            return pick_interrupt(s_pending);
        }
        None
    }

    /// Accumulate floating-point exception flags into fcsr and mark FS dirty.
    #[inline]
    pub fn set_fflags(&mut self, flags: u64) {
        if flags != 0 {
            self.fcsr |= flags & 0x1f;
            self.mstatus |= mstatus::FS;
        }
    }

    /// The current dynamic rounding mode (frm field).
    #[inline]
    pub fn frm(&self) -> u8 {
        ((self.fcsr >> 5) & 0x7) as u8
    }

    /// True while `mstatus.FS` is not Off.
    #[inline]
    pub fn fp_enabled(&self) -> bool {
        self.mstatus & mstatus::FS != 0
    }

    /// The rounding mode `d` executes under, or `None` when `d` is an
    /// illegal instruction here: an FP instruction — any that names an FP
    /// register, loads, stores and moves included — while `mstatus.FS` is
    /// Off, or one whose rounding mode is reserved
    /// ([`DecodedInst::rounding`]). Every other instruction gets `Some`.
    #[inline]
    pub fn rounding(&self, d: &DecodedInst) -> Option<u8> {
        if !self.fp_enabled() && d.op.shape().regs().contains(&Some(RegFile::F)) {
            return None;
        }
        d.rounding(self.frm())
    }
}

/// `old` with the bits under `mask` taken from `new`.
fn merge(old: u64, new: u64, mask: u64) -> u64 {
    (old & !mask) | (new & mask)
}

fn vector_target(tvec: u64, is_interrupt: bool, code: u64) -> u64 {
    let base = tvec & !0b11;
    if tvec & 1 == 1 && is_interrupt {
        base + 4 * code
    } else {
        base
    }
}

fn pick_interrupt(pending: u64) -> Option<Interrupt> {
    // Priority: MEI, MSI, MTI, SEI, SSI, STI.
    [
        Interrupt::MachineExternal,
        Interrupt::MachineSoftware,
        Interrupt::MachineTimer,
        Interrupt::SupervisorExternal,
        Interrupt::SupervisorSoftware,
        Interrupt::SupervisorTimer,
    ]
    .into_iter()
    .find(|i| pending & (1 << i.code()) != 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_state() {
        let c = CsrFile::new(3);
        assert_eq!(c.privilege, Privilege::Machine);
        assert_eq!(c.read(addr::MHARTID).unwrap(), 3);
        assert_ne!(c.read(addr::MISA).unwrap() & (1 << 8), 0); // I bit
    }

    #[test]
    fn mstatus_warl_and_sd() {
        let mut c = CsrFile::new(0);
        c.write(addr::MSTATUS, u64::MAX).unwrap();
        let v = c.read(addr::MSTATUS).unwrap();
        assert_ne!(v & mstatus::SD, 0, "SD must mirror dirty FS");
        assert_eq!(v & mstatus::MPP, mstatus::MPP, "MPP=3 is legal");
        // Write MPP=2 (illegal) -> mapped to 0.
        c.write(addr::MSTATUS, 2 << 11).unwrap();
        assert_eq!(c.read(addr::MSTATUS).unwrap() & mstatus::MPP, 0);
    }

    #[test]
    fn sstatus_is_masked_view() {
        let mut c = CsrFile::new(0);
        c.write(addr::MSTATUS, mstatus::SIE | mstatus::MIE | mstatus::SUM)
            .unwrap();
        let s = c.read(addr::SSTATUS).unwrap();
        assert_ne!(s & mstatus::SIE, 0);
        assert_eq!(s & mstatus::MIE, 0, "MIE invisible through sstatus");
        assert_ne!(s & mstatus::SUM, 0);
        // Writing sstatus must not touch MIE.
        c.write(addr::SSTATUS, 0).unwrap();
        assert_ne!(c.read(addr::MSTATUS).unwrap() & mstatus::MIE, 0);
    }

    #[test]
    fn privilege_checks() {
        let mut c = CsrFile::new(0);
        c.privilege = Privilege::User;
        assert_eq!(c.read(addr::MSTATUS), Err(Exception::IllegalInstruction));
        assert_eq!(c.read(addr::SSTATUS), Err(Exception::IllegalInstruction));
        assert_eq!(
            c.write(addr::MSCRATCH, 1),
            Err(Exception::IllegalInstruction)
        );
        // Read-only region rejects writes even from M-mode.
        c.privilege = Privilege::Machine;
        assert_eq!(
            c.write(addr::MHARTID, 1),
            Err(Exception::IllegalInstruction)
        );
    }

    #[test]
    fn counter_gating() {
        let mut c = CsrFile::new(0);
        c.mcycle = 1234;
        assert_eq!(c.read(addr::CYCLE).unwrap(), 1234);
        c.privilege = Privilege::User;
        assert_eq!(c.read(addr::CYCLE), Err(Exception::IllegalInstruction));
        c.privilege = Privilege::Machine;
        c.write(addr::MCOUNTEREN, 1).unwrap();
        c.write(addr::SCOUNTEREN, 1).unwrap();
        c.privilege = Privilege::User;
        assert_eq!(c.read(addr::CYCLE).unwrap(), 1234);
    }

    #[test]
    fn trap_to_machine_and_mret() {
        let mut c = CsrFile::new(0);
        c.write(addr::MTVEC, 0x8000_1000).unwrap();
        c.write(addr::MSTATUS, mstatus::MIE).unwrap();
        c.privilege = Privilege::User;
        let target = c.take_trap(Trap::Exception(Exception::EcallFromU, 0), 0x100);
        assert_eq!(target, 0x8000_1000);
        assert_eq!(c.privilege, Privilege::Machine);
        assert_eq!(c.mepc, 0x100);
        assert_eq!(c.mcause, 8);
        assert_eq!(c.mstatus & mstatus::MPP, 0); // from U
        assert_eq!(c.mstatus & mstatus::MIE, 0);
        let back = c.mret().unwrap();
        assert_eq!(back, 0x100);
        assert_eq!(c.privilege, Privilege::User);
    }

    #[test]
    fn trap_delegation_to_supervisor() {
        let mut c = CsrFile::new(0);
        c.write(addr::MEDELEG, 1 << Exception::EcallFromU.code())
            .unwrap();
        c.write(addr::STVEC, 0x8000_2000).unwrap();
        c.privilege = Privilege::User;
        let target = c.take_trap(Trap::Exception(Exception::EcallFromU, 0), 0x200);
        assert_eq!(target, 0x8000_2000);
        assert_eq!(c.privilege, Privilege::Supervisor);
        assert_eq!(c.scause, 8);
        assert_eq!(c.sepc, 0x200);
        // Machine-mode traps are never delegated.
        c.privilege = Privilege::Machine;
        c.take_trap(Trap::Exception(Exception::EcallFromM, 0), 0x300);
        assert_eq!(c.mepc, 0x300);
    }

    #[test]
    fn vectored_interrupts() {
        let mut c = CsrFile::new(0);
        c.write(addr::MTVEC, 0x8000_0001).unwrap();
        let t = c.take_trap(Trap::Interrupt(Interrupt::MachineTimer), 0x0);
        assert_eq!(t, 0x8000_0000 + 4 * 7);
        assert_ne!(c.mcause >> 63, 0);
    }

    #[test]
    fn pending_interrupt_priority_and_gating() {
        let mut c = CsrFile::new(0);
        c.write(addr::MIE, 0xaaa).unwrap();
        c.mip = (1 << 7) | (1 << 3);
        // MIE clear in M-mode: no interrupt.
        assert_eq!(c.pending_interrupt(), None);
        c.write(addr::MSTATUS, mstatus::MIE).unwrap();
        assert_eq!(c.pending_interrupt(), Some(Interrupt::MachineSoftware));
        // Lower privilege always takes M-level interrupts.
        c.write(addr::MSTATUS, 0).unwrap();
        c.privilege = Privilege::User;
        assert_eq!(c.pending_interrupt(), Some(Interrupt::MachineSoftware));
    }

    #[test]
    fn satp_mode_warl() {
        let mut c = CsrFile::new(0);
        c.write(addr::SATP, 8 << 60 | 0x1234).unwrap();
        assert_eq!(c.read(addr::SATP).unwrap() >> 60, 8);
        // Sv48 (mode 9) unsupported: write ignored entirely.
        c.write(addr::SATP, 9 << 60).unwrap();
        assert_eq!(c.read(addr::SATP).unwrap() >> 60, 8);
    }

    #[test]
    fn fcsr_views() {
        let mut c = CsrFile::new(0);
        c.write(addr::FCSR, 0b101_11011).unwrap();
        assert_eq!(c.read(addr::FFLAGS).unwrap(), 0b11011);
        assert_eq!(c.read(addr::FRM).unwrap(), 0b101);
        c.write(addr::FRM, 0b001).unwrap();
        assert_eq!(c.read(addr::FCSR).unwrap(), 0b001_11011);
        c.set_fflags(0b00100);
        assert_eq!(c.read(addr::FFLAGS).unwrap(), 0b11111);
    }

    #[test]
    fn sret_tsr_trap() {
        let mut c = CsrFile::new(0);
        c.write(addr::MSTATUS, mstatus::TSR).unwrap();
        c.privilege = Privilege::Supervisor;
        assert_eq!(c.sret(), Err(Exception::IllegalInstruction));
    }

    /// What the rows cannot say about themselves one at a time.
    #[test]
    fn the_table_is_well_formed() {
        let file = CsrFile::new(0);
        for (i, row) in ROWS.iter().enumerate() {
            let (lo, hi) = row.addrs;
            assert!(lo <= hi, "{}", row.name);
            for other in &ROWS[..i] {
                let disjoint = other.addrs.1 < lo || hi < other.addrs.0;
                assert!(disjoint, "{} overlaps {}", row.name, other.name);
            }
            // A masked write needs a field to land in, at a writable address.
            let has_field = file.stored().any(|field| field.0 == lo);
            if let Access::Mask(_) = row.access {
                assert!(has_field && lo == hi && lo >> 10 != 0b11, "{}", row.name);
            }
            // Only a field can be compared or restored, so `Kind` on a row
            // without one says no more than free-running or not.
            assert!(has_field || row.kind != Kind::Restored, "{}", row.name);
        }
        // The masks the table derives are the privileged specification's.
        assert_eq!(DELEGABLE_EXCEPTIONS, 0xb3ff);
        assert_eq!((mip::S_LEVEL, mip::ALL), (0x222, 0xaaa));
    }

    /// One word per field, `privilege` first: what a digest folds.
    fn words(c: &CsrFile) -> [u64; 24] {
        [
            c.privilege as u64,
            c.mstatus,
            c.medeleg,
            c.mideleg,
            c.mie,
            c.mip,
            c.mtvec,
            c.mcounteren,
            c.mscratch,
            c.mepc,
            c.mcause,
            c.mtval,
            c.mcycle,
            c.minstret,
            c.stvec,
            c.scounteren,
            c.sscratch,
            c.sepc,
            c.scause,
            c.stval,
            c.satp,
            c.fcsr,
            c.mhartid,
            c.time,
        ]
    }

    fn fold(digest: &mut u64, word: u64) {
        *digest = (*digest ^ word)
            .wrapping_mul(0x0000_0100_0000_01b3)
            .rotate_left(23);
    }

    fn fold_result<T>(digest: &mut u64, r: Result<T, Exception>, word: impl Fn(T) -> u64) {
        match r {
            Ok(v) => {
                fold(digest, 1);
                fold(digest, word(v));
            }
            Err(e) => fold(digest, 2 + e.code()),
        }
    }

    /// The semantics of `read` and `write`, cell by cell: every address in
    /// every mode under every gate, from a file whose every field holds a
    /// distinct arbitrary pattern. The constant was computed by this body
    /// on the hand-written `match` arms the table replaced.
    #[test]
    fn read_write_semantics_are_pinned() {
        let mut base = CsrFile::new(5);
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        for field in [
            &mut base.mstatus,
            &mut base.medeleg,
            &mut base.mideleg,
            &mut base.mie,
            &mut base.mip,
            &mut base.mtvec,
            &mut base.mcounteren,
            &mut base.mscratch,
            &mut base.mepc,
            &mut base.mcause,
            &mut base.mtval,
            &mut base.mcycle,
            &mut base.minstret,
            &mut base.stvec,
            &mut base.scounteren,
            &mut base.sscratch,
            &mut base.sepc,
            &mut base.scause,
            &mut base.stval,
            &mut base.satp,
            &mut base.fcsr,
            &mut base.time,
        ] {
            seed = seed
                .wrapping_mul(0x5851_f42d_4c95_7f2d)
                .wrapping_add(0x1405_7b7e_f767_814f);
            *field = seed ^ (seed >> 29);
        }
        let values = [
            0,
            u64::MAX,
            0x5555_5555_5555_5555,
            0xaaaa_aaaa_aaaa_aaaa,
            (8 << 60) | 0x12_3456,       // a legal satp mode
            (1 << 60) | 0x1000 | 0xbeef, // an illegal satp mode, MPP = 2
        ];
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        words(&CsrFile::new(5))
            .into_iter()
            .for_each(|x| fold(&mut digest, x)); // the reset state
        for privilege in [Privilege::Machine, Privilege::Supervisor, Privilege::User] {
            for gates in 0..16u64 {
                let mut c = base.clone();
                c.privilege = privilege;
                let on = |bit: u64| gates >> bit & 1 != 0;
                c.mstatus &= !(mstatus::FS | mstatus::TVM);
                if on(0) {
                    c.mstatus |= mstatus::FS;
                }
                if on(1) {
                    c.mstatus |= mstatus::TVM;
                }
                c.mideleg = if on(2) { 0x222 } else { 0 };
                (c.mcounteren, c.scounteren) = if on(3) { (7, 7) } else { (0, 0) };
                for csr in 0..4096u16 {
                    fold_result(&mut digest, c.read(csr), |v| v);
                    for value in values {
                        let mut w = c.clone();
                        fold_result(&mut digest, w.write(csr, value), |()| 0);
                        if w != c {
                            words(&w).into_iter().for_each(|x| fold(&mut digest, x));
                        }
                    }
                }
            }
        }
        assert_eq!(digest, 0x4ca7_19cd_9612_31a0, "CSR semantics moved");
    }
}
