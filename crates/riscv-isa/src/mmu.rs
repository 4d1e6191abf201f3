//! Sv39 virtual-address translation.
//!
//! The walker is shared by the NEMU reference model and (step by step) by
//! the `xscore` page-table walker, so both produce identical final
//! translations — any DUT/REF divergence then comes only from *when* the
//! TLB observed the page tables, which is precisely the non-determinism
//! the paper's Fig. 3 diff-rule covers.

use crate::csr::{mstatus, CsrFile, Privilege};
use crate::mem::PhysMem;
use crate::trap::Exception;
use serde::{Deserialize, Serialize};

/// The kind of access being translated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessType {
    /// Instruction fetch.
    Fetch,
    /// Data load.
    Load,
    /// Data store or AMO.
    Store,
}

impl AccessType {
    /// The page-fault exception for this access type.
    pub fn page_fault(self) -> Exception {
        match self {
            AccessType::Fetch => Exception::InstPageFault,
            AccessType::Load => Exception::LoadPageFault,
            AccessType::Store => Exception::StorePageFault,
        }
    }
}

/// PTE flag bits.
#[allow(missing_docs)]
pub mod pte {
    pub const V: u64 = 1 << 0;
    pub const R: u64 = 1 << 1;
    pub const W: u64 = 1 << 2;
    pub const X: u64 = 1 << 3;
    pub const U: u64 = 1 << 4;
    pub const G: u64 = 1 << 5;
    pub const A: u64 = 1 << 6;
    pub const D: u64 = 1 << 7;
}

/// One step of a page walk (used by the cycle model to charge latency and
/// by ArchDB to log PTW transactions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WalkStep {
    /// Physical address of the PTE that was read.
    pub pte_addr: u64,
    /// The PTE value observed.
    pub pte: u64,
    /// Walk level (2 = root .. 0 = leaf for 4 KiB pages).
    pub level: u8,
}

/// Result of a successful page walk.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Translation {
    /// Translated physical address.
    pub pa: u64,
    /// Leaf PTE (after any A/D update).
    pub pte: u64,
    /// Level of the leaf (0 = 4 KiB, 1 = 2 MiB, 2 = 1 GiB).
    pub level: u8,
    /// The PTE reads performed.
    pub steps: Vec<WalkStep>,
    /// Virtual page number of the leaf mapping.
    pub vpn: u64,
}

const PTE_SIZE: u64 = 8;
const LEVELS: u64 = 3;

/// Returns true when translation is active for this access.
///
/// Fetches translate whenever `satp.MODE == Sv39` and the privilege is
/// below machine; loads/stores additionally honor `mstatus.MPRV`.
#[inline]
pub fn translation_active(csr: &CsrFile, access: AccessType) -> bool {
    let eff = effective_privilege(csr, access);
    eff != Privilege::Machine && csr.satp >> 60 == 8
}

/// The privilege level at which a memory access is performed,
/// considering `mstatus.MPRV` for data accesses.
#[inline]
pub fn effective_privilege(csr: &CsrFile, access: AccessType) -> Privilege {
    if access != AccessType::Fetch && csr.mstatus & mstatus::MPRV != 0 {
        Privilege::from_bits(csr.mstatus >> 11).unwrap_or(Privilege::User)
    } else {
        csr.privilege
    }
}

/// Translate a virtual address, updating A/D bits in memory.
///
/// Returns the identity mapping when translation is inactive.
///
/// # Errors
///
/// Returns the appropriate page-fault exception when the walk encounters
/// an invalid, misconfigured, or permission-violating PTE.
pub fn translate<M: PhysMem>(
    mem: &mut M,
    csr: &CsrFile,
    va: u64,
    access: AccessType,
) -> Result<Translation, Exception> {
    if !translation_active(csr, access) {
        return Ok(Translation {
            pa: va,
            pte: 0,
            level: 0,
            steps: Vec::new(),
            vpn: va >> 12,
        });
    }
    let eff = effective_privilege(csr, access);
    let walk = walk(mem, csr.satp, va, access)?;
    check_leaf_permissions(csr, eff, walk.pte, access)?;
    // Update A/D bits (this implementation always performs the hardware
    // update rather than faulting — one of the legal choices the spec
    // leaves to the implementation).
    let mut leaf = walk.pte;
    let mut need = pte::A;
    if access == AccessType::Store {
        need |= pte::D;
    }
    if leaf & need != need {
        leaf |= need;
        let last = walk.steps.last().expect("walk has at least one step");
        mem.write_uint(last.pte_addr, PTE_SIZE, leaf);
    }
    Ok(Translation { pte: leaf, ..walk })
}

/// Perform the raw Sv39 walk without permission checks or A/D updates.
///
/// # Errors
///
/// Page fault on non-canonical addresses, invalid PTEs, malformed
/// intermediate PTEs, or misaligned superpages.
pub fn walk<M: PhysMem>(
    mem: &mut M,
    satp: u64,
    va: u64,
    access: AccessType,
) -> Result<Translation, Exception> {
    // Canonicality: bits 63:39 must equal bit 38.
    let sext = (va as i64) << 25 >> 25;
    if sext as u64 != va {
        return Err(access.page_fault());
    }

    let mut steps = Vec::with_capacity(3);
    let mut table = (satp & 0xfff_ffff_ffff) << 12;
    let mut level = LEVELS - 1;
    loop {
        let vpn_i = (va >> (12 + 9 * level)) & 0x1ff;
        let pte_addr = table + vpn_i * PTE_SIZE;
        let pte_val = mem.read_uint(pte_addr, PTE_SIZE);
        steps.push(WalkStep {
            pte_addr,
            pte: pte_val,
            level: level as u8,
        });

        if pte_val & pte::V == 0 || (pte_val & pte::R == 0 && pte_val & pte::W != 0) {
            return Err(access.page_fault());
        }
        if pte_val & (pte::R | pte::X) != 0 {
            // Leaf PTE; check superpage alignment.
            let ppn = pte_val >> 10 & 0xfff_ffff_ffff;
            let align_mask = (1u64 << (9 * level)) - 1;
            if ppn & align_mask != 0 {
                return Err(access.page_fault());
            }
            let offset_mask = (1u64 << (12 + 9 * level)) - 1;
            let pa = ((ppn << 12) & !offset_mask) | (va & offset_mask);
            return Ok(Translation {
                pa,
                pte: pte_val,
                level: level as u8,
                steps,
                vpn: va >> 12,
            });
        }
        // Non-leaf: A/D/U must be clear.
        if pte_val & (pte::A | pte::D | pte::U) != 0 {
            return Err(access.page_fault());
        }
        if level == 0 {
            return Err(access.page_fault());
        }
        level -= 1;
        table = (pte_val >> 10 & 0xfff_ffff_ffff) << 12;
    }
}

/// Check leaf-PTE permissions for an access at effective privilege `eff`.
///
/// # Errors
///
/// Page fault when R/W/X/U/SUM/MXR rules are violated.
pub fn check_leaf_permissions(
    csr: &CsrFile,
    eff: Privilege,
    leaf: u64,
    access: AccessType,
) -> Result<(), Exception> {
    let sum = csr.mstatus & mstatus::SUM != 0;
    let mxr = csr.mstatus & mstatus::MXR != 0;
    let user_page = leaf & pte::U != 0;
    match eff {
        Privilege::User => {
            if !user_page {
                return Err(access.page_fault());
            }
        }
        Privilege::Supervisor => {
            if user_page && (access == AccessType::Fetch || !sum) {
                return Err(access.page_fault());
            }
        }
        Privilege::Machine => {}
    }
    let ok = match access {
        AccessType::Fetch => leaf & pte::X != 0,
        AccessType::Load => leaf & pte::R != 0 || (mxr && leaf & pte::X != 0),
        AccessType::Store => leaf & pte::W != 0,
    };
    if ok {
        Ok(())
    } else {
        Err(access.page_fault())
    }
}

/// Build a PTE value from a physical page number and flags (test helper
/// and page-table construction utility used by workloads).
#[inline]
pub fn make_pte(ppn: u64, flags: u64) -> u64 {
    (ppn << 10) | flags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::addr;
    use crate::mem::SparseMemory;

    /// Build a single 4 KiB mapping va -> pa in a fresh page table rooted
    /// at `root`.
    fn map_page(mem: &mut SparseMemory, root: u64, va: u64, pa: u64, flags: u64) {
        let vpn2 = (va >> 30) & 0x1ff;
        let vpn1 = (va >> 21) & 0x1ff;
        let vpn0 = (va >> 12) & 0x1ff;
        let l1 = root + 0x1000;
        let l0 = root + 0x2000;
        mem.write_uint(root + vpn2 * 8, 8, make_pte(l1 >> 12, pte::V));
        mem.write_uint(l1 + vpn1 * 8, 8, make_pte(l0 >> 12, pte::V));
        mem.write_uint(l0 + vpn0 * 8, 8, make_pte(pa >> 12, flags));
    }

    fn sv39_csr(root: u64, privilege: Privilege) -> CsrFile {
        let mut c = CsrFile::new(0);
        c.write(addr::SATP, (8 << 60) | (root >> 12)).unwrap();
        c.privilege = privilege;
        c
    }

    #[test]
    fn bare_mode_is_identity() {
        let mut mem = SparseMemory::new();
        let csr = CsrFile::new(0);
        let t = translate(&mut mem, &csr, 0x1234_5678, AccessType::Load).unwrap();
        assert_eq!(t.pa, 0x1234_5678);
        assert!(t.steps.is_empty());
    }

    #[test]
    fn machine_mode_bypasses_translation() {
        let mut mem = SparseMemory::new();
        let mut csr = sv39_csr(0x8100_0000, Privilege::Machine);
        csr.privilege = Privilege::Machine;
        let t = translate(&mut mem, &csr, 0xdead_b000, AccessType::Fetch).unwrap();
        assert_eq!(t.pa, 0xdead_b000);
    }

    #[test]
    fn basic_walk_and_ad_update() {
        let mut mem = SparseMemory::new();
        let root = 0x8100_0000u64;
        map_page(
            &mut mem,
            root,
            0x4000_1000,
            0x8020_0000,
            pte::V | pte::R | pte::W | pte::U,
        );
        let csr = sv39_csr(root, Privilege::User);
        let t = translate(&mut mem, &csr, 0x4000_1abc, AccessType::Load).unwrap();
        assert_eq!(t.pa, 0x8020_0abc);
        assert_eq!(t.steps.len(), 3);
        // A bit must have been set in memory.
        let leaf_addr = t.steps.last().unwrap().pte_addr;
        assert_ne!(mem.read_uint(leaf_addr, 8) & pte::A, 0);
        assert_eq!(mem.read_uint(leaf_addr, 8) & pte::D, 0);

        // A store also sets D.
        let t = translate(&mut mem, &csr, 0x4000_1abc, AccessType::Store).unwrap();
        assert_ne!(t.pte & pte::D, 0);
        assert_ne!(mem.read_uint(leaf_addr, 8) & pte::D, 0);
    }

    #[test]
    fn invalid_pte_faults() {
        let mut mem = SparseMemory::new();
        let root = 0x8100_0000u64;
        let csr = sv39_csr(root, Privilege::Supervisor);
        // Nothing mapped: level-2 PTE is zero.
        assert_eq!(
            translate(&mut mem, &csr, 0x4000_0000, AccessType::Load),
            Err(Exception::LoadPageFault)
        );
        assert_eq!(
            translate(&mut mem, &csr, 0x4000_0000, AccessType::Fetch),
            Err(Exception::InstPageFault)
        );
        assert_eq!(
            translate(&mut mem, &csr, 0x4000_0000, AccessType::Store),
            Err(Exception::StorePageFault)
        );
    }

    #[test]
    fn non_canonical_va_faults() {
        let mut mem = SparseMemory::new();
        let csr = sv39_csr(0x8100_0000, Privilege::Supervisor);
        assert_eq!(
            translate(&mut mem, &csr, 0x0100_0000_0000_0000, AccessType::Load),
            Err(Exception::LoadPageFault)
        );
    }

    #[test]
    fn permission_enforcement() {
        let mut mem = SparseMemory::new();
        let root = 0x8100_0000u64;
        // Supervisor page, read-only, no X.
        map_page(&mut mem, root, 0x4000_0000, 0x8020_0000, pte::V | pte::R);
        let csr = sv39_csr(root, Privilege::Supervisor);
        assert!(translate(&mut mem, &csr, 0x4000_0000, AccessType::Load).is_ok());
        assert_eq!(
            translate(&mut mem, &csr, 0x4000_0000, AccessType::Store),
            Err(Exception::StorePageFault)
        );
        assert_eq!(
            translate(&mut mem, &csr, 0x4000_0000, AccessType::Fetch),
            Err(Exception::InstPageFault)
        );
        // User cannot touch supervisor pages.
        let mut ucsr = sv39_csr(root, Privilege::User);
        assert_eq!(
            translate(&mut mem, &ucsr, 0x4000_0000, AccessType::Load),
            Err(Exception::LoadPageFault)
        );
        // Supervisor cannot touch user pages without SUM.
        map_page(
            &mut mem,
            root,
            0x4000_0000,
            0x8020_0000,
            pte::V | pte::R | pte::U,
        );
        let mut scsr = sv39_csr(root, Privilege::Supervisor);
        assert_eq!(
            translate(&mut mem, &scsr, 0x4000_0000, AccessType::Load),
            Err(Exception::LoadPageFault)
        );
        scsr.mstatus |= mstatus::SUM;
        assert!(translate(&mut mem, &scsr, 0x4000_0000, AccessType::Load).is_ok());
        // MXR lets loads use X-only pages.
        map_page(
            &mut mem,
            root,
            0x4000_0000,
            0x8020_0000,
            pte::V | pte::X | pte::U,
        );
        ucsr.mstatus &= !mstatus::MXR;
        assert_eq!(
            translate(&mut mem, &ucsr, 0x4000_0000, AccessType::Load),
            Err(Exception::LoadPageFault)
        );
        ucsr.mstatus |= mstatus::MXR;
        assert!(translate(&mut mem, &ucsr, 0x4000_0000, AccessType::Load).is_ok());
    }

    #[test]
    fn superpage_translation_and_alignment() {
        let mut mem = SparseMemory::new();
        let root = 0x8100_0000u64;
        // 2 MiB superpage at level 1: map VA 0x4000_0000 region.
        let vpn2 = (0x4000_0000u64 >> 30) & 0x1ff;
        let vpn1 = (0x4000_0000u64 >> 21) & 0x1ff;
        let l1 = root + 0x1000;
        mem.write_uint(root + vpn2 * 8, 8, make_pte(l1 >> 12, pte::V));
        mem.write_uint(
            l1 + vpn1 * 8,
            8,
            make_pte(0x8020_0000 >> 12, pte::V | pte::R | pte::W),
        );
        let csr = sv39_csr(root, Privilege::Supervisor);
        let t = translate(&mut mem, &csr, 0x4000_0000 + 0x12_3456, AccessType::Load).unwrap();
        assert_eq!(t.pa, 0x8020_0000 + 0x12_3456);
        assert_eq!(t.level, 1);
        // Misaligned superpage faults.
        mem.write_uint(
            l1 + vpn1 * 8,
            8,
            make_pte((0x8020_0000 >> 12) + 1, pte::V | pte::R),
        );
        assert_eq!(
            translate(&mut mem, &csr, 0x4000_0000, AccessType::Load),
            Err(Exception::LoadPageFault)
        );
    }

    #[test]
    fn mprv_uses_mpp_for_data() {
        let mut mem = SparseMemory::new();
        let root = 0x8100_0000u64;
        map_page(
            &mut mem,
            root,
            0x4000_0000,
            0x8020_0000,
            pte::V | pte::R | pte::W,
        );
        let mut csr = sv39_csr(root, Privilege::Machine);
        csr.privilege = Privilege::Machine;
        // MPRV with MPP=S: data accesses translate, fetches do not.
        csr.mstatus |= mstatus::MPRV | (1 << 11);
        let t = translate(&mut mem, &csr, 0x4000_0000, AccessType::Load).unwrap();
        assert_eq!(t.pa, 0x8020_0000);
        let t = translate(&mut mem, &csr, 0x4000_0000, AccessType::Fetch).unwrap();
        assert_eq!(t.pa, 0x4000_0000);
    }
}
