//! L1 TLBs, the unified second-level TLB, and the page-table walker's
//! timing model.
//!
//! Faithful to the behavior the paper's Fig. 3 diff-rule depends on: the
//! TLB caches *walk results*, including results derived from stale or
//! invalid PTEs, until an `sfence.vma` flush. Whether a given walk
//! observed a not-yet-drained PTE store is therefore visible to DiffTest
//! as a DUT-only page fault.

use riscv_isa::csr::CsrFile;
use riscv_isa::mem::PhysMem;
use riscv_isa::mmu::{self, AccessType};
use riscv_isa::trap::Exception;

/// A cached translation (possibly a cached *fault*).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbEntry {
    /// Virtual page number.
    pub vpn: u64,
    /// Mapping level (0 = 4 KiB, 1 = 2 MiB, 2 = 1 GiB).
    pub level: u8,
    /// Leaf PTE observed by the walk (0 when the walk faulted).
    pub pte: u64,
    /// The walk faulted; accesses through this entry fault too.
    pub faulted: bool,
    /// LRU timestamp.
    pub lru: u64,
    /// ASID-free validity.
    pub valid: bool,
}

/// A fully associative TLB with LRU replacement.
#[derive(Debug, Clone, PartialEq)]
pub struct Tlb {
    entries: Vec<TlbEntry>,
    clock: u64,
    /// Hits.
    pub hits: u64,
    /// Misses.
    pub misses: u64,
}

impl Tlb {
    /// Create a TLB with `n` entries.
    pub fn new(n: usize) -> Self {
        Tlb {
            entries: vec![
                TlbEntry {
                    vpn: 0,
                    level: 0,
                    pte: 0,
                    faulted: false,
                    lru: 0,
                    valid: false,
                };
                n
            ],
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn matches(e: &TlbEntry, vpn: u64) -> bool {
        if !e.valid {
            return false;
        }
        let shift = 9 * e.level as u64;
        (e.vpn >> shift) == (vpn >> shift)
    }

    /// Look up a virtual page number.
    pub fn lookup(&mut self, vpn: u64) -> Option<TlbEntry> {
        self.clock += 1;
        for e in &mut self.entries {
            if Self::matches(e, vpn) {
                e.lru = self.clock;
                self.hits += 1;
                return Some(*e);
            }
        }
        self.misses += 1;
        None
    }

    /// Install a walk result.
    pub fn fill(&mut self, vpn: u64, level: u8, pte: u64, faulted: bool) {
        self.clock += 1;
        let victim = self
            .entries
            .iter_mut()
            .min_by_key(|e| if e.valid { e.lru } else { 0 })
            .expect("TLB has entries");
        *victim = TlbEntry {
            vpn,
            level,
            pte,
            faulted,
            lru: self.clock,
            valid: true,
        };
    }

    /// Flush everything (`sfence.vma` / satp write).
    pub fn flush(&mut self) {
        for e in &mut self.entries {
            e.valid = false;
        }
    }
}

/// Result of an MMU request from the core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MmuResult {
    /// Translation complete.
    Done {
        /// Physical address.
        pa: u64,
        /// Extra cycles charged (0 for an L1 TLB hit).
        latency: u64,
    },
    /// Translation fault.
    Fault {
        /// The exception to raise.
        cause: Exception,
        /// Cycles spent before the fault was known.
        latency: u64,
    },
}

/// The MMU of one core: ITLB + DTLB + shared STLB + walker timing.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreMmu {
    /// Instruction-side L1 TLB.
    pub itlb: Tlb,
    /// Data-side L1 TLB.
    pub dtlb: Tlb,
    /// Unified second-level TLB.
    pub stlb: Tlb,
    /// Latency of an STLB hit.
    pub stlb_latency: u64,
    /// Latency per page-walk level.
    pub ptw_level_latency: u64,
    /// Completed walks (statistics).
    pub walks: u64,
}

impl CoreMmu {
    /// Build from configuration knobs.
    pub fn new(
        itlb: usize,
        dtlb: usize,
        stlb: usize,
        stlb_latency: u64,
        ptw_level_latency: u64,
    ) -> Self {
        CoreMmu {
            itlb: Tlb::new(itlb),
            dtlb: Tlb::new(dtlb),
            stlb: Tlb::new(stlb),
            stlb_latency,
            ptw_level_latency,
            walks: 0,
        }
    }

    /// Flush all TLBs.
    pub fn flush(&mut self) {
        self.itlb.flush();
        self.dtlb.flush();
        self.stlb.flush();
    }

    /// Translate `va` for `access`, walking the page table in `mem` on a
    /// miss. The walk reads *the memory image as currently visible to the
    /// PTW* — not the store buffer — which is exactly the Fig. 3 window.
    pub fn translate<M: PhysMem>(
        &mut self,
        mem: &mut M,
        csr: &CsrFile,
        va: u64,
        access: AccessType,
    ) -> MmuResult {
        if !mmu::translation_active(csr, access) {
            return MmuResult::Done { pa: va, latency: 0 };
        }
        let vpn = va >> 12;
        let l1 = if access == AccessType::Fetch {
            &mut self.itlb
        } else {
            &mut self.dtlb
        };
        if let Some(e) = l1.lookup(vpn) {
            return finish(csr, va, e, 0, access);
        }
        // STLB.
        if let Some(e) = self.stlb.lookup(vpn) {
            let l1 = if access == AccessType::Fetch {
                &mut self.itlb
            } else {
                &mut self.dtlb
            };
            l1.fill(e.vpn, e.level, e.pte, e.faulted);
            return finish(csr, va, e, self.stlb_latency, access);
        }
        // Page walk.
        self.walks += 1;
        match mmu::walk(mem, csr.satp, va, access) {
            Ok(t) => {
                let latency = self.stlb_latency + self.ptw_level_latency * t.steps.len() as u64;
                let e = TlbEntry {
                    vpn,
                    level: t.level,
                    pte: t.pte,
                    faulted: false,
                    lru: 0,
                    valid: true,
                };
                self.stlb.fill(vpn, t.level, t.pte, false);
                let l1 = if access == AccessType::Fetch {
                    &mut self.itlb
                } else {
                    &mut self.dtlb
                };
                l1.fill(vpn, t.level, t.pte, false);
                // Set A/D bits in memory as the hardware walker would.
                if let Some(last) = t.steps.last() {
                    let mut pte = t.pte | riscv_isa::mmu::pte::A;
                    if access == AccessType::Store {
                        pte |= riscv_isa::mmu::pte::D;
                    }
                    mem.write_uint(last.pte_addr, 8, pte);
                }
                finish(csr, va, e, latency, access)
            }
            Err(cause) => {
                let latency = self.stlb_latency + self.ptw_level_latency;
                // Cache the faulting walk in the L1 TLB: "invalid PTEs are
                // allowed to be cached in TLBs" (Fig. 3).
                let l1 = if access == AccessType::Fetch {
                    &mut self.itlb
                } else {
                    &mut self.dtlb
                };
                l1.fill(vpn, 0, 0, true);
                MmuResult::Fault { cause, latency }
            }
        }
    }
}

fn finish(csr: &CsrFile, va: u64, e: TlbEntry, latency: u64, access: AccessType) -> MmuResult {
    if e.faulted {
        return MmuResult::Fault {
            cause: access.page_fault(),
            latency,
        };
    }
    let eff = mmu::effective_privilege(csr, access);
    if let Err(cause) = mmu::check_leaf_permissions(csr, eff, e.pte, access) {
        return MmuResult::Fault { cause, latency };
    }
    let offset_mask = (1u64 << (12 + 9 * e.level)) - 1;
    let ppn = e.pte >> 10 & 0xfff_ffff_ffff;
    let pa = ((ppn << 12) & !offset_mask) | (va & offset_mask);
    MmuResult::Done { pa, latency }
}

#[cfg(test)]
mod tests {
    use super::*;
    use riscv_isa::csr::{addr, Privilege};
    use riscv_isa::mem::SparseMemory;
    use riscv_isa::mmu::{make_pte, pte};

    fn setup() -> (SparseMemory, CsrFile, CoreMmu) {
        let mut mem = SparseMemory::new();
        let root = 0x8100_0000u64;
        // Map VA 0x4000_1000 -> PA 0x8020_0000 (RWX, user).
        let va: u64 = 0x4000_1000;
        let (vpn2, vpn1, vpn0) = ((va >> 30) & 0x1ff, (va >> 21) & 0x1ff, (va >> 12) & 0x1ff);
        mem.write_uint(root + vpn2 * 8, 8, make_pte((root + 0x1000) >> 12, pte::V));
        mem.write_uint(
            root + 0x1000 + vpn1 * 8,
            8,
            make_pte((root + 0x2000) >> 12, pte::V),
        );
        mem.write_uint(
            root + 0x2000 + vpn0 * 8,
            8,
            make_pte(
                0x8020_0000 >> 12,
                pte::V | pte::R | pte::W | pte::X | pte::U,
            ),
        );
        let mut csr = CsrFile::new(0);
        csr.write(addr::SATP, (8 << 60) | (root >> 12)).unwrap();
        csr.privilege = Privilege::User;
        let mmu = CoreMmu::new(4, 4, 16, 3, 10);
        (mem, csr, mmu)
    }

    #[test]
    fn walk_then_hit() {
        let (mut mem, csr, mut mmu) = setup();
        let r = mmu.translate(&mut mem, &csr, 0x4000_1abc, AccessType::Load);
        match r {
            MmuResult::Done { pa, latency } => {
                assert_eq!(pa, 0x8020_0abc);
                assert_eq!(latency, 3 + 3 * 10, "walk charges per-level latency");
            }
            other => panic!("{other:?}"),
        }
        // Second access: L1 DTLB hit, zero latency.
        let r = mmu.translate(&mut mem, &csr, 0x4000_1def, AccessType::Load);
        assert_eq!(
            r,
            MmuResult::Done {
                pa: 0x8020_0def,
                latency: 0
            }
        );
        assert_eq!(mmu.walks, 1);
    }

    #[test]
    fn stale_fault_is_cached_until_flush() {
        let (mut mem, csr, mut mmu) = setup();
        // Unmapped page: walk faults and the fault is cached.
        let r = mmu.translate(&mut mem, &csr, 0x4000_5000, AccessType::Load);
        assert!(matches!(
            r,
            MmuResult::Fault {
                cause: Exception::LoadPageFault,
                ..
            }
        ));
        let walks_before = mmu.walks;
        // Map the page NOW (simulating the kernel's PTE store landing).
        let root = 0x8100_0000u64;
        let va: u64 = 0x4000_5000;
        let vpn0 = (va >> 12) & 0x1ff;
        mem.write_uint(
            root + 0x2000 + vpn0 * 8,
            8,
            make_pte(0x8030_0000 >> 12, pte::V | pte::R | pte::U),
        );
        // Still faults: the TLB cached the faulting walk (Fig. 3).
        let r = mmu.translate(&mut mem, &csr, 0x4000_5000, AccessType::Load);
        assert!(
            matches!(r, MmuResult::Fault { .. }),
            "cached fault persists"
        );
        assert_eq!(mmu.walks, walks_before, "no re-walk before sfence");
        // sfence.vma flushes; the new mapping is now visible.
        mmu.flush();
        let r = mmu.translate(&mut mem, &csr, 0x4000_5000, AccessType::Load);
        assert!(
            matches!(
                r,
                MmuResult::Done {
                    pa: 0x8030_0000,
                    ..
                }
            ),
            "{r:?}"
        );
    }

    #[test]
    fn permission_fault_from_cached_entry() {
        let (mut mem, mut csr, mut mmu) = setup();
        // Fill via load, then attempt a store to a read-only page.
        let root = 0x8100_0000u64;
        let vpn0 = (0x4000_1000u64 >> 12) & 0x1ff;
        mem.write_uint(
            root + 0x2000 + vpn0 * 8,
            8,
            make_pte(0x8020_0000 >> 12, pte::V | pte::R | pte::U),
        );
        let r = mmu.translate(&mut mem, &csr, 0x4000_1000, AccessType::Load);
        assert!(matches!(r, MmuResult::Done { .. }));
        let r = mmu.translate(&mut mem, &csr, 0x4000_1000, AccessType::Store);
        assert!(matches!(
            r,
            MmuResult::Fault {
                cause: Exception::StorePageFault,
                ..
            }
        ));
        // Fetch from a non-executable page faults too.
        csr.privilege = Privilege::User;
        let r = mmu.translate(&mut mem, &csr, 0x4000_1000, AccessType::Fetch);
        assert!(matches!(
            r,
            MmuResult::Fault {
                cause: Exception::InstPageFault,
                ..
            }
        ));
    }

    #[test]
    fn bare_mode_is_free() {
        let mut mem = SparseMemory::new();
        let csr = CsrFile::new(0);
        let mut mmu = CoreMmu::new(4, 4, 16, 3, 10);
        let r = mmu.translate(&mut mem, &csr, 0x8000_1234, AccessType::Fetch);
        assert_eq!(
            r,
            MmuResult::Done {
                pa: 0x8000_1234,
                latency: 0
            }
        );
    }

    #[test]
    fn lru_eviction() {
        let (mut mem, csr, mut mmu) = setup();
        // Touch the mapped page, then flood the 4-entry DTLB with faults.
        let r = mmu.translate(&mut mem, &csr, 0x4000_1000, AccessType::Load);
        assert!(matches!(r, MmuResult::Done { .. }));
        for i in 0..8u64 {
            let _ = mmu.translate(&mut mem, &csr, 0x5000_0000 + i * 0x1000, AccessType::Load);
        }
        // The original entry was evicted from the DTLB but the STLB keeps
        // it: next access pays the STLB latency, not a walk.
        let walks = mmu.walks;
        let r = mmu.translate(&mut mem, &csr, 0x4000_1000, AccessType::Load);
        match r {
            MmuResult::Done { latency, .. } => assert_eq!(latency, 3),
            other => panic!("{other:?}"),
        }
        assert_eq!(mmu.walks, walks, "STLB hit avoids the walk");
    }
}
