//! DRAV — Diff-Rule based Agile Verification (paper §III-A).
//!
//! A diff-rule captures one specification-level degree of freedom: a way
//! in which a DUT's outcome may legally differ from the reference model's.
//! Rules are deterministic and persistent across micro-architectures, so
//! the same rule set verifies every implementation of the specification —
//! the N-to-1 DUT↔REF mapping of Fig. 1(c).
//!
//! This module defines the rule vocabulary and the CSR field-rule table
//! (the "at least 120 rules" of §III-B2 devised from the privilege
//! specification).

use riscv_isa::csr::{addr, CsrFile};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// The dynamic diff-rules DiffTest can apply during co-simulation.
///
/// Each variant corresponds to a non-determinism source from §III-B2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DiffRule {
    /// The DUT may take a page fault the REF does not (speculative TLBs
    /// caching stale/invalid PTEs, Fig. 3). The REF is forced to take the
    /// same fault; afterwards the states must agree.
    SpeculativePageFault,
    /// An SC may fail on the DUT for micro-architectural reasons
    /// (timeouts); the REF is notified and fails too.
    ScFailure,
    /// A load may observe a value written by another hart: checked
    /// against the Global Memory, then patched into the REF
    /// (multi-core/RVWMO rule, §III-B2b).
    GlobalMemoryLoad,
    /// MMIO load values are taken from the DUT (device state is not
    /// modeled in the REF, §III-B2c).
    MmioLoad,
    /// Performance-counter CSR reads are taken from the DUT.
    CounterRead,
    /// Fused macro-op pairs commit as one DUT event; the REF steps twice.
    MacroFusion,
    /// A CSR field-level rule from the static table.
    CsrField,
}

impl DiffRule {
    /// Short identifier used in statistics.
    pub fn name(self) -> &'static str {
        match self {
            DiffRule::SpeculativePageFault => "speculative-page-fault",
            DiffRule::ScFailure => "sc-failure",
            DiffRule::GlobalMemoryLoad => "global-memory-load",
            DiffRule::MmioLoad => "mmio-load",
            DiffRule::CounterRead => "counter-read",
            DiffRule::MacroFusion => "macro-fusion",
            DiffRule::CsrField => "csr-field",
        }
    }
}

/// How a CSR field may legally diverge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CsrFieldKind {
    /// Free-running or implementation-defined: excluded from comparison.
    Ignore,
    /// WARL field: both must agree after masking (the mask defines the
    /// implemented bits).
    WarlMask,
    /// Read-only zero in this implementation.
    ReadOnlyZero,
}

/// One field-level CSR rule.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CsrFieldRule {
    /// CSR address.
    pub csr: u16,
    /// Bit mask of the field.
    pub mask: u64,
    /// Rule kind.
    pub kind: CsrFieldKind,
    /// Human-readable name ("mstatus.FS", "mcycle", ...).
    pub name: String,
}

/// The static CSR rule table.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CsrRuleTable {
    rules: Vec<CsrFieldRule>,
}

impl CsrRuleTable {
    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Iterate over the rules.
    pub fn iter(&self) -> impl Iterator<Item = &CsrFieldRule> {
        self.rules.iter()
    }

    /// The ignore-mask for a CSR (union of Ignore-field masks).
    pub fn ignore_mask(&self, csr: u16) -> u64 {
        self.rules
            .iter()
            .filter(|r| r.csr == csr && r.kind == CsrFieldKind::Ignore)
            .fold(0, |m, r| m | r.mask)
    }

    /// The standard RV64 machine/supervisor rule table.
    ///
    /// Devised from the privilege specification like the paper's set; the
    /// count is ≥ 120 (checked by a unit test).
    pub fn standard() -> Self {
        let mut rules = Vec::new();
        let mut push = |csr: u16, mask: u64, kind: CsrFieldKind, name: &str| {
            rules.push(CsrFieldRule {
                csr,
                mask,
                kind,
                name: name.to_string(),
            });
        };
        use CsrFieldKind::*;
        // Free-running counters (mcycle/minstret + user shadows + time).
        push(addr::MCYCLE, u64::MAX, Ignore, "mcycle");
        push(addr::MINSTRET, u64::MAX, Ignore, "minstret");
        push(addr::CYCLE, u64::MAX, Ignore, "cycle");
        push(addr::INSTRET, u64::MAX, Ignore, "instret");
        push(addr::TIME, u64::MAX, Ignore, "time");
        // 29 machine hardware performance counters + their events.
        for i in 3..32u16 {
            push(0xb00 + i, u64::MAX, Ignore, &format!("mhpmcounter{i}"));
            push(0xc00 + i, u64::MAX, Ignore, &format!("hpmcounter{i}"));
            push(0x320 + i, u64::MAX, ReadOnlyZero, &format!("mhpmevent{i}"));
        }
        // mstatus fields (each WARL field is its own rule).
        for (mask, name) in [
            (1u64 << 1, "mstatus.SIE"),
            (1 << 3, "mstatus.MIE"),
            (1 << 5, "mstatus.SPIE"),
            (1 << 7, "mstatus.MPIE"),
            (1 << 8, "mstatus.SPP"),
            (0b11 << 11, "mstatus.MPP"),
            (0b11 << 13, "mstatus.FS"),
            (0b11 << 15, "mstatus.XS"),
            (1 << 17, "mstatus.MPRV"),
            (1 << 18, "mstatus.SUM"),
            (1 << 19, "mstatus.MXR"),
            (1 << 20, "mstatus.TVM"),
            (1 << 21, "mstatus.TW"),
            (1 << 22, "mstatus.TSR"),
            (0b11 << 32, "mstatus.UXL"),
            (0b11 << 34, "mstatus.SXL"),
            (1 << 63, "mstatus.SD"),
        ] {
            push(addr::MSTATUS, mask, WarlMask, name);
        }
        // mip/mie implemented bits (each standard interrupt its own rule).
        for (bit, n) in [(1u16, "SSI"), (3, "MSI"), (5, "STI"), (7, "MTI"), (9, "SEI"), (11, "MEI")]
        {
            push(addr::MIP, 1 << bit, WarlMask, &format!("mip.{n}"));
            push(addr::MIE, 1 << bit, WarlMask, &format!("mie.{n}"));
        }
        // PMP is unimplemented: reads as zero.
        for i in 0..16u16 {
            push(addr::PMPCFG0 + i, u64::MAX, ReadOnlyZero, &format!("pmpcfg{i}"));
        }
        for i in 0..16u16 {
            push(
                addr::PMPADDR0 + i,
                u64::MAX,
                ReadOnlyZero,
                &format!("pmpaddr{i}"),
            );
        }
        // WARL trap vectors and delegation masks.
        push(addr::MTVEC, !0b10, WarlMask, "mtvec");
        push(addr::STVEC, !0b10, WarlMask, "stvec");
        push(addr::MEDELEG, 0xb3ff, WarlMask, "medeleg");
        push(addr::MIDELEG, 0x222, WarlMask, "mideleg");
        push(addr::MCOUNTEREN, 0b111, WarlMask, "mcounteren");
        push(addr::SCOUNTEREN, 0b111, WarlMask, "scounteren");
        push(addr::SATP, 0x8fff_ffff_ffff_ffff, WarlMask, "satp");
        push(addr::MEPC, !1, WarlMask, "mepc");
        push(addr::SEPC, !1, WarlMask, "sepc");
        push(addr::FCSR, 0xff, WarlMask, "fcsr");
        CsrRuleTable { rules }
    }

    /// CSR addresses whose reads are DUT-trusted (counter-read rule).
    pub fn is_counter(csr: u16) -> bool {
        matches!(
            csr,
            addr::MCYCLE | addr::MINSTRET | addr::CYCLE | addr::INSTRET | addr::TIME
        ) || (0xb03..=0xb1f).contains(&csr)
            || (0xc03..=0xc1f).contains(&csr)
    }
}

/// A CSR comparison mismatch.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CsrMismatch {
    /// CSR address.
    pub csr: u16,
    /// DUT value (masked).
    pub dut: u64,
    /// REF value (masked).
    pub reference: u64,
}

/// Compare two CSR files under the rule table. Counters and ignore-fields
/// are excluded; everything else must match exactly.
pub fn compare_csrs(dut: &CsrFile, reference: &CsrFile, table: &CsrRuleTable) -> Option<CsrMismatch> {
    let compared: &[u16] = &[
        addr::MSTATUS,
        addr::MTVEC,
        addr::MEDELEG,
        addr::MIDELEG,
        addr::MIE,
        addr::MIP,
        addr::MSCRATCH,
        addr::MEPC,
        addr::MCAUSE,
        addr::MTVAL,
        addr::MCOUNTEREN,
        addr::STVEC,
        addr::SSCRATCH,
        addr::SEPC,
        addr::SCAUSE,
        addr::STVAL,
        addr::SATP,
        addr::SCOUNTEREN,
        addr::FCSR,
    ];
    for &csr in compared {
        let ignore = table.ignore_mask(csr);
        // Read raw fields, bypassing privilege checks.
        let (d, r) = (raw_csr(dut, csr), raw_csr(reference, csr));
        let (dm, rm) = (d & !ignore, r & !ignore);
        if dm != rm {
            return Some(CsrMismatch {
                csr,
                dut: dm,
                reference: rm,
            });
        }
    }
    None
}

fn raw_csr(f: &CsrFile, csr: u16) -> u64 {
    match csr {
        addr::MSTATUS => f.mstatus,
        addr::MTVEC => f.mtvec,
        addr::MEDELEG => f.medeleg,
        addr::MIDELEG => f.mideleg,
        addr::MIE => f.mie,
        addr::MIP => f.mip,
        addr::MSCRATCH => f.mscratch,
        addr::MEPC => f.mepc,
        addr::MCAUSE => f.mcause,
        addr::MTVAL => f.mtval,
        addr::MCOUNTEREN => f.mcounteren,
        addr::STVEC => f.stvec,
        addr::SSCRATCH => f.sscratch,
        addr::SEPC => f.sepc,
        addr::SCAUSE => f.scause,
        addr::STVAL => f.stval,
        addr::SATP => f.satp,
        addr::SCOUNTEREN => f.scounteren,
        addr::FCSR => f.fcsr,
        _ => 0,
    }
}

/// Statistics over applied diff-rules.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RuleStats {
    counts: HashMap<String, u64>,
}

impl RuleStats {
    /// Record one application of `rule`.
    pub fn record(&mut self, rule: DiffRule) {
        // Look up by `&str`: the name is allocated once per rule, not
        // once per trigger.
        match self.counts.get_mut(rule.name()) {
            Some(n) => *n += 1,
            None => {
                self.counts.insert(rule.name().to_string(), 1);
            }
        }
    }

    /// Times `rule` was applied.
    pub fn count(&self, rule: DiffRule) -> u64 {
        self.counts.get(rule.name()).copied().unwrap_or(0)
    }

    /// All counts (rule name -> applications).
    pub fn all(&self) -> &HashMap<String, u64> {
        &self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_table_has_at_least_120_rules() {
        let t = CsrRuleTable::standard();
        assert!(t.len() >= 120, "only {} rules", t.len());
    }

    #[test]
    fn counters_are_ignored_in_comparison() {
        let t = CsrRuleTable::standard();
        let a = CsrFile::new(0);
        let mut b = CsrFile::new(0);
        b.mcycle = 999;
        b.minstret = 123;
        b.time = 7;
        assert_eq!(compare_csrs(&a, &b, &t), None);
    }

    #[test]
    fn real_divergence_is_caught() {
        let t = CsrRuleTable::standard();
        let a = CsrFile::new(0);
        let mut b = CsrFile::new(0);
        b.mscratch = 1;
        let m = compare_csrs(&a, &b, &t).expect("mismatch");
        assert_eq!(m.csr, addr::MSCRATCH);
        let mut c = CsrFile::new(0);
        c.mcause = 5;
        assert!(compare_csrs(&a, &c, &t).is_some());
    }

    #[test]
    fn counter_csr_classification() {
        assert!(CsrRuleTable::is_counter(addr::MCYCLE));
        assert!(CsrRuleTable::is_counter(addr::TIME));
        assert!(CsrRuleTable::is_counter(0xb10));
        assert!(!CsrRuleTable::is_counter(addr::MSCRATCH));
    }

    #[test]
    fn rule_stats_accumulate() {
        let mut s = RuleStats::default();
        s.record(DiffRule::ScFailure);
        s.record(DiffRule::ScFailure);
        s.record(DiffRule::MmioLoad);
        assert_eq!(s.count(DiffRule::ScFailure), 2);
        assert_eq!(s.count(DiffRule::MmioLoad), 1);
        assert_eq!(s.count(DiffRule::MacroFusion), 0);
    }

    #[test]
    fn ignore_masks_compose() {
        let t = CsrRuleTable::standard();
        assert_eq!(t.ignore_mask(addr::MCYCLE), u64::MAX);
        assert_eq!(t.ignore_mask(addr::MSCRATCH), 0);
    }
}
