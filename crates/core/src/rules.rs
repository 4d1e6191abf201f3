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
//! specification). The table is not written here: it is read off
//! `riscv_isa::csr::ROWS`, the one CSR table the `CsrFile` itself is
//! generated from, so a rule's mask *is* the mask `CsrFile::write` applies
//! and the set a full-state comparison skips *is* the set of `Ignore`
//! rules (`tests::every_rule_holds_on_the_csr_file` checks both).

use riscv_isa::csr::{self, Access, Kind};
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

/// The standard RV64 machine/supervisor rule table, one pass over the CSR
/// table: per address, a free-running row is an `Ignore` rule, a row with
/// named sub-fields a `WarlMask` rule per field, an unimplemented row a
/// `ReadOnlyZero` rule, and a row whose write mask drops bits a `WarlMask`
/// rule of that mask. Devised from the privilege specification like the
/// paper's set; the count is ≥ 120 (checked by a unit test).
pub fn csr_field_rules() -> Vec<CsrFieldRule> {
    use CsrFieldKind::*;
    let mut rules = Vec::new();
    for row in csr::ROWS {
        for csr in row.addrs.0..=row.addrs.1 {
            let name = if row.addrs.0 == row.addrs.1 {
                row.name.to_string()
            } else {
                format!("{}{}", row.name, row.first + csr - row.addrs.0)
            };
            let mut push = |mask, kind, name| rules.push(CsrFieldRule { csr, mask, kind, name });
            match (row.kind, row.access) {
                (Kind::FreeRunning, _) => push(u64::MAX, Ignore, name),
                _ if !row.fields.is_empty() => {
                    for (field, mask) in row.fields {
                        push(*mask, WarlMask, format!("{name}.{field}"));
                    }
                }
                (_, Access::Zero) => push(u64::MAX, ReadOnlyZero, name),
                (_, Access::Mask(mask)) if mask != u64::MAX => push(mask, WarlMask, name),
                _ => {}
            }
        }
    }
    rules
}

/// CSR addresses whose reads are DUT-trusted (counter-read rule).
pub fn is_counter(csr: u16) -> bool {
    csr::row(csr).is_some_and(|row| row.kind == Kind::FreeRunning)
}

/// A CSR comparison mismatch.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CsrMismatch {
    /// CSR address.
    pub csr: u16,
    /// DUT value.
    pub dut: u64,
    /// REF value.
    pub reference: u64,
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
    use riscv_isa::csr::{addr, CsrFile};

    /// The union of a CSR's field masks of one kind.
    fn mask(rules: &[CsrFieldRule], csr: u16, kind: CsrFieldKind) -> u64 {
        let of_kind = rules.iter().filter(|r| r.csr == csr && r.kind == kind);
        of_kind.fold(0, |m, r| m | r.mask)
    }

    #[test]
    fn standard_table_has_at_least_120_rules() {
        let t = csr_field_rules();
        assert!(t.len() >= 120, "only {} rules", t.len());
    }

    #[test]
    fn counters_are_ignored_in_comparison() {
        let a = CsrFile::new(0);
        let mut b = CsrFile::new(0);
        b.mcycle = 999;
        b.minstret = 123;
        b.time = 7;
        assert_eq!(a.first_mismatch(&b), None);
    }

    #[test]
    fn real_divergence_is_caught() {
        let a = CsrFile::new(0);
        let mut b = CsrFile::new(0);
        b.mscratch = 1;
        let m = a.first_mismatch(&b).expect("mismatch");
        assert_eq!(m.0, addr::MSCRATCH);
        let mut c = CsrFile::new(0);
        c.mcause = 5;
        assert!(a.first_mismatch(&c).is_some());
    }

    #[test]
    fn counter_csr_classification() {
        assert!(is_counter(addr::MCYCLE));
        assert!(is_counter(addr::TIME));
        assert!(is_counter(0xb10));
        assert!(!is_counter(addr::MSCRATCH));
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
        let t = csr_field_rules();
        assert_eq!(mask(&t, addr::MCYCLE, CsrFieldKind::Ignore), u64::MAX);
        assert_eq!(mask(&t, addr::MSCRATCH, CsrFieldKind::Ignore), 0);
    }

    /// The rule set as facts: 163 distinct `(csr, mask, kind, name)` rules
    /// whose sorted listing hashes (FNV-1a) to what the hand-typed
    /// `standard()` body produced before the CSR table generated it.
    #[test]
    fn the_163_rules_are_pinned() {
        let mut lines: Vec<String> = csr_field_rules()
            .iter()
            .map(|r| format!("{:#05x} {:#018x} {:?} {}\n", r.csr, r.mask, r.kind, r.name))
            .collect();
        lines.sort();
        lines.dedup();
        assert_eq!(lines.len(), 163);
        let digest = lines.concat().bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!(digest, 0xdb81_ae00_277b_e174, "the rule set moved:\n{}", lines.concat());
    }

    /// The first reader of the rule kinds: each rule is a fact about
    /// `CsrFile`, checked on it.
    #[test]
    fn every_rule_holds_on_the_csr_file() {
        let table = csr_field_rules();
        let patterns = [0, u64::MAX, 0x5555_5555_5555_5555, 0xaaaa_aaaa_aaaa_aaaa];
        for rule in &table {
            let mut file = CsrFile::new(0);
            match rule.kind {
                // Written from M-mode, the stored value never has a bit
                // outside the CSR's rules.
                CsrFieldKind::WarlMask => {
                    let implemented = mask(&table, rule.csr, CsrFieldKind::WarlMask);
                    for value in patterns {
                        file.write(rule.csr, value).expect("writable in M-mode");
                        let stored = file.raw(rule.csr).expect("a WARL rule is on a field");
                        assert_eq!(stored & !implemented, 0, "{} after {value:#x}", rule.name);
                    }
                }
                // Reads zero; a write is accepted and changes nothing.
                CsrFieldKind::ReadOnlyZero => {
                    for value in patterns {
                        file.write(rule.csr, value).expect("writes are dropped, not refused");
                        assert_eq!(file.read(rule.csr), Ok(0), "{}", rule.name);
                    }
                    assert_eq!(file, CsrFile::new(0), "{}", rule.name);
                }
                // A full-state comparison skips the row, whatever it holds.
                // (`time` has no writable address; `counters_are_ignored_in_comparison`
                // sets its field.)
                CsrFieldKind::Ignore => {
                    assert!(rule.mask == u64::MAX && is_counter(rule.csr), "{}", rule.name);
                    if file.write(rule.csr, 0x1234).is_ok() {
                        assert_eq!(file.first_mismatch(&CsrFile::new(0)), None, "{}", rule.name);
                    }
                }
            }
        }
    }
}
