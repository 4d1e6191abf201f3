//! Cheap coverage maps for coverage-guided fuzzing.
//!
//! Three families of coverage feed the campaign's fuzz scheduler:
//!
//! - **decode coverage** — per-opcode and per-functional-class commit
//!   counts, accumulated by DiffTest on its existing commit-check path
//!   ([`CommitCoverage`]),
//! - **diff-rule coverage** — how often each [`DiffRule`] legitimized a
//!   divergence, read straight out of [`RuleStats`],
//! - **pipeline-event coverage** — flush causes, replay/forward events,
//!   back-pressure, TLB misses and page-table walks, derived once at the
//!   end of a run from the telemetry counters in [`PerfSnapshot`].
//!
//! Everything is pure integer data so coverage maps embed in the
//! deterministic campaign report body without breaking byte-identical
//! reruns. Collection is gated by `RunKnobs::coverage`: the only
//! per-commit cost when enabled is two array adds, and the default
//! path pays nothing.

use crate::rules::{DiffRule, RuleStats};
use crate::telemetry::PerfSnapshot;
use riscv_isa::op::FuClass;
use riscv_isa::{DecodedInst, Op};
use serde::{Deserialize, Serialize};

/// Number of [`Op`] variants (from the instruction table).
pub const OP_COUNT: usize = Op::COUNT;

/// Number of [`FuClass`] variants.
pub const FU_CLASS_COUNT: usize = FuClass::COUNT;

/// Log2 bucket of a counter value: 0 for 0, else `1 + floor(log2(n))`.
///
/// Coverage novelty compares buckets, not raw counts, so "hit this event
/// at all" and "hit it an order of magnitude more" are distinct features
/// while run-to-run count jitter within a power of two is not.
pub fn bucket(n: u64) -> u8 {
    if n == 0 {
        0
    } else {
        64 - n.leading_zeros() as u8
    }
}

/// Per-commit decode coverage, accumulated on DiffTest's hot path.
#[derive(Debug, Clone, PartialEq)]
pub struct CommitCoverage {
    /// Commits per opcode, indexed by `Op as usize` (fused pairs count
    /// both halves).
    pub ops: [u64; OP_COUNT],
    /// Commits per functional class, indexed by `FuClass as usize`.
    pub classes: [u64; FU_CLASS_COUNT],
}

impl Default for CommitCoverage {
    fn default() -> Self {
        CommitCoverage {
            ops: [0; OP_COUNT],
            classes: [0; FU_CLASS_COUNT],
        }
    }
}

impl CommitCoverage {
    /// Record one committed instruction.
    pub fn record(&mut self, inst: &DecodedInst) {
        self.ops[inst.op as usize] += 1;
        self.classes[inst.fu_class() as usize] += 1;
    }
}

/// The serializable coverage map of one run: sorted `(name, count)`
/// vectors, zero entries omitted, so equal coverage serializes equally.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CoverageMap {
    /// Commit counts per opcode (`Debug` name of the [`Op`] variant).
    pub opcodes: Vec<(String, u64)>,
    /// Commit counts per functional class (`Alu`, `Mdu`, ...).
    pub op_classes: Vec<(String, u64)>,
    /// Diff-rule trigger counts (kebab-case rule names).
    pub rules: Vec<(String, u64)>,
    /// Pipeline-event coverage, log2-bucketed (see [`bucket`]).
    pub events: Vec<(String, u8)>,
    /// Multi-hart coherence-event coverage, log2-bucketed: probe
    /// traffic, grant/release interleavings (writebacks/evictions), SC
    /// success/failure under contention, store-buffer drain windows and
    /// cross-hart reservation kills. Populated only on multi-core runs,
    /// so single-core coverage pins are unaffected.
    pub mp: Vec<(String, u8)>,
}

impl CoverageMap {
    /// Assemble the map from the end-of-run artifacts.
    pub fn from_run(commit: &CommitCoverage, stats: &RuleStats, perf: &PerfSnapshot) -> Self {
        let mut opcodes: Vec<(String, u64)> = Op::ALL
            .iter()
            .map(|&op| (format!("{op:?}"), commit.ops[op as usize]))
            .filter(|&(_, n)| n > 0)
            .collect();
        opcodes.sort();
        let mut op_classes: Vec<(String, u64)> = FuClass::ALL
            .iter()
            .map(|&c| (format!("{c:?}"), commit.classes[c as usize]))
            .filter(|&(_, n)| n > 0)
            .collect();
        op_classes.sort();
        let mut rules: Vec<(String, u64)> = stats
            .all()
            .iter()
            .filter(|&(_, &n)| n > 0)
            .map(|(k, &v)| (k.clone(), v))
            .collect();
        rules.sort();
        let mut events: Vec<(String, u8)> = pipeline_events(perf)
            .into_iter()
            .filter(|&(_, n)| n > 0)
            .map(|(name, n)| (name.to_string(), bucket(n)))
            .collect();
        events.sort();
        let mut mp: Vec<(String, u8)> = if perf.cores.len() > 1 {
            mp_events(perf)
                .into_iter()
                .filter(|&(_, n)| n > 0)
                .map(|(name, n)| (name.to_string(), bucket(n)))
                .collect()
        } else {
            Vec::new()
        };
        mp.sort();
        CoverageMap {
            opcodes,
            op_classes,
            rules,
            events,
            mp,
        }
    }

    /// Flatten the map into bucketed feature keys for the fuzz
    /// scheduler: `op:NAME`, `class:NAME`, `rule:NAME`, `evt:NAME`, each
    /// valued by its log2 bucket. A recipe is novel when it produces a
    /// key never seen, or a known key at a strictly higher bucket.
    pub fn features(&self) -> Vec<(String, u8)> {
        let mut out = Vec::with_capacity(
            self.opcodes.len() + self.op_classes.len() + self.rules.len() + self.events.len(),
        );
        for (name, n) in &self.opcodes {
            out.push((format!("op:{name}"), bucket(*n)));
        }
        for (name, n) in &self.op_classes {
            out.push((format!("class:{name}"), bucket(*n)));
        }
        for (name, n) in &self.rules {
            out.push((format!("rule:{name}"), bucket(*n)));
        }
        for (name, b) in &self.events {
            out.push((format!("evt:{name}"), *b));
        }
        for (name, b) in &self.mp {
            out.push((format!("mp:{name}"), *b));
        }
        out.sort();
        out
    }

    /// Count of a named diff rule (0 when untriggered).
    pub fn rule_count(&self, rule: DiffRule) -> u64 {
        self.rules
            .iter()
            .find(|(n, _)| n == rule.name())
            .map(|&(_, c)| c)
            .unwrap_or(0)
    }
}

/// Derive the pipeline-event counters from a run's telemetry snapshot:
/// per-core counters summed over cores, uncore counters taken whole.
fn pipeline_events(perf: &PerfSnapshot) -> Vec<(&'static str, u64)> {
    let sum = |f: fn(&crate::telemetry::CoreSnapshot) -> u64| -> u64 {
        perf.cores.iter().map(f).sum()
    };
    vec![
        ("flush-mispredict", sum(|c| c.perf.flushes_mispredict)),
        ("flush-violation", sum(|c| c.perf.flushes_violation)),
        ("flush-system", sum(|c| c.perf.flushes_system)),
        ("exception", sum(|c| c.perf.exceptions)),
        ("sc-failure", sum(|c| c.perf.sc_failures)),
        ("load-forward", sum(|c| c.perf.load_forwards)),
        ("move-eliminated", sum(|c| c.perf.moves_eliminated)),
        ("rob-full-cycle", sum(|c| c.perf.rob_full_cycles)),
        ("branch-mispredict", sum(|c| c.perf.branch_mispredicts)),
        ("itlb-miss", sum(|c| c.itlb.misses)),
        ("dtlb-miss", sum(|c| c.dtlb.misses)),
        ("stlb-miss", sum(|c| c.stlb.misses)),
        ("ptw-walk", sum(|c| c.ptw_walks)),
        (
            "mshr-stall",
            perf.caches.iter().map(|c| c.stats.mshr_stalls).sum(),
        ),
        ("dram-access", perf.dram.accesses),
    ]
}

/// Multi-hart coherence events from a run's telemetry snapshot; only
/// meaningful (and only collected) when more than one core ran.
fn mp_events(perf: &PerfSnapshot) -> Vec<(&'static str, u64)> {
    let core = |f: fn(&crate::telemetry::CoreSnapshot) -> u64| -> u64 {
        perf.cores.iter().map(f).sum()
    };
    let cache = |f: fn(&uncore::CacheStats) -> u64| -> u64 {
        perf.caches.iter().map(|c| f(&c.stats)).sum()
    };
    vec![
        ("probe-sent", cache(|s| s.probes_sent)),
        ("probe-received", cache(|s| s.probes_received)),
        ("writeback", cache(|s| s.writebacks)),
        ("eviction", cache(|s| s.evictions)),
        ("injected-race", cache(|s| s.injected_races)),
        ("sc-success", core(|c| c.perf.sc_successes)),
        ("sc-failure", core(|c| c.perf.sc_failures)),
        ("reservation-kill", core(|c| c.perf.reservation_snoop_kills)),
        ("sbuffer-drain", core(|c| c.perf.sbuffer_drains)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_is_log2_tiered() {
        assert_eq!(bucket(0), 0);
        assert_eq!(bucket(1), 1);
        assert_eq!(bucket(2), 2);
        assert_eq!(bucket(3), 2);
        assert_eq!(bucket(4), 3);
        assert_eq!(bucket(1023), 10);
        assert_eq!(bucket(1024), 11);
        assert_eq!(bucket(u64::MAX), 64);
    }

    #[test]
    fn op_count_covers_every_variant() {
        assert!(OP_COUNT > 100);
        for (i, op) in Op::ALL.iter().enumerate() {
            assert_eq!(*op as usize, i);
        }
        assert_eq!(Op::Illegal as usize, OP_COUNT - 1);
        for (i, c) in FuClass::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i);
        }
    }

    #[test]
    fn commit_coverage_counts_ops_and_classes() {
        let mut cov = CommitCoverage::default();
        let add = riscv_isa::decode32(0x00b50533); // add a0,a0,a1
        let mul = riscv_isa::decode32(0x02b50533); // mul a0,a0,a1
        cov.record(&add);
        cov.record(&add);
        cov.record(&mul);
        assert_eq!(cov.ops[Op::Add as usize], 2);
        assert_eq!(cov.ops[Op::Mul as usize], 1);
        assert_eq!(cov.classes[FuClass::Alu as usize], 2);
        assert_eq!(cov.classes[FuClass::Mdu as usize], 1);
    }

    #[test]
    fn map_is_sorted_and_omits_zeros() {
        let mut cov = CommitCoverage::default();
        cov.record(&riscv_isa::decode32(0x00b50533)); // add
        cov.record(&riscv_isa::decode32(0x02b50533)); // mul
        let mut stats = RuleStats::default();
        stats.record(DiffRule::MacroFusion);
        let mut perf = PerfSnapshot::default();
        perf.cores.push(crate::telemetry::CoreSnapshot::default());
        perf.cores[0].perf.flushes_mispredict = 5;
        let map = CoverageMap::from_run(&cov, &stats, &perf);
        assert_eq!(map.opcodes, vec![("Add".into(), 1), ("Mul".into(), 1)]);
        assert_eq!(map.op_classes, vec![("Alu".into(), 1), ("Mdu".into(), 1)]);
        assert_eq!(map.rules, vec![("macro-fusion".into(), 1)]);
        assert_eq!(map.events, vec![("flush-mispredict".into(), 3)]);
        assert_eq!(map.rule_count(DiffRule::MacroFusion), 1);
        assert_eq!(map.rule_count(DiffRule::ScFailure), 0);
        // Features carry the family prefix and the log2 bucket.
        let feats = map.features();
        assert!(feats.contains(&("op:Add".into(), 1)));
        assert!(feats.contains(&("class:Mdu".into(), 1)));
        assert!(feats.contains(&("rule:macro-fusion".into(), 1)));
        assert!(feats.contains(&("evt:flush-mispredict".into(), 3)));
    }

    #[test]
    fn serde_round_trips() {
        let map = CoverageMap {
            opcodes: vec![("Add".into(), 7)],
            op_classes: vec![("Alu".into(), 7)],
            rules: vec![("sc-failure".into(), 2)],
            events: vec![("dram-access".into(), 4)],
            mp: vec![("probe-sent".into(), 3)],
        };
        let json = serde_json::to_string(&map).unwrap();
        let back: CoverageMap = serde_json::from_str(&json).unwrap();
        assert_eq!(back, map);
    }
}
