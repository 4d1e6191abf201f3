//! Micro-architecture configurations — Table II of the paper.
//!
//! [`XsConfig::yqh`] and [`XsConfig::nh`] reproduce the two tape-out
//! parameter sets; every field is adjustable for design-space exploration
//! exactly as the paper describes ("most of the design parameters are
//! configurable").

use serde::{Deserialize, Serialize};
use std::sync::LazyLock;
use uncore::{CacheConfig, DdrConfig, DramModel, LinkLatencies, MemSystemConfig};

/// Issue-queue selection policy (paper §IV-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IssuePolicy {
    /// Oldest-first (the AGE baseline).
    Age,
    /// AGE plus Prioritizing Unconfident Branch Slices.
    Pubs,
}

/// Memory-controller configuration choices used in Fig. 12.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MemoryModel {
    /// Fixed average memory access time (FPGA-style padding cycles).
    FixedAmat(u64),
    /// DDR4-2400-like timing.
    Ddr4_2400,
    /// DDR4-1600-like timing.
    Ddr4_1600,
}

impl MemoryModel {
    /// Instantiate the timing model.
    pub fn build(self) -> DramModel {
        match self {
            MemoryModel::FixedAmat(n) => DramModel::fixed(n),
            MemoryModel::Ddr4_2400 => DramModel::ddr(DdrConfig::ddr4_2400()),
            MemoryModel::Ddr4_1600 => DramModel::ddr(DdrConfig::ddr4_1600()),
        }
    }
}

/// A deliberate DUT corruption for verification-flow testing.
///
/// The campaign runner's acceptance test arms one of these to prove the
/// whole catch → minimize → report pipeline works end to end; they are
/// never enabled in any preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InjectedBug {
    /// Flip the low bit of every `Mul` writeback value.
    MulLowBit,
    /// Drop the sign extension of every `Addw` writeback value.
    AddwNoSext,
}

/// The most harts one configuration may have — the widest system any
/// experiment here scopes. The model builds one core and one private L2
/// per hart before its first tick, so a count read from a file is
/// bounded before anything is built.
pub const MAX_CORES: usize = 16;

/// The knobs of one run: how it is observed and which faults it arms.
/// No preset sets any of them; a job sets them for its run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunKnobs {
    /// Enable per-cycle occupancy/latency histograms. The CPI stack is
    /// always on; this gates the heavier sampling so default runs keep
    /// their wall-clock.
    pub telemetry: bool,
    /// Enable coverage maps (per-commit opcode counters in DiffTest plus
    /// end-of-run diff-rule and pipeline-event coverage). One array add
    /// per commit when on; the default path pays nothing.
    pub coverage: bool,
    /// Enable full-trace lifecycle streaming: every finalized
    /// per-instruction [`Lifecycle`](crate::lifecycle::Lifecycle) record
    /// is buffered for the co-sim layer to drain into ArchDB (and export
    /// as O3PipeView text). The cheap layers — stage stamps, the
    /// last-N ring buffer, and the digest — are always on regardless.
    pub lifecycle: bool,
    /// Event-driven idle-cycle skipping: when every core's tick is a
    /// provable no-op, jump the clock to the next scheduled event and
    /// bulk-charge the skipped span. Architecturally invisible (see
    /// DESIGN §4); the knob exists so the equivalence suite can force
    /// the cycle-by-cycle path.
    pub event_driven: bool,
    /// Deliberate DUT corruption for verification-flow tests.
    pub injected_bug: Option<InjectedBug>,
    /// Arm the §IV-C probe/grant race fault in core 0's L2 (a deliberate
    /// coherence bug for verification-flow tests).
    pub inject_l2_race: bool,
}

impl Default for RunKnobs {
    /// Nothing observed beyond the always-on layers, nothing armed, and
    /// the idle-cycle skipper on.
    fn default() -> Self {
        RunKnobs {
            telemetry: false,
            coverage: false,
            lifecycle: false,
            event_driven: true,
            injected_bug: None,
            inject_l2_race: false,
        }
    }
}

/// Table II, one row per machine parameter: its doc line, then
/// `field: type = yqh value, nh value;`. Generates [`XsConfig`]'s machine
/// fields, [`XsConfig::yqh`] and [`XsConfig::nh`].
macro_rules! machine_table {
    ($( $(#[$doc:meta])* $field:ident: $ty:ty = $yqh:expr, $nh:expr; )*) => {
        /// Full core + uncore configuration: the Table II machine, one
        /// field per row of its table, and the knobs of one run.
        #[derive(Debug, Clone)]
        pub struct XsConfig {
            $( $(#[$doc])* pub $field: $ty, )*
            /// The run's knobs (never set by a preset).
            pub run: RunKnobs,
        }

        impl XsConfig {
            /// The first-generation (28 nm, 1.3 GHz) YQH configuration.
            pub fn yqh() -> Self {
                XsConfig { $( $field: $yqh, )* run: RunKnobs::default() }
            }

            /// The second-generation (14 nm, 2 GHz) NH configuration.
            pub fn nh() -> Self {
                XsConfig { $( $field: $nh, )* run: RunKnobs::default() }
            }
        }
    };
}

/// Every named preset: its slug, then its constructor. The slugs are
/// stable identifiers: campaign reports and the `campaign` CLI refer to
/// configurations by them.
const PRESETS: [(&str, fn() -> XsConfig); 5] = [
    ("yqh", XsConfig::yqh),
    ("nh", XsConfig::nh),
    ("nh-dual", XsConfig::nh_dual),
    ("small-nh", XsConfig::small_nh),
    ("small-yqh", XsConfig::small_yqh),
];

const KB: usize = 1024;
const MB: usize = 1024 * KB;

machine_table! {
    /// Generation name ("YQH" / "NH").
    name: String = "YQH".into(), "NH".into();
    /// Number of cores.
    cores: usize = 1, 1;
    /// Micro-BTB entries.
    ubtb_entries: usize = 32, 256;
    /// BTB entries.
    btb_entries: usize = 2048, 4096;
    /// TAGE entries per table (4 tables).
    tage_entries: usize = 4096, 4096; // 16K entries over 4 tables
    /// Enable the ITTAGE indirect-target predictor (NH).
    ittage: bool = false, true;
    /// Return-address-stack depth.
    ras_depth: usize = 16, 32;
    /// Decode/rename width (instructions per cycle).
    decode_width: usize = 6, 6;
    /// Commit width (instructions per cycle).
    commit_width: usize = 6, 6;
    /// Reorder-buffer entries.
    rob_entries: usize = 192, 256;
    /// Load-queue entries.
    lq_entries: usize = 64, 80;
    /// Store-queue entries.
    sq_entries: usize = 48, 64;
    /// Store-buffer entries (committed stores draining to the L1D).
    sbuffer_entries: usize = 16, 24;
    /// Physical integer registers.
    int_prf: usize = 160, 192;
    /// Physical floating-point registers.
    fp_prf: usize = 160, 192;
    /// Per-issue-queue capacity.
    iq_entries: usize = 16, 32;
    /// Issue width of each ALU issue queue.
    alu_iq_width: usize = 2, 2;
    /// Number of load pipelines (bank-interleaved).
    load_units: usize = 2, 2;
    /// Number of store pipelines.
    store_units: usize = 1, 2; // STA/STD decoupled in NH
    /// Number of FMA pipelines.
    fma_units: usize = 2, 2;
    /// Enable macro-op fusion (NH).
    fusion: bool = false, true;
    /// Enable move elimination via physical-register reference counting
    /// (NH).
    move_elimination: bool = false, true;
    /// Issue policy.
    issue_policy: IssuePolicy = IssuePolicy::Age, IssuePolicy::Age;
    /// L1 ITLB entries.
    itlb_entries: usize = 40, 40;
    /// L1 DTLB entries.
    dtlb_entries: usize = 40, 136;
    /// Unified second-level TLB entries.
    stlb_entries: usize = 4096, 2048;
    /// Page-walk latency per level when the walk misses the STLB.
    ptw_level_latency: u64 = 20, 20;
    /// L1 instruction cache.
    // YQH pairs a 16KB L1I with a 128KB L1+ cache; we fold the L1+ into
    // a same-capacity second-level I-side by enlarging L2.
    l1i: CacheConfig =
        CacheConfig::new("l1i", 16 * KB, 4, 2, 4), CacheConfig::new("l1i", 128 * KB, 8, 2, 8);
    /// L1 data cache.
    l1d: CacheConfig =
        CacheConfig::new("l1d", 32 * KB, 8, 4, 8), CacheConfig::new("l1d", 128 * KB, 8, 4, 16);
    /// Private L2.
    l2: CacheConfig =
        CacheConfig::new("l2", MB, 8, 14, 16), CacheConfig::new("l2", MB, 8, 14, 24);
    /// Shared L3 (None on YQH).
    l3: Option<CacheConfig> = None, Some(CacheConfig::new("l3", 6 * MB, 6, 35, 32));
    /// Memory model.
    memory: MemoryModel = MemoryModel::Ddr4_1600, MemoryModel::Ddr4_2400;
    /// SC fails when more than this many cycles elapsed since the LR
    /// (the micro-architectural SC-timeout non-determinism of §III-B2c;
    /// `u64::MAX` disables it).
    sc_timeout_cycles: u64 = u64::MAX, u64::MAX;
    /// Store-buffer drain delay in cycles (models lazily draining
    /// committed stores — the source of the Fig. 3 TLB scenario).
    sbuffer_drain_delay: u64 = 20, 20;
}

impl XsConfig {
    /// NH as a dual-core (the tape-out configuration).
    pub fn nh_dual() -> Self {
        XsConfig { cores: 2, ..Self::nh() }
    }

    /// NH with caches shrunk to a few KB and a fixed-AMAT memory, so
    /// cache- and memory-boundary behaviour shows up within test-sized
    /// workloads. The verification suite's default DiffTest target.
    pub fn small_nh() -> Self {
        XsConfig {
            name: "small-NH".into(),
            l1i: CacheConfig::new("l1i", 8192, 2, 2, 4),
            l1d: CacheConfig::new("l1d", 8192, 2, 4, 8),
            l2: CacheConfig::new("l2", 32768, 4, 10, 8),
            l3: Some(CacheConfig::new("l3", 131072, 4, 20, 16)),
            memory: MemoryModel::FixedAmat(40),
            ..Self::nh()
        }
    }

    /// YQH with a fixed-AMAT memory, sized for test workloads.
    pub fn small_yqh() -> Self {
        XsConfig { name: "small-YQH".into(), memory: MemoryModel::FixedAmat(60), ..Self::yqh() }
    }

    /// Every preset's slug, for campaign-style enumeration.
    pub fn preset_names() -> &'static [&'static str] {
        static SLUGS: LazyLock<[&str; PRESETS.len()]> = LazyLock::new(|| PRESETS.map(|p| p.0));
        &*SLUGS
    }

    /// Look up a preset by slug (see [`XsConfig::preset_names`]).
    pub fn preset(name: &str) -> Option<Self> {
        PRESETS.iter().find(|(slug, _)| *slug == name).map(|(_, new)| new())
    }

    /// Reject a configuration the model cannot simulate faithfully.
    ///
    /// The core count must be one the model can build
    /// ([`XsConfig::check_cores`]). Coherence between cores is kept by
    /// the shared last-level cache: without an L3 every private L2 sits
    /// directly on DRAM and nothing probes its peer, so harts would
    /// silently never see each other's stores.
    pub fn validate(&self) -> Result<(), String> {
        let name = &self.name;
        Self::check_cores(self.cores as u64)
            .map_err(|e| format!("configuration `{name}` with {e}"))?;
        if self.cores > 1 && self.l3.is_none() {
            return Err(format!(
                "configuration `{name}` with {} cores has no shared last-level cache: \
                 private L2s would be incoherent (use an L3 preset such as `small-nh`)",
                self.cores
            ));
        }
        Ok(())
    }

    /// Refuse a core count the model cannot build: none, or more than
    /// [`MAX_CORES`].
    pub fn check_cores(cores: u64) -> Result<(), String> {
        match cores {
            0 => Err("0 cores: a system needs at least one hart".into()),
            n if n > MAX_CORES as u64 => {
                Err(format!("{n} cores: the model builds at most {MAX_CORES} harts"))
            }
            _ => Ok(()),
        }
    }

    /// Shrink the LLC (Fig. 12's 2 MB / 4 MB FPGA configurations).
    pub fn with_llc_mb(mut self, mb: usize) -> Self {
        if let Some(l3) = &mut self.l3 {
            l3.size = mb * 1024 * 1024;
        }
        self
    }

    /// Replace the memory model (AMAT vs DDR configurations of Fig. 12).
    pub fn with_memory(mut self, m: MemoryModel) -> Self {
        self.memory = m;
        self
    }

    /// Enable PUBS issue prioritization.
    pub fn with_pubs(mut self) -> Self {
        self.issue_policy = IssuePolicy::Pubs;
        self
    }

    /// Enable the per-cycle occupancy/latency telemetry histograms.
    pub fn with_telemetry(mut self) -> Self {
        self.run.telemetry = true;
        self
    }

    /// Enable coverage-map collection (fuzzing and coverage-pin runs).
    pub fn with_coverage(mut self) -> Self {
        self.run.coverage = true;
        self
    }

    /// Enable full-trace lifecycle streaming into ArchDB.
    pub fn with_lifecycle(mut self) -> Self {
        self.run.lifecycle = true;
        self
    }

    /// Derive the uncore configuration.
    pub fn mem_system_config(&self) -> MemSystemConfig {
        MemSystemConfig {
            cores: self.cores,
            l1i: self.l1i.clone(),
            l1d: self.l1d.clone(),
            l2: self.l2.clone(),
            l3: self.l3.clone(),
            links: LinkLatencies::default(),
            scoreboard: false,
            telemetry: self.run.telemetry,
        }
    }

    /// Render the Table II comparison for this config and another.
    pub fn table2(a: &XsConfig, b: &XsConfig) -> String {
        fn entries(n: usize) -> String {
            format!("{n} entries")
        }
        fn kb(c: &CacheConfig) -> String {
            format!("{}KB, {}-way", c.size / KB, c.ways)
        }
        fn mb(c: &CacheConfig) -> String {
            format!("{}MB {}-way", c.size / MB, c.ways)
        }
        fn yes(on: bool) -> String {
            if on { "Yes" } else { "-" }.into()
        }
        let rows: [(&str, fn(&XsConfig) -> String); 16] = [
            ("Feature", |c| c.name.clone()),
            ("microBTB", |c| entries(c.ubtb_entries)),
            ("BTB", |c| entries(c.btb_entries)),
            ("TAGE-SC", |c| entries(c.tage_entries * 4)),
            ("Others", |c| if c.ittage { "RAS, ITTAGE" } else { "RAS" }.into()),
            ("L1 ICache", |c| kb(&c.l1i)),
            ("L1 DCache", |c| kb(&c.l1d)),
            ("L2 Cache", |c| mb(&c.l2)),
            ("L3 Cache", |c| c.l3.as_ref().map_or_else(|| "-".into(), mb)),
            ("L1 DTLB", |c| entries(c.dtlb_entries)),
            ("STLB", |c| entries(c.stlb_entries)),
            ("Dec./Ren. Width", |c| format!("{} instr./cycle", c.decode_width)),
            ("ROB/LQ/SQ", |c| format!("{}/{}/{}", c.rob_entries, c.lq_entries, c.sq_entries)),
            ("Phy. Int/FP RF", |c| format!("{}/{}", c.int_prf, c.fp_prf)),
            ("Instruction Fusion", |c| yes(c.fusion)),
            ("Move Elimination", |c| yes(c.move_elimination)),
        ];
        rows.iter().map(|(k, f)| format!("{k:<22}{:<22}{}\n", f(a), f(b))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table II as the presets must render it. A literal, not the table:
    /// a row whose value or format moves fails here.
    #[test]
    fn presets_render_table2() {
        let expected = "\
Feature               YQH                   NH
microBTB              32 entries            256 entries
BTB                   2048 entries          4096 entries
TAGE-SC               16384 entries         16384 entries
Others                RAS                   RAS, ITTAGE
L1 ICache             16KB, 4-way           128KB, 8-way
L1 DCache             32KB, 8-way           128KB, 8-way
L2 Cache              1MB 8-way             1MB 8-way
L3 Cache              -                     6MB 6-way
L1 DTLB               40 entries            136 entries
STLB                  4096 entries          2048 entries
Dec./Ren. Width       6 instr./cycle        6 instr./cycle
ROB/LQ/SQ             192/64/48             256/80/64
Phy. Int/FP RF        160/160               192/192
Instruction Fusion    -                     Yes
Move Elimination      -                     Yes
";
        assert_eq!(XsConfig::table2(&XsConfig::yqh(), &XsConfig::nh_dual()), expected);
    }

    #[test]
    fn llc_and_memory_overrides() {
        let n = XsConfig::nh().with_llc_mb(4).with_memory(MemoryModel::FixedAmat(250));
        assert_eq!(n.l3.as_ref().unwrap().size, 4 * 1024 * 1024);
        assert!(matches!(n.memory, MemoryModel::FixedAmat(250)));
        let y = XsConfig::yqh().with_llc_mb(4);
        assert!(y.l3.is_none(), "YQH has no L3 to resize");
    }

    #[test]
    fn preset_lookup_round_trips() {
        for &name in XsConfig::preset_names() {
            let c = XsConfig::preset(name).unwrap_or_else(|| panic!("preset {name} missing"));
            assert_eq!(c.run, RunKnobs::default(), "{name} must ship without bugs");
        }
        assert!(XsConfig::preset("no-such-config").is_none());
        assert_eq!(XsConfig::preset("small-nh").unwrap().l1d.size, 8192);
        assert_eq!(XsConfig::preset("nh-dual").unwrap().cores, 2);
        assert!(matches!(
            XsConfig::preset("small-yqh").unwrap().memory,
            MemoryModel::FixedAmat(60)
        ));
    }

    #[test]
    fn multi_core_needs_a_shared_llc() {
        for &name in XsConfig::preset_names() {
            let mut c = XsConfig::preset(name).unwrap();
            assert_eq!(c.validate(), Ok(()), "{name} as shipped");
            c.cores = 2;
            assert_eq!(c.validate().is_ok(), c.l3.is_some(), "{name} x 2 cores");
        }
        let mut c = XsConfig::small_yqh();
        c.cores = 2;
        let err = c.validate().unwrap_err();
        assert!(err.contains("no shared last-level cache"), "{err}");
        // A count the model cannot build is refused whatever the LLC.
        let mut c = XsConfig::small_nh();
        for (cores, diagnosis) in [(0, "one hart"), (MAX_CORES + 1, "at most 16"), (1 << 32, "at most 16")] {
            c.cores = cores;
            let err = c.validate().unwrap_err();
            assert!(err.contains(diagnosis) && !err.contains('\n'), "{err}");
        }
        c.cores = MAX_CORES;
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn pubs_toggle() {
        assert_eq!(XsConfig::nh().issue_policy, IssuePolicy::Age);
        assert_eq!(XsConfig::nh().with_pubs().issue_policy, IssuePolicy::Pubs);
    }
}
