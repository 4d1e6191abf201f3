//! Micro-architecture configurations — Table II of the paper.
//!
//! [`XsConfig::yqh`] and [`XsConfig::nh`] reproduce the two tape-out
//! parameter sets; every field is adjustable for design-space exploration
//! exactly as the paper describes ("most of the design parameters are
//! configurable").

use serde::{Deserialize, Serialize};
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

/// Full core + uncore configuration (Table II).
#[derive(Debug, Clone)]
pub struct XsConfig {
    /// Generation name ("YQH" / "NH").
    pub name: String,
    /// Number of cores.
    pub cores: usize,
    /// Micro-BTB entries.
    pub ubtb_entries: usize,
    /// BTB entries.
    pub btb_entries: usize,
    /// TAGE entries per table (4 tables).
    pub tage_entries: usize,
    /// Enable the ITTAGE indirect-target predictor (NH).
    pub ittage: bool,
    /// Return-address-stack depth.
    pub ras_depth: usize,
    /// Fetch width in bytes per cycle (8 x 4B in both generations).
    pub fetch_bytes: u64,
    /// Decode/rename width (instructions per cycle).
    pub decode_width: usize,
    /// Commit width (instructions per cycle).
    pub commit_width: usize,
    /// Reorder-buffer entries.
    pub rob_entries: usize,
    /// Load-queue entries.
    pub lq_entries: usize,
    /// Store-queue entries.
    pub sq_entries: usize,
    /// Store-buffer entries (committed stores draining to the L1D).
    pub sbuffer_entries: usize,
    /// Physical integer registers.
    pub int_prf: usize,
    /// Physical floating-point registers.
    pub fp_prf: usize,
    /// Per-issue-queue capacity.
    pub iq_entries: usize,
    /// Issue width of each ALU issue queue.
    pub alu_iq_width: usize,
    /// Number of ALU pipelines.
    pub alu_units: usize,
    /// Number of load pipelines (bank-interleaved).
    pub load_units: usize,
    /// Number of store pipelines.
    pub store_units: usize,
    /// Number of FMA pipelines.
    pub fma_units: usize,
    /// Enable macro-op fusion (NH).
    pub fusion: bool,
    /// Enable move elimination via physical-register reference counting
    /// (NH).
    pub move_elimination: bool,
    /// Issue policy.
    pub issue_policy: IssuePolicy,
    /// L1 ITLB entries.
    pub itlb_entries: usize,
    /// L1 DTLB entries.
    pub dtlb_entries: usize,
    /// Unified second-level TLB entries.
    pub stlb_entries: usize,
    /// Page-walk latency per level when the walk misses the STLB.
    pub ptw_level_latency: u64,
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Private L2.
    pub l2: CacheConfig,
    /// Shared L3 (None on YQH).
    pub l3: Option<CacheConfig>,
    /// Memory model.
    pub memory: MemoryModel,
    /// SC fails when more than this many cycles elapsed since the LR
    /// (the micro-architectural SC-timeout non-determinism of §III-B2c;
    /// `u64::MAX` disables it).
    pub sc_timeout_cycles: u64,
    /// Store-buffer drain delay in cycles (models lazily draining
    /// committed stores — the source of the Fig. 3 TLB scenario).
    pub sbuffer_drain_delay: u64,
    /// Deliberate DUT corruption for verification-flow tests (never set
    /// by any preset).
    pub injected_bug: Option<InjectedBug>,
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
    /// DiffTest REF personality by name (`"arch"`, `"nemu"`,
    /// `"nemu-trace"`, ...). `None` selects DiffTest's default REF
    /// (`minjie::DEFAULT_REF_NAME`). A string rather than an enum: xscore cannot depend on
    /// the interpreter crate, so resolution happens in the co-sim layer.
    pub ref_model: Option<String>,
    /// Event-driven idle-cycle skipping: when every core's tick is a
    /// provable no-op, jump the clock to the next scheduled event and
    /// bulk-charge the skipped span. Architecturally invisible (see
    /// DESIGN §4); the knob exists so the equivalence suite can force
    /// the cycle-by-cycle path.
    pub event_driven: bool,
    /// Arm the §IV-C probe/grant race fault in core 0's L2 (a deliberate
    /// coherence bug for verification-flow tests; never set by presets).
    pub inject_l2_race: bool,
}

impl XsConfig {
    /// The first-generation (28 nm, 1.3 GHz) YQH configuration.
    pub fn yqh() -> Self {
        XsConfig {
            name: "YQH".into(),
            cores: 1,
            ubtb_entries: 32,
            btb_entries: 2048,
            tage_entries: 4096, // 16K entries over 4 tables
            ittage: false,
            ras_depth: 16,
            fetch_bytes: 32,
            decode_width: 6,
            commit_width: 6,
            rob_entries: 192,
            lq_entries: 64,
            sq_entries: 48,
            sbuffer_entries: 16,
            int_prf: 160,
            fp_prf: 160,
            iq_entries: 16,
            alu_iq_width: 2,
            alu_units: 4,
            load_units: 2,
            store_units: 1,
            fma_units: 2,
            fusion: false,
            move_elimination: false,
            issue_policy: IssuePolicy::Age,
            itlb_entries: 40,
            dtlb_entries: 40,
            stlb_entries: 4096,
            ptw_level_latency: 20,
            l1i: CacheConfig::new("l1i", 16 * 1024, 4, 2, 4),
            // YQH pairs a 16KB L1I with a 128KB L1+ cache; we fold the L1+
            // into a same-capacity second-level I-side by enlarging L2.
            l1d: CacheConfig::new("l1d", 32 * 1024, 8, 4, 8),
            l2: CacheConfig::new("l2", 1024 * 1024, 8, 14, 16),
            l3: None,
            memory: MemoryModel::Ddr4_1600,
            sc_timeout_cycles: u64::MAX,
            sbuffer_drain_delay: 20,
            injected_bug: None,
            telemetry: false,
            coverage: false,
            lifecycle: false,
            ref_model: None,
            event_driven: true,
            inject_l2_race: false,
        }
    }

    /// The second-generation (14 nm, 2 GHz) NH configuration.
    pub fn nh() -> Self {
        XsConfig {
            name: "NH".into(),
            cores: 1,
            ubtb_entries: 256,
            btb_entries: 4096,
            tage_entries: 4096,
            ittage: true,
            ras_depth: 32,
            fetch_bytes: 32,
            decode_width: 6,
            commit_width: 6,
            rob_entries: 256,
            lq_entries: 80,
            sq_entries: 64,
            sbuffer_entries: 24,
            int_prf: 192,
            fp_prf: 192,
            iq_entries: 32,
            alu_iq_width: 2,
            alu_units: 4,
            load_units: 2,
            store_units: 2, // STA/STD decoupled in NH
            fma_units: 2,
            fusion: true,
            move_elimination: true,
            issue_policy: IssuePolicy::Age,
            itlb_entries: 40,
            dtlb_entries: 136,
            stlb_entries: 2048,
            ptw_level_latency: 20,
            l1i: CacheConfig::new("l1i", 128 * 1024, 8, 2, 8),
            l1d: CacheConfig::new("l1d", 128 * 1024, 8, 4, 16),
            l2: CacheConfig::new("l2", 1024 * 1024, 8, 14, 24),
            l3: Some(CacheConfig::new("l3", 6 * 1024 * 1024, 6, 35, 32)),
            memory: MemoryModel::Ddr4_2400,
            sc_timeout_cycles: u64::MAX,
            sbuffer_drain_delay: 20,
            injected_bug: None,
            telemetry: false,
            coverage: false,
            lifecycle: false,
            ref_model: None,
            event_driven: true,
            inject_l2_race: false,
        }
    }

    /// NH as a dual-core (the tape-out configuration).
    pub fn nh_dual() -> Self {
        let mut c = Self::nh();
        c.cores = 2;
        c
    }

    /// NH with caches shrunk to a few KB and a fixed-AMAT memory, so
    /// cache- and memory-boundary behaviour shows up within test-sized
    /// workloads. The verification suite's default DiffTest target.
    pub fn small_nh() -> Self {
        let mut c = Self::nh();
        c.name = "small-NH".into();
        c.l1i = CacheConfig::new("l1i", 8192, 2, 2, 4);
        c.l1d = CacheConfig::new("l1d", 8192, 2, 4, 8);
        c.l2 = CacheConfig::new("l2", 32768, 4, 10, 8);
        c.l3 = Some(CacheConfig::new("l3", 131072, 4, 20, 16));
        c.memory = MemoryModel::FixedAmat(40);
        c
    }

    /// YQH with a fixed-AMAT memory, sized for test workloads.
    pub fn small_yqh() -> Self {
        let mut c = Self::yqh();
        c.name = "small-YQH".into();
        c.memory = MemoryModel::FixedAmat(60);
        c
    }

    /// Every named preset, for campaign-style enumeration.
    ///
    /// The slugs are stable identifiers: campaign reports and the
    /// `campaign` CLI refer to configurations by these names.
    pub fn preset_names() -> &'static [&'static str] {
        &["yqh", "nh", "nh-dual", "small-nh", "small-yqh"]
    }

    /// Look up a preset by slug (see [`XsConfig::preset_names`]).
    pub fn preset(name: &str) -> Option<Self> {
        match name {
            "yqh" => Some(Self::yqh()),
            "nh" => Some(Self::nh()),
            "nh-dual" => Some(Self::nh_dual()),
            "small-nh" => Some(Self::small_nh()),
            "small-yqh" => Some(Self::small_yqh()),
            _ => None,
        }
    }

    /// Reject a configuration the model cannot simulate faithfully.
    ///
    /// Coherence between cores is kept by the shared last-level cache:
    /// without an L3 every private L2 sits directly on DRAM and nothing
    /// probes its peer, so harts would silently never see each other's
    /// stores.
    pub fn validate(&self) -> Result<(), String> {
        if self.cores > 1 && self.l3.is_none() {
            return Err(format!(
                "configuration `{}` with {} cores has no shared last-level cache: \
                 private L2s would be incoherent (use an L3 preset such as `small-nh`)",
                self.name, self.cores
            ));
        }
        Ok(())
    }

    /// Arm a deliberate DUT bug (verification-flow tests only).
    pub fn with_injected_bug(mut self, bug: InjectedBug) -> Self {
        self.injected_bug = Some(bug);
        self
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
        self.telemetry = true;
        self
    }

    /// Enable coverage-map collection (fuzzing and coverage-pin runs).
    pub fn with_coverage(mut self) -> Self {
        self.coverage = true;
        self
    }

    /// Enable full-trace lifecycle streaming into ArchDB.
    pub fn with_lifecycle(mut self) -> Self {
        self.lifecycle = true;
        self
    }

    /// Select the DiffTest REF personality by name.
    pub fn with_ref_model(mut self, name: impl Into<String>) -> Self {
        self.ref_model = Some(name.into());
        self
    }

    /// Force the idle-cycle skipper on or off (equivalence suite knob).
    pub fn with_event_driven(mut self, on: bool) -> Self {
        self.event_driven = on;
        self
    }

    /// Arm the §IV-C L2 probe/grant race fault (verification-flow tests).
    #[must_use]
    pub fn with_l2_race(mut self) -> Self {
        self.inject_l2_race = true;
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
            telemetry: self.telemetry,
        }
    }

    /// Render the Table II comparison for this config and another.
    pub fn table2(a: &XsConfig, b: &XsConfig) -> String {
        let mut s = String::new();
        let row = |s: &mut String, k: &str, va: String, vb: String| {
            s.push_str(&format!("{k:<22}{va:<22}{vb}\n"));
        };
        row(&mut s, "Feature", a.name.clone(), b.name.clone());
        row(
            &mut s,
            "microBTB",
            format!("{} entries", a.ubtb_entries),
            format!("{} entries", b.ubtb_entries),
        );
        row(
            &mut s,
            "BTB",
            format!("{} entries", a.btb_entries),
            format!("{} entries", b.btb_entries),
        );
        row(
            &mut s,
            "TAGE-SC",
            format!("{} entries", a.tage_entries * 4),
            format!("{} entries", b.tage_entries * 4),
        );
        row(
            &mut s,
            "Others",
            if a.ittage { "RAS, ITTAGE" } else { "RAS" }.into(),
            if b.ittage { "RAS, ITTAGE" } else { "RAS" }.into(),
        );
        row(
            &mut s,
            "L1 ICache",
            format!("{}KB, {}-way", a.l1i.size / 1024, a.l1i.ways),
            format!("{}KB, {}-way", b.l1i.size / 1024, b.l1i.ways),
        );
        row(
            &mut s,
            "L1 DCache",
            format!("{}KB, {}-way", a.l1d.size / 1024, a.l1d.ways),
            format!("{}KB, {}-way", b.l1d.size / 1024, b.l1d.ways),
        );
        row(
            &mut s,
            "L2 Cache",
            format!("{}MB {}-way", a.l2.size / 1024 / 1024, a.l2.ways),
            format!("{}MB {}-way", b.l2.size / 1024 / 1024, b.l2.ways),
        );
        row(
            &mut s,
            "L3 Cache",
            a.l3.as_ref()
                .map(|c| format!("{}MB {}-way", c.size / 1024 / 1024, c.ways))
                .unwrap_or_else(|| "-".into()),
            b.l3.as_ref()
                .map(|c| format!("{}MB {}-way", c.size / 1024 / 1024, c.ways))
                .unwrap_or_else(|| "-".into()),
        );
        row(
            &mut s,
            "L1 DTLB",
            format!("{} entries", a.dtlb_entries),
            format!("{} entries", b.dtlb_entries),
        );
        row(
            &mut s,
            "STLB",
            format!("{} entries", a.stlb_entries),
            format!("{} entries", b.stlb_entries),
        );
        row(
            &mut s,
            "Dec./Ren. Width",
            format!("{} instr./cycle", a.decode_width),
            format!("{} instr./cycle", b.decode_width),
        );
        row(
            &mut s,
            "ROB/LQ/SQ",
            format!("{}/{}/{}", a.rob_entries, a.lq_entries, a.sq_entries),
            format!("{}/{}/{}", b.rob_entries, b.lq_entries, b.sq_entries),
        );
        row(
            &mut s,
            "Phy. Int/FP RF",
            format!("{}/{}", a.int_prf, a.fp_prf),
            format!("{}/{}", b.int_prf, b.fp_prf),
        );
        row(
            &mut s,
            "Instruction Fusion",
            if a.fusion { "Yes" } else { "-" }.into(),
            if b.fusion { "Yes" } else { "-" }.into(),
        );
        row(
            &mut s,
            "Move Elimination",
            if a.move_elimination { "Yes" } else { "-" }.into(),
            if b.move_elimination { "Yes" } else { "-" }.into(),
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_table2() {
        let y = XsConfig::yqh();
        assert_eq!(y.rob_entries, 192);
        assert_eq!((y.lq_entries, y.sq_entries), (64, 48));
        assert_eq!(y.int_prf, 160);
        assert!(!y.fusion && !y.move_elimination && !y.ittage);
        assert!(y.l3.is_none());

        let n = XsConfig::nh();
        assert_eq!(n.rob_entries, 256);
        assert_eq!((n.lq_entries, n.sq_entries), (80, 64));
        assert_eq!(n.int_prf, 192);
        assert!(n.fusion && n.move_elimination && n.ittage);
        assert_eq!(n.l3.as_ref().unwrap().size, 6 * 1024 * 1024);
        assert_eq!(n.dtlb_entries, 136);
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
    fn table2_renders_both_columns() {
        let t = XsConfig::table2(&XsConfig::yqh(), &XsConfig::nh_dual());
        assert!(t.contains("YQH"));
        assert!(t.contains("NH"));
        assert!(t.contains("192/64/48"));
        assert!(t.contains("256/80/64"));
    }

    #[test]
    fn preset_lookup_round_trips() {
        for &name in XsConfig::preset_names() {
            let c = XsConfig::preset(name).unwrap_or_else(|| panic!("preset {name} missing"));
            assert!(c.injected_bug.is_none(), "{name} must ship without bugs");
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
    }

    #[test]
    fn pubs_toggle() {
        assert_eq!(XsConfig::nh().issue_policy, IssuePolicy::Age);
        assert_eq!(XsConfig::nh().with_pubs().issue_policy, IssuePolicy::Pubs);
    }
}
