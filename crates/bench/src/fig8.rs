//! Fig. 8 interpreter-shootout measurement and the `BENCH_fig8.json`
//! report format.
//!
//! The report is split into a **deterministic body** and a segregated
//! `timing` section. Everything outside `timing` — retired-instruction
//! counts, job counts, personality names — is a pure function of the
//! workload suite and seeds, so two same-seed runs produce byte-identical
//! bodies (`del timing` then compare). Wall-clock-derived rates (sim-MIPS
//! per personality, sim-kilocycles/sec per cycle-model preset, campaign
//! jobs/sec, total elapsed) live only under `timing`. [`validate`] enforces the split structurally: it pins the
//! exact key set at every level, so a wall-clock field added to the body
//! fails the schema check rather than silently breaking determinism.
//!
//! Layout:
//!
//! ```json
//! {
//!   "schema_version": 4,
//!   "figure": "fig8",
//!   "workload": "spec-like-suite@Test",
//!   "fuel": 200000000,
//!   "personalities": {
//!     "nemu-trace": { "paper_counterpart": "...", "instructions": 123 }
//!   },
//!   "campaign": { "ref": "nemu-trace", "jobs": 12, "halted": 12 },
//!   "cycle_model": {
//!     "small-nh": { "cycles": 456, "instret": 123, "cpi_milli": 3707,
//!                   "sampled_cpi_milli": 3800, "sampled_cpi_err_milli": 25 }
//!   },
//!   "timing": {
//!     "mips": { "nemu-trace": 512.3 },
//!     "sim_kilocycles_per_sec": { "small-nh": 210.4 },
//!     "campaign_jobs_per_sec": 3.4,
//!     "total_ms": 4571.2
//!   }
//! }
//! ```

use campaign::{Campaign, JobSpec, WorkloadSource};
use nemu::registry::PERSONALITIES;
use serde::{Map, Value};
use std::time::Instant;
use workloads::{all_workloads, Scale, TortureConfig};
use xscore::XsConfig;

/// Version stamp of the report layout; bump on any structural change.
///
/// v2: adds the `cycle_model` body section (suite cycles / instret /
/// CPI×1000 per tracked preset) and `timing.sim_kilocycles_per_sec`.
///
/// v3: adds `timing.sim_kilocycles_per_sec_by_workload` (per-preset,
/// per-workload rates) so the event-driven skipper's gain on the
/// DRAM-stall-heavy suite entries is measured, not just the aggregate.
///
/// v4: adds per-preset `sampled_cpi_milli` and `sampled_cpi_err_milli`
/// to the `cycle_model` entries: the checkpoint farm's SimPoint-weighted
/// CPI estimate of [`SAMPLED_WORKLOAD`] and its per-mille error against
/// the full simulation of the same workload. Both deterministic; the
/// validator enforces the [`SAMPLED_ERR_BOUND_MILLI`] accuracy gate.
pub const SCHEMA_VERSION: u64 = 4;

/// The workload whose sampled-vs-full CPI error the report tracks.
pub const SAMPLED_WORKLOAD: &str = "sjeng";

/// Maximum tolerated sampled-vs-full CPI error, per mille (25%): the
/// paper reports ~3% SimPoint error at production interval sizes; the
/// test-scale intervals here are far coarser, so the gate is loose —
/// but a regression that breaks checkpoint restore or weighting blows
/// well past it.
pub const SAMPLED_ERR_BOUND_MILLI: u64 = 250;

/// Cycle-model presets tracked by the report, in sorted order (the
/// validator pins the key set, so keep this in sync with the presets
/// registered in [`XsConfig::preset_names`]).
pub const CYCLE_PRESETS: [&str; 2] = ["small-nh", "small-yqh"];

/// One personality's pass over the workload suite.
#[derive(Debug, Clone)]
pub struct PersonalityMeasurement {
    /// Registry name (e.g. `"nemu-trace"`).
    pub name: String,
    /// The paper's Fig. 8 counterpart (e.g. `"NEMU"`).
    pub paper_counterpart: String,
    /// Total instructions retired across the suite (deterministic).
    pub instructions: u64,
    /// Suite-level simulation rate, million instructions per second.
    pub mips: f64,
}

/// One smoke campaign timed end to end.
#[derive(Debug, Clone)]
pub struct CampaignMeasurement {
    /// DiffTest REF personality the campaign ran against.
    pub reference: String,
    /// Jobs executed.
    pub jobs: u64,
    /// Jobs that halted cleanly (deterministic for fixed seeds).
    pub halted: u64,
    /// End-to-end campaign throughput.
    pub jobs_per_sec: f64,
}

/// One cycle-model preset's pass over the workload suite.
#[derive(Debug, Clone)]
pub struct CycleModelMeasurement {
    /// Configuration preset slug (e.g. `"small-nh"`).
    pub preset: String,
    /// Total cycles simulated across the suite (deterministic).
    pub cycles: u64,
    /// Instructions retired across the suite (deterministic).
    pub instret: u64,
    /// Suite CPI scaled by 1000, integer (deterministic).
    pub cpi_milli: u64,
    /// Checkpoint-farm weighted CPI estimate of [`SAMPLED_WORKLOAD`],
    /// milli-units (deterministic).
    pub sampled_cpi_milli: u64,
    /// Per-mille error of the sampled estimate against the full
    /// simulation of [`SAMPLED_WORKLOAD`] (deterministic).
    pub sampled_cpi_err_milli: u64,
    /// Simulation throughput, thousand simulated cycles per second.
    pub kilocycles_per_sec: f64,
    /// Per-workload throughput (workload name, kilocycles/sec): the
    /// DRAM-stall-heavy entries are where the event-driven skipper
    /// shows up, so the aggregate alone would hide it.
    pub per_workload: Vec<(String, f64)>,
}

/// Passes over the suite per personality: the Test-scale kernels halt
/// within tens of milliseconds, so a single pass is noise-dominated.
const SUITE_REPS: u64 = 3;

/// Run every registered personality over the whole workload suite at
/// `scale` ([`SUITE_REPS`] passes, fresh engine per run) and measure
/// suite-level MIPS. Instruction totals are identical across
/// personalities by construction — the conformance tier pins that — so
/// any body diff between personalities is a bug.
pub fn measure_personalities(scale: Scale, fuel: u64) -> Vec<PersonalityMeasurement> {
    PERSONALITIES
        .iter()
        .map(|p| {
            let mut instructions = 0u64;
            let t0 = Instant::now();
            for _ in 0..SUITE_REPS {
                for w in all_workloads(scale) {
                    let mut engine = (p.build)(&w.program);
                    instructions += engine.run(fuel).instructions;
                }
            }
            let elapsed = t0.elapsed().as_secs_f64();
            PersonalityMeasurement {
                name: p.name.to_string(),
                paper_counterpart: p.paper_counterpart.to_string(),
                instructions,
                mips: instructions as f64 / elapsed / 1e6,
            }
        })
        .collect()
}

/// Run the cycle-level core model over the whole workload suite once
/// per tracked preset ([`CYCLE_PRESETS`]) and measure sim-kilocycles/sec.
/// Cycles and instret totals are pure functions of the suite, preset,
/// and `max_cycles` cap, so they live in the deterministic report body;
/// only the throughput rate is wall-clock-derived.
pub fn measure_cycle_model(scale: Scale, max_cycles: u64) -> Vec<CycleModelMeasurement> {
    let mut full_cpi_milli: Vec<(String, u64)> = Vec::new();
    let mut out: Vec<CycleModelMeasurement> = CYCLE_PRESETS
        .iter()
        .map(|preset| {
            let mut cycles = 0u64;
            let mut instret = 0u64;
            let mut per_workload = Vec::new();
            let t0 = Instant::now();
            for w in all_workloads(scale) {
                let cfg = XsConfig::preset(preset).expect("tracked preset exists");
                let w0 = Instant::now();
                let stats = minjie::run_isolated(cfg, &w.program, max_cycles, None)
                    .unwrap_or_else(|e| panic!("cycle model panicked on {}: {e}", w.name));
                let w_elapsed = w0.elapsed().as_secs_f64();
                cycles += stats.cycles;
                instret += stats.instret;
                if w.name == SAMPLED_WORKLOAD {
                    full_cpi_milli.push((
                        preset.to_string(),
                        stats.cycles.saturating_mul(1000) / stats.instret.max(1),
                    ));
                }
                per_workload.push((
                    w.name.to_string(),
                    stats.cycles as f64 / w_elapsed.max(1e-9) / 1e3,
                ));
            }
            let elapsed = t0.elapsed().as_secs_f64();
            CycleModelMeasurement {
                preset: preset.to_string(),
                cycles,
                instret,
                cpi_milli: cycles.saturating_mul(1000) / instret.max(1),
                sampled_cpi_milli: 0,
                sampled_cpi_err_milli: 0,
                kilocycles_per_sec: cycles as f64 / elapsed.max(1e-9) / 1e3,
                per_workload,
            }
        })
        .collect();

    // The checkpoint-farm accuracy tier: one sampled pass over
    // SAMPLED_WORKLOAD for every tracked preset (the workload is
    // profiled once, shared across presets), then the per-mille error
    // against the full simulation measured above.
    let spec = campaign::SampleSpec::new(
        vec![SAMPLED_WORKLOAD.into()],
        CYCLE_PRESETS.iter().map(|s| s.to_string()).collect(),
    )
    .with_max_cycles(max_cycles);
    let mut spec = spec;
    spec.triage = false;
    let sampled = campaign::run_sampled(&spec);
    for m in &mut out {
        let sm = sampled
            .sampling
            .iter()
            .find(|s| s.config == m.preset)
            .expect("sampled pass covers every tracked preset");
        let full = full_cpi_milli
            .iter()
            .find(|(p, _)| *p == m.preset)
            .map(|(_, c)| *c)
            .expect("suite contains the sampled workload");
        m.sampled_cpi_milli = sm.weighted_cpi_milli;
        m.sampled_cpi_err_milli =
            full.abs_diff(sm.weighted_cpi_milli).saturating_mul(1000) / full.max(1);
    }
    out
}

/// Run a fixed-seed smoke campaign against `reference` and measure
/// end-to-end jobs/sec. Seeds start at 1000 so the jobs differ from the
/// fuzz tier's fixed-seed rounds.
pub fn measure_campaign(reference: &str, jobs: usize, max_cycles: u64) -> CampaignMeasurement {
    let specs: Vec<JobSpec> = (0..jobs)
        .map(|i| {
            JobSpec::new(
                WorkloadSource::torture(1000 + i as u64, TortureConfig::default()),
                "small-nh",
            )
            .with_max_cycles(max_cycles)
            .with_ref(reference)
        })
        .collect();
    let t0 = Instant::now();
    let report = Campaign::new(specs)
        .with_workers(4)
        .with_minimization(false)
        .with_triage(false)
        .run();
    let elapsed = t0.elapsed().as_secs_f64();
    CampaignMeasurement {
        reference: reference.to_string(),
        jobs: report.summary.total,
        halted: report.summary.halted,
        jobs_per_sec: report.summary.total as f64 / elapsed.max(1e-9),
    }
}

/// Assemble the report [`Value`] from measurements.
pub fn build_report(
    workload: &str,
    fuel: u64,
    personalities: &[PersonalityMeasurement],
    campaign: &CampaignMeasurement,
    cycle_model: &[CycleModelMeasurement],
    total_ms: f64,
) -> Value {
    let mut pmap = Map::new();
    let mut mips = Map::new();
    for p in personalities {
        let mut entry = Map::new();
        entry.insert(
            "paper_counterpart".into(),
            Value::String(p.paper_counterpart.clone()),
        );
        entry.insert("instructions".into(), Value::U64(p.instructions));
        pmap.insert(p.name.clone(), Value::Object(entry));
        mips.insert(p.name.clone(), Value::F64(p.mips));
    }
    let mut camp = Map::new();
    camp.insert("ref".into(), Value::String(campaign.reference.clone()));
    camp.insert("jobs".into(), Value::U64(campaign.jobs));
    camp.insert("halted".into(), Value::U64(campaign.halted));
    let mut cmap = Map::new();
    let mut kcps = Map::new();
    let mut kcps_by_workload = Map::new();
    for c in cycle_model {
        let mut entry = Map::new();
        entry.insert("cycles".into(), Value::U64(c.cycles));
        entry.insert("instret".into(), Value::U64(c.instret));
        entry.insert("cpi_milli".into(), Value::U64(c.cpi_milli));
        entry.insert("sampled_cpi_milli".into(), Value::U64(c.sampled_cpi_milli));
        entry.insert(
            "sampled_cpi_err_milli".into(),
            Value::U64(c.sampled_cpi_err_milli),
        );
        cmap.insert(c.preset.clone(), Value::Object(entry));
        kcps.insert(c.preset.clone(), Value::F64(c.kilocycles_per_sec));
        let mut per_wl = Map::new();
        for (name, rate) in &c.per_workload {
            per_wl.insert(name.clone(), Value::F64(*rate));
        }
        kcps_by_workload.insert(c.preset.clone(), Value::Object(per_wl));
    }
    let mut timing = Map::new();
    timing.insert("mips".into(), Value::Object(mips));
    timing.insert("sim_kilocycles_per_sec".into(), Value::Object(kcps));
    timing.insert(
        "sim_kilocycles_per_sec_by_workload".into(),
        Value::Object(kcps_by_workload),
    );
    timing.insert(
        "campaign_jobs_per_sec".into(),
        Value::F64(campaign.jobs_per_sec),
    );
    timing.insert("total_ms".into(), Value::F64(total_ms));
    let mut root = Map::new();
    root.insert("schema_version".into(), Value::U64(SCHEMA_VERSION));
    root.insert("figure".into(), Value::String("fig8".into()));
    root.insert("workload".into(), Value::String(workload.into()));
    root.insert("fuel".into(), Value::U64(fuel));
    root.insert("personalities".into(), Value::Object(pmap));
    root.insert("campaign".into(), Value::Object(camp));
    root.insert("cycle_model".into(), Value::Object(cmap));
    root.insert("timing".into(), Value::Object(timing));
    Value::Object(root)
}

fn keys_of(v: &Value) -> Vec<&str> {
    v.as_object()
        .map(|m| m.keys().map(|k| k.as_str()).collect())
        .unwrap_or_default()
}

fn expect_keys(v: &Value, ctx: &str, want: &[&str]) -> Result<(), String> {
    let got = keys_of(v);
    if got != want {
        return Err(format!("{ctx}: keys {got:?}, expected {want:?}"));
    }
    Ok(())
}

/// Validate a parsed `BENCH_fig8.json` against the schema: exact key
/// sets at every level (so wall-clock can't leak into the body), every
/// registered personality present with positive deterministic counts,
/// and finite positive rates under `timing`.
pub fn validate(v: &Value) -> Result<(), String> {
    expect_keys(
        v,
        "report",
        &[
            "campaign",
            "cycle_model",
            "figure",
            "fuel",
            "personalities",
            "schema_version",
            "timing",
            "workload",
        ],
    )?;
    if v.get_or_null("schema_version").as_u64() != Some(SCHEMA_VERSION) {
        return Err("schema_version mismatch".into());
    }
    if v.get_or_null("figure").as_str() != Some("fig8") {
        return Err("figure must be \"fig8\"".into());
    }
    if v.get_or_null("workload").as_str().is_none_or(str::is_empty) {
        return Err("workload must be a non-empty string".into());
    }
    if v.get_or_null("fuel").as_u64().is_none_or(|f| f == 0) {
        return Err("fuel must be a positive integer".into());
    }

    let personalities = v.get_or_null("personalities");
    let mut names: Vec<&str> = nemu::registry::names();
    names.sort_unstable();
    expect_keys(personalities, "personalities", &names)?;
    for name in &names {
        let entry = personalities.get_or_null(name);
        expect_keys(entry, name, &["instructions", "paper_counterpart"])?;
        if entry.get_or_null("paper_counterpart").as_str().is_none() {
            return Err(format!("{name}: paper_counterpart must be a string"));
        }
        if entry
            .get_or_null("instructions")
            .as_u64()
            .is_none_or(|i| i == 0)
        {
            return Err(format!("{name}: instructions must be a positive integer"));
        }
    }

    let camp = v.get_or_null("campaign");
    expect_keys(camp, "campaign", &["halted", "jobs", "ref"])?;
    let reference = camp
        .get_or_null("ref")
        .as_str()
        .ok_or("campaign.ref must be a string")?;
    if reference != "arch" && !names.contains(&reference) {
        return Err(format!("campaign.ref {reference:?} is not a known REF"));
    }
    let jobs = camp.get_or_null("jobs").as_u64().unwrap_or(0);
    let halted = camp.get_or_null("halted").as_u64().unwrap_or(u64::MAX);
    if jobs == 0 || halted > jobs {
        return Err(format!("campaign jobs/halted malformed: {halted}/{jobs}"));
    }

    let cm = v.get_or_null("cycle_model");
    expect_keys(cm, "cycle_model", &CYCLE_PRESETS)?;
    for preset in CYCLE_PRESETS {
        let entry = cm.get_or_null(preset);
        expect_keys(
            entry,
            preset,
            &[
                "cpi_milli",
                "cycles",
                "instret",
                "sampled_cpi_err_milli",
                "sampled_cpi_milli",
            ],
        )?;
        let cycles = entry.get_or_null("cycles").as_u64().unwrap_or(0);
        let instret = entry.get_or_null("instret").as_u64().unwrap_or(0);
        let cpi_milli = entry.get_or_null("cpi_milli").as_u64().unwrap_or(0);
        if cycles == 0 || instret == 0 {
            return Err(format!("{preset}: cycles/instret must be positive"));
        }
        if cpi_milli != cycles.saturating_mul(1000) / instret {
            return Err(format!(
                "{preset}: cpi_milli {cpi_milli} inconsistent with cycles/instret"
            ));
        }
        let sampled = entry
            .get_or_null("sampled_cpi_milli")
            .as_u64()
            .unwrap_or(0);
        if sampled == 0 {
            return Err(format!("{preset}: sampled_cpi_milli must be positive"));
        }
        let err = entry
            .get_or_null("sampled_cpi_err_milli")
            .as_u64()
            .unwrap_or(u64::MAX);
        if err > SAMPLED_ERR_BOUND_MILLI {
            return Err(format!(
                "{preset}: sampled CPI error {err} per mille exceeds the \
                 {SAMPLED_ERR_BOUND_MILLI} per-mille accuracy gate"
            ));
        }
    }

    let timing = v.get_or_null("timing");
    expect_keys(
        timing,
        "timing",
        &[
            "campaign_jobs_per_sec",
            "mips",
            "sim_kilocycles_per_sec",
            "sim_kilocycles_per_sec_by_workload",
            "total_ms",
        ],
    )?;
    let mips = timing.get_or_null("mips");
    expect_keys(mips, "timing.mips", &names)?;
    for name in &names {
        match mips.get_or_null(name).as_f64() {
            Some(m) if m.is_finite() && m > 0.0 => {}
            other => return Err(format!("timing.mips.{name} must be positive: {other:?}")),
        }
    }
    let kcps = timing.get_or_null("sim_kilocycles_per_sec");
    expect_keys(kcps, "timing.sim_kilocycles_per_sec", &CYCLE_PRESETS)?;
    for preset in CYCLE_PRESETS {
        match kcps.get_or_null(preset).as_f64() {
            Some(r) if r.is_finite() && r > 0.0 => {}
            other => {
                return Err(format!(
                    "timing.sim_kilocycles_per_sec.{preset} must be positive: {other:?}"
                ))
            }
        }
    }
    let by_wl = timing.get_or_null("sim_kilocycles_per_sec_by_workload");
    expect_keys(
        by_wl,
        "timing.sim_kilocycles_per_sec_by_workload",
        &CYCLE_PRESETS,
    )?;
    for preset in CYCLE_PRESETS {
        let entries = by_wl.get_or_null(preset);
        let names = keys_of(entries);
        if names.is_empty() {
            return Err(format!(
                "timing.sim_kilocycles_per_sec_by_workload.{preset} must name every suite workload"
            ));
        }
        for name in names {
            match entries.get_or_null(name).as_f64() {
                Some(r) if r.is_finite() && r > 0.0 => {}
                other => {
                    return Err(format!(
                        "timing.sim_kilocycles_per_sec_by_workload.{preset}.{name} \
                         must be positive: {other:?}"
                    ))
                }
            }
        }
    }
    for rate in ["campaign_jobs_per_sec", "total_ms"] {
        match timing.get_or_null(rate).as_f64() {
            Some(r) if r.is_finite() && r > 0.0 => {}
            other => return Err(format!("timing.{rate} must be positive: {other:?}")),
        }
    }
    Ok(())
}

/// The sim-MIPS recorded for `name`, if present.
pub fn mips_of(v: &Value, name: &str) -> Option<f64> {
    v.get_or_null("timing").get_or_null("mips").get(name)?.as_f64()
}

/// The sim-kilocycles/sec recorded for cycle-model `preset`, if present.
pub fn kilocycles_per_sec_of(v: &Value, preset: &str) -> Option<f64> {
    v.get_or_null("timing")
        .get_or_null("sim_kilocycles_per_sec")
        .get(preset)?
        .as_f64()
}

/// The deterministic suite CPI×1000 for cycle-model `preset`, if present.
pub fn cpi_milli_of(v: &Value, preset: &str) -> Option<u64> {
    v.get_or_null("cycle_model")
        .get_or_null(preset)
        .get("cpi_milli")?
        .as_u64()
}

/// The checkpoint-farm weighted CPI×1000 for `preset`, if present.
pub fn sampled_cpi_milli_of(v: &Value, preset: &str) -> Option<u64> {
    v.get_or_null("cycle_model")
        .get_or_null(preset)
        .get("sampled_cpi_milli")?
        .as_u64()
}

/// The sampled-vs-full per-mille CPI error for `preset`, if present.
pub fn sampled_cpi_err_milli_of(v: &Value, preset: &str) -> Option<u64> {
    v.get_or_null("cycle_model")
        .get_or_null(preset)
        .get("sampled_cpi_err_milli")?
        .as_u64()
}

/// The deterministic body: the report with `timing` removed, rendered
/// as canonical JSON. Two same-seed runs must agree byte for byte.
pub fn body_json(v: &Value) -> String {
    let mut body = v.clone();
    if let Value::Object(m) = &mut body {
        m.remove("timing");
    }
    serde_json::to_string_pretty(&body).expect("report body serializes")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Value {
        let ps: Vec<PersonalityMeasurement> = PERSONALITIES
            .iter()
            .enumerate()
            .map(|(i, p)| PersonalityMeasurement {
                name: p.name.to_string(),
                paper_counterpart: p.paper_counterpart.to_string(),
                instructions: 1_000_000,
                mips: 100.0 * (i + 1) as f64,
            })
            .collect();
        let c = CampaignMeasurement {
            reference: "nemu-trace".into(),
            jobs: 12,
            halted: 12,
            jobs_per_sec: 3.5,
        };
        let cm: Vec<CycleModelMeasurement> = CYCLE_PRESETS
            .iter()
            .enumerate()
            .map(|(i, preset)| CycleModelMeasurement {
                preset: preset.to_string(),
                cycles: 400_000 + 10_000 * i as u64,
                instret: 100_000,
                cpi_milli: (400_000 + 10_000 * i as u64) * 1000 / 100_000,
                sampled_cpi_milli: 4_000 + 100 * i as u64,
                sampled_cpi_err_milli: 12 + i as u64,
                kilocycles_per_sec: 250.0 / (i + 1) as f64,
                per_workload: vec![
                    ("mcf".into(), 900.0 * (i + 1) as f64),
                    ("namd".into(), 1200.0 * (i + 1) as f64),
                ],
            })
            .collect();
        build_report("spec-like-suite@Test", 200_000_000, &ps, &c, &cm, 4000.0)
    }

    #[test]
    fn built_report_validates() {
        validate(&sample()).expect("sample report is schema-clean");
    }

    #[test]
    fn body_is_wall_clock_free_and_round_trips() {
        let r = sample();
        let body = body_json(&r);
        assert!(!body.contains("mips"), "rates leaked into the body");
        assert!(!body.contains("_ms"), "wall-clock leaked into the body");
        assert!(!body.contains("per_sec"), "rates leaked into the body");
        // Body is independent of the measured rates.
        let mut slow = sample();
        if let Value::Object(m) = &mut slow {
            let mut t = Map::new();
            t.insert("mips".into(), Value::Object(Map::new()));
            m.insert("timing".into(), Value::Object(t));
        }
        assert_eq!(body, body_json(&slow));
        let parsed: Value = serde_json::from_str(&serde_json::to_string(&r).unwrap()).unwrap();
        validate(&parsed).expect("report survives a JSON round trip");
    }

    #[test]
    fn validator_rejects_mutations() {
        // A wall-clock field smuggled into the body.
        let mut r = sample();
        if let Value::Object(m) = &mut r {
            m.insert("elapsed_ms".into(), Value::F64(1.0));
        }
        assert!(validate(&r).is_err(), "extra body key accepted");

        // A missing personality.
        let mut r = sample();
        if let Some(Value::Object(p)) = r.as_object_mut_key("personalities") {
            p.remove("nemu-trace");
        }
        assert!(validate(&r).is_err(), "missing personality accepted");

        // Zero instructions (a personality that never ran).
        let mut r = sample();
        if let Some(Value::Object(p)) = r.as_object_mut_key("personalities") {
            if let Some(Value::Object(e)) = p.get_mut("nemu") {
                e.insert("instructions".into(), Value::U64(0));
            }
        }
        assert!(validate(&r).is_err(), "zero instructions accepted");

        // An unknown campaign REF.
        let mut r = sample();
        if let Some(Value::Object(c)) = r.as_object_mut_key("campaign") {
            c.insert("ref".into(), Value::String("warp-drive".into()));
        }
        assert!(validate(&r).is_err(), "unknown REF accepted");

        // A wall-clock rate smuggled into a cycle-model body entry.
        let mut r = sample();
        if let Some(Value::Object(cm)) = r.as_object_mut_key("cycle_model") {
            if let Some(Value::Object(e)) = cm.get_mut("small-nh") {
                e.insert("kilocycles".into(), Value::F64(99.0));
            }
        }
        assert!(validate(&r).is_err(), "extra cycle-model key accepted");

        // A cpi_milli inconsistent with cycles/instret.
        let mut r = sample();
        if let Some(Value::Object(cm)) = r.as_object_mut_key("cycle_model") {
            if let Some(Value::Object(e)) = cm.get_mut("small-yqh") {
                e.insert("cpi_milli".into(), Value::U64(1));
            }
        }
        assert!(validate(&r).is_err(), "inconsistent cpi_milli accepted");

        // A sampled CPI error past the accuracy gate.
        let mut r = sample();
        if let Some(Value::Object(cm)) = r.as_object_mut_key("cycle_model") {
            if let Some(Value::Object(e)) = cm.get_mut("small-nh") {
                e.insert(
                    "sampled_cpi_err_milli".into(),
                    Value::U64(SAMPLED_ERR_BOUND_MILLI + 1),
                );
            }
        }
        assert!(validate(&r).is_err(), "out-of-gate sampled error accepted");

        // A sampled estimate that never ran.
        let mut r = sample();
        if let Some(Value::Object(cm)) = r.as_object_mut_key("cycle_model") {
            if let Some(Value::Object(e)) = cm.get_mut("small-nh") {
                e.insert("sampled_cpi_milli".into(), Value::U64(0));
            }
        }
        assert!(validate(&r).is_err(), "zero sampled_cpi_milli accepted");
    }

    /// Test-only helper: mutable access to a top-level object field.
    trait MutKey {
        fn as_object_mut_key(&mut self, key: &str) -> Option<&mut Value>;
    }
    impl MutKey for Value {
        fn as_object_mut_key(&mut self, key: &str) -> Option<&mut Value> {
            match self {
                Value::Object(m) => m.get_mut(key),
                _ => None,
            }
        }
    }
}
