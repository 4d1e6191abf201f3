//! The tracked body of the Fig. 8 interpreter shootout: `BENCH_fig8.json`.
//!
//! The file is a pure function of the sources. It holds what the shootout
//! and the cycle model *did* — retired-instruction totals per registry
//! personality, suite cycles / instret / CPI×1000 per tracked preset, and
//! the checkpoint farm's sampled-vs-full CPI error — and no wall-clock
//! figure at all: how fast any of it ran is printed by the
//! `fig8_interpreters` harness (that table *is* the paper's figure) and
//! recorded over time only under `benchmark/`
//! (`nemu.run_mips.<personality>`). So the harness regenerates the file
//! byte for byte, and `scripts/ci.sh` fails when the regenerated file
//! differs from the committed one.
//!
//! [`Fig8Body`] is the format: what [`Fig8Body::to_json`] writes, [`load`]
//! reads back, and nothing else is accepted — a file that is not exactly
//! the text its own parsed body serializes to (an unknown key such as a
//! smuggled `timing` section, a reordered or hand-indented line) is
//! refused with the first line that differs.

use nemu::registry::PERSONALITIES;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use workloads::{all_workloads, Scale};
use xscore::XsConfig;

/// Version stamp of the layout; bump on any structural change.
///
/// v5: the `timing` and `campaign` sections are gone — the body is all
/// there is (v2–v4 added `cycle_model`, per-workload rates and the
/// sampled-CPI fields beside a wall-clock section).
pub const SCHEMA_VERSION: u64 = 5;

/// The workload whose sampled-vs-full CPI error the body tracks.
pub const SAMPLED_WORKLOAD: &str = "sjeng";

/// Maximum tolerated sampled-vs-full CPI error, per mille (25%): the
/// paper reports ~3% SimPoint error at production interval sizes; the
/// test-scale intervals here are far coarser, so the gate is loose —
/// but a regression that breaks checkpoint restore or weighting blows
/// well past it.
pub const SAMPLED_ERR_BOUND_MILLI: u64 = 250;

/// Cycle-model presets the body tracks, sorted.
pub const CYCLE_PRESETS: [&str; 2] = ["small-nh", "small-yqh"];

/// Per-workload step budget of the tracked file. The Test-scale suite
/// retires 1 118 341 instructions a pass, so it never binds.
pub const FUEL: u64 = 200_000_000;

/// Per-workload cycle-model budget of the tracked file.
pub const MAX_CYCLES: u64 = 2_000_000;

/// Passes over the suite per personality, each on a fresh engine (the
/// committed totals are three passes' worth).
const SUITE_REPS: u64 = 3;

/// One personality's passes over the workload suite.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PersonalityEntry {
    /// The paper's Fig. 8 counterpart (e.g. `"NEMU"`).
    pub paper_counterpart: String,
    /// Instructions retired over [`SUITE_REPS`] passes of the suite.
    pub instructions: u64,
}

/// One cycle-model preset's pass over the workload suite.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CycleModelEntry {
    /// Cycles simulated across the suite.
    pub cycles: u64,
    /// Instructions retired across the suite.
    pub instret: u64,
    /// Suite CPI scaled by 1000, rounded down.
    pub cpi_milli: u64,
    /// Checkpoint-farm weighted CPI×1000 estimate of [`SAMPLED_WORKLOAD`].
    pub sampled_cpi_milli: u64,
    /// Per-mille error of that estimate against the full simulation of
    /// [`SAMPLED_WORKLOAD`].
    pub sampled_cpi_err_milli: u64,
}

/// Everything `BENCH_fig8.json` holds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig8Body {
    /// [`SCHEMA_VERSION`].
    pub schema_version: u64,
    /// `"fig8"`.
    pub figure: String,
    /// The suite and its scale.
    pub workload: String,
    /// Per-workload step budget the personalities ran under.
    pub fuel: u64,
    /// By [`nemu::registry`] name.
    pub personalities: BTreeMap<String, PersonalityEntry>,
    /// By preset slug ([`CYCLE_PRESETS`]).
    pub cycle_model: BTreeMap<String, CycleModelEntry>,
}

/// Measure the body: every registry personality and every tracked preset
/// over the Test-scale suite, plus one sampled pass over
/// [`SAMPLED_WORKLOAD`]. The tracked file is
/// `measure(FUEL, MAX_CYCLES)`.
pub fn measure(fuel: u64, max_cycles: u64) -> Fig8Body {
    let personalities = PERSONALITIES.iter().map(|p| {
        let passes = (0..SUITE_REPS).flat_map(|_| all_workloads(Scale::Test));
        let entry = PersonalityEntry {
            paper_counterpart: p.paper_counterpart.to_string(),
            instructions: passes
                .map(|w| (p.build)(&w.program).run(fuel).instructions)
                .sum(),
        };
        (p.name.to_string(), entry)
    });

    // The checkpoint-farm accuracy tier: one sampled pass over
    // SAMPLED_WORKLOAD for every tracked preset (the workload is
    // profiled once, shared across presets), read against the full
    // simulation of the same workload below.
    let presets = CYCLE_PRESETS.iter().map(|s| s.to_string()).collect();
    let mut spec = campaign::SampleSpec::new(vec![SAMPLED_WORKLOAD.into()], presets)
        .with_max_cycles(max_cycles);
    spec.triage = false;
    let sampled = campaign::run_sampled(&spec).sampling;

    let cycle_model = CYCLE_PRESETS.iter().map(|&preset| {
        let (mut cycles, mut instret, mut full) = (0, 0, 0);
        for w in all_workloads(Scale::Test) {
            let cfg = XsConfig::preset(preset).expect("tracked preset exists");
            let stats = minjie::run_isolated(cfg, &w.program, max_cycles, None)
                .unwrap_or_else(|e| panic!("cycle model panicked on {}: {e}", w.name));
            cycles += stats.cycles;
            instret += stats.instret;
            if w.name == SAMPLED_WORKLOAD {
                full = stats.cycles.saturating_mul(1000) / stats.instret.max(1);
            }
        }
        let sm = sampled.iter().find(|s| s.config == preset);
        let estimate = sm
            .expect("sampled pass covers every tracked preset")
            .weighted_cpi_milli;
        let entry = CycleModelEntry {
            cycles,
            instret,
            cpi_milli: cycles.saturating_mul(1000) / instret.max(1),
            sampled_cpi_milli: estimate,
            sampled_cpi_err_milli: full.abs_diff(estimate).saturating_mul(1000) / full.max(1),
        };
        (preset.to_string(), entry)
    });

    Fig8Body {
        schema_version: SCHEMA_VERSION,
        figure: "fig8".into(),
        workload: "spec-like-suite@Test".into(),
        fuel,
        personalities: personalities.collect(),
        cycle_model: cycle_model.collect(),
    }
}

impl Fig8Body {
    /// The file's text: pretty JSON, keys sorted, one trailing newline.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("the body serializes") + "\n"
    }

    /// What the type cannot say: the maps hold exactly the registry's
    /// personalities and the tracked presets, every personality retired
    /// the same total (the suites are the same programs, so a difference
    /// is an engine bug), `cpi_milli` is `cycles·1000/instret`, and the
    /// sampled estimate is inside [`SAMPLED_ERR_BOUND_MILLI`].
    fn check(&self) -> Result<(), String> {
        let mut names = nemu::registry::names();
        names.sort_unstable();
        if !self.personalities.keys().eq(names.iter()) {
            let got: Vec<_> = self.personalities.keys().collect();
            return Err(format!(
                "personalities {got:?}, the registry holds {names:?}"
            ));
        }
        if !self.cycle_model.keys().eq(CYCLE_PRESETS.iter()) {
            let got: Vec<_> = self.cycle_model.keys().collect();
            return Err(format!(
                "cycle_model presets {got:?}, expected {CYCLE_PRESETS:?}"
            ));
        }
        let mut totals = self.personalities.values().map(|p| p.instructions);
        let first = totals.next().unwrap_or(0);
        if first == 0 || totals.any(|t| t != first) {
            let got: Vec<_> = self
                .personalities
                .iter()
                .map(|(n, p)| (n, p.instructions))
                .collect();
            return Err(format!(
                "personalities disagree on retired instructions: {got:?}"
            ));
        }
        for (preset, e) in &self.cycle_model {
            if e.instret == 0 || e.cpi_milli != e.cycles.saturating_mul(1000) / e.instret {
                return Err(format!(
                    "{preset}: cpi_milli {} inconsistent with cycles/instret",
                    e.cpi_milli
                ));
            }
            if e.sampled_cpi_err_milli > SAMPLED_ERR_BOUND_MILLI {
                return Err(format!(
                    "{preset}: sampled CPI error {} per mille exceeds the \
                     {SAMPLED_ERR_BOUND_MILLI} per-mille accuracy gate",
                    e.sampled_cpi_err_milli
                ));
            }
        }
        Ok(())
    }
}

/// Read the text of a `BENCH_fig8.json`.
///
/// # Errors
///
/// One line of diagnosis when the text does not parse, is of another
/// [`SCHEMA_VERSION`], is not exactly what its parsed body serializes
/// to, or holds a body that fails the semantic checks.
pub fn load(text: &str) -> Result<Fig8Body, String> {
    let value = serde_json::parse(text).map_err(|e| format!("parse: {e}"))?;
    let found = value.get_or_null("schema_version");
    if *found != SCHEMA_VERSION {
        return Err(format!(
            "bench schema {found}, this build reads {SCHEMA_VERSION}"
        ));
    }
    let body = Fig8Body::deserialize(&value).map_err(|e| e.to_string())?;
    let canonical = body.to_json();
    if canonical != text {
        let differs = |(a, b): (&str, &str)| a != b;
        let at = text.lines().zip(canonical.lines()).position(differs);
        let at = at.unwrap_or_else(|| text.lines().count().min(canonical.lines().count()));
        let found = text.lines().nth(at).unwrap_or("<end of file>").trim();
        return Err(format!(
            "line {}: {found} is not what this body serializes to (an unknown key, or a hand edit)",
            at + 1
        ));
    }
    body.check()?;
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A body that passes `check`, built without simulating anything.
    fn sample() -> Fig8Body {
        let entry = |p: &nemu::registry::Personality| PersonalityEntry {
            paper_counterpart: p.paper_counterpart.to_string(),
            instructions: 1_000_000,
        };
        let cm = |cycles| CycleModelEntry {
            cycles,
            instret: 100_000,
            cpi_milli: cycles * 1000 / 100_000,
            sampled_cpi_milli: 4_000,
            sampled_cpi_err_milli: 12,
        };
        Fig8Body {
            schema_version: SCHEMA_VERSION,
            figure: "fig8".into(),
            workload: "spec-like-suite@Test".into(),
            fuel: FUEL,
            personalities: PERSONALITIES
                .iter()
                .map(|p| (p.name.to_string(), entry(p)))
                .collect(),
            cycle_model: CYCLE_PRESETS
                .iter()
                .map(|p| (p.to_string(), cm(400_000)))
                .collect(),
        }
    }

    #[test]
    fn a_checked_body_round_trips_and_an_unchecked_one_does_not() {
        assert_eq!(load(&sample().to_json()), Ok(sample()));

        // Canonical text, wrong content: only `check` stands in the way.
        let mut b = sample();
        b.personalities.get_mut("nemu").unwrap().instructions += 1;
        assert!(load(&b.to_json()).unwrap_err().contains("disagree"));
        let mut b = sample();
        b.cycle_model
            .insert("nh".into(), b.cycle_model["small-nh"].clone());
        assert!(load(&b.to_json())
            .unwrap_err()
            .contains("cycle_model presets"));
    }
}
