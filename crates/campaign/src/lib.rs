//! Parallel DiffTest campaign runner with failure minimization.
//!
//! The paper's verification flow runs *fleets* of co-simulations —
//! workload × configuration × torture-seed matrices — and turns any
//! divergence into a small, replayable reproducer. This crate is that
//! harness:
//!
//! - [`WorkloadSource`] is the one serializable *recipe* for a workload
//!   (kernel name, torture or litmus `(seed, knobs, kept-mask)`, inline
//!   bytes, or a SimPoint sample's profiling recipe). Job lists, the
//!   fuzz corpus, minimized reproducers and triage bundles all store
//!   this type; its serde form is the bundle schema's `source` field.
//! - [`JobSpec`] names one run: a recipe, an [`XsConfig`] preset slug,
//!   and limits. [`JobSpec::boot`] turns it into a live co-simulation.
//! - [`Campaign`] shards jobs across a `std::thread` worker pool under
//!   one [`Policy`] (workers, minimization, triage, wall-clock limit and
//!   retries); workers take the next job by index. One executor serves
//!   every mode: each job boots *and* runs inside
//!   [`minjie::run_isolated_boot`]'s panic boundary — so even a recipe
//!   that cannot be built is one [`Verdict::Panicked`], not a dead pool —
//!   and yields a [`Verdict`]. Each attempt runs inside
//!   [`minjie::within_deadline`]: one past the wall-clock limit stops in
//!   its own stepping loop, its record is discarded, and it is retried or
//!   written off as a [`Verdict::WallTimeout`].
//! - The fixed matrix, [`run_fuzz`] and [`run_sampled`] are job
//!   generators over that executor: each builds every job from one
//!   [`JobSpec`] template, replacing only the workload, the preset and
//!   its own overrides, and hands the pool one [`Policy`].
//! - On a divergence (or a litmus forbidden outcome), the ddmin
//!   [`minimize()`] pass shrinks the failing source's kept-mask while the
//!   same failure class reproduces, and the report attaches the
//!   `(seed, cfg, mask)` reproducer plus the LightSSS replay window.
//! - Failed jobs (divergence, cycle-budget timeout, forbidden outcome,
//!   panic) go through one [`triage()`]: roll back to the older retained
//!   LightSSS snapshot — or the reset state when the failure preceded
//!   the first snapshot, or a reboot from the recipe when nothing was
//!   salvaged — re-execute the failure window in debug mode
//!   ([`minjie::debug_window`]), and embed a self-contained
//!   [`TriageBundle`] that [`verify_bundle`] (and the `replay` binary)
//!   can reproduce at the identical commit index.
//! - [`CampaignReport`] renders to JSON with wall-clock timing
//!   segregated from the deterministic body, so identical campaigns
//!   produce byte-identical report bodies.
//! - [`run_fuzz`] turns the fixed job matrix into a coverage-guided
//!   fleet: a corpus of [`Recipe`]s (a generated source plus a preset)
//!   is evolved by deterministic mutation, scheduled by observed
//!   coverage novelty (decode, diff-rule, and pipeline-event coverage
//!   maps), and every divergence it finds flows through the same
//!   minimize/triage pipeline.
//! - [`run_sampled`] is the checkpoint farm (§III-D3): workloads are
//!   profiled on a fast architectural personality, SimPoint clustering
//!   picks representative intervals, and one *sample job* per
//!   checkpoint × configuration flows through the same worker pool —
//!   warm-up, then a DiffTest-verified detail window — aggregating to
//!   a weighted-CPI estimate in the report's `sampling` section.
//! - With [`FuzzOpts::mp`] on, the exploration stream interleaves
//!   two-hart litmus recipes; a run whose final observation set falls
//!   outside the shape's allowed-outcome mask becomes a
//!   [`Verdict::ForbiddenOutcome`], which ddmins over rounds and
//!   triages into a replayable bundle like any divergence.
//!
//! # Example
//!
//! ```
//! use campaign::{Campaign, JobSpec, WorkloadSource};
//! use workloads::TortureConfig;
//!
//! let cfg = TortureConfig { body_len: 20, iterations: 3, ..Default::default() };
//! let jobs = (0..2)
//!     .map(|seed| JobSpec::new(WorkloadSource::torture(seed, cfg), "small-nh")
//!         .with_max_cycles(2_000_000))
//!     .collect();
//! let report = Campaign::new(jobs).with_workers(2).run();
//! assert_eq!(report.summary.halted, 2);
//! ```
//!
//! [`XsConfig`]: xscore::XsConfig
//! [`DiffError`]: minjie::DiffError

pub mod coverage;
pub mod fuzz;
pub mod job;
pub mod minimize;
pub mod report;
pub mod runner;
pub mod sample;
pub mod triage;

pub use coverage::{CoverageSet, FuzzRound, FuzzSummary};
pub use fuzz::{
    fresh_litmus_recipe, fresh_recipe, mutate_recipe, run_fuzz, FuzzOpts, FuzzOutcome, Recipe,
};
pub use job::{error_class, JobSpec, WorkloadSource};
pub use minimize::{minimize, MinimizeOutcome};
pub use report::{
    CampaignReport, CampaignSummary, JobRecord, MinimizedRepro, ReplayWindow, SampleRecord,
    SamplingPhase, SamplingSummary, Verdict, WallClock, SCHEMA_VERSION,
};
pub use runner::{Campaign, Policy};
pub use sample::{run_sampled, SampleSpec};
pub use triage::{
    bundle_spec, load_bundle, triage, verify_bundle, BundleVerification, TriageBundle,
    BUNDLE_SCHEMA_VERSION,
};

#[cfg(test)]
mod tests {
    use super::*;
    use minjie::DEFAULT_REF_NAME;
    use std::sync::Arc;
    use workloads::Scale;
    use xscore::InjectedBug;

    /// `job` with the fields a generator sets put back to `template`'s:
    /// what remains must be the template, field for field.
    fn assert_from_template(mut job: JobSpec, template: &JobSpec) {
        job.workload = template.workload.clone();
        job.config = template.config.clone();
        job.checkpoint = None;
        assert_eq!(format!("{job:?}"), format!("{template:?}"));
    }

    #[test]
    fn generated_jobs_are_their_template_but_for_workload_config_and_mode_overrides() {
        let template = JobSpec::default()
            .with_max_cycles(123_456)
            .with_lightsss(700)
            .with_injected_bug(InjectedBug::MulLowBit)
            .with_l2_race()
            .with_telemetry()
            .with_lifecycle()
            .with_ref(DEFAULT_REF_NAME);

        // Fuzz: coverage always on; a litmus recipe runs on two cores.
        let mut opts = FuzzOpts::new(0);
        opts.job = template.clone();
        for recipe in [fresh_recipe(1, "small-nh"), fresh_litmus_recipe(2, "small-yqh")] {
            let mut job = fuzz::job_spec(&recipe, &opts);
            assert_eq!(job.workload, recipe.source);
            assert_eq!(job.config, recipe.config);
            assert!(job.run.coverage);
            let litmus = matches!(recipe.source, WorkloadSource::Litmus { .. });
            assert_eq!(job.cores, litmus.then_some(2));
            (job.run.coverage, job.cores) = (template.run.coverage, template.cores);
            assert_from_template(job, &template);
        }

        // Sample: the checkpoint's recipe, with the checkpoint attached.
        let mut spec = SampleSpec::new(vec!["sjeng".into()], vec!["small-yqh".into()]);
        spec.job = template.clone();
        let program = workloads::workload("sjeng", Scale::Test).program;
        let c = checkpoint::checkpoint_at_interval(DEFAULT_REF_NAME, &program, 5_000, 1);
        let c = Arc::new(c);
        let job = sample::sample_job(&spec, "sjeng", "small-yqh", &c);
        assert_eq!(job.workload.describe(), "sample:sjeng:interval=1");
        assert_eq!(job.config, "small-yqh");
        assert!(job.checkpoint.as_ref().is_some_and(|j| Arc::ptr_eq(j, &c)));
        assert_from_template(job, &template);
    }
}
