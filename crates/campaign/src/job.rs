//! Job specifications: what one campaign slot runs.

use checkpoint::Checkpoint;
use minjie::{CoSim, DiffError, RunStats, DEFAULT_REF_NAME};
use riscv_isa::asm::Program;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use workloads::litmus::{LitmusConfig, LitmusExit, LitmusProgram};
use workloads::{Scale, TortureConfig, TortureProgram};
use xscore::{InjectedBug, RunKnobs, XsConfig};

/// Where a job's program comes from — the one serializable recipe the
/// whole stack speaks: job lists, the fuzz corpus, minimized
/// reproducers and triage bundles all store this enum, and its wire
/// shape is the bundle schema's `source` field.
///
/// Everything here is *recipe*, not state: a job re-derives its program
/// (or its checkpoint) on the worker, so specs stay cheap to clone
/// across threads and a `(seed, config, mask)` triple in a report is a
/// complete reproducer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkloadSource {
    /// A named SPEC-like kernel (built at [`Scale::Test`]).
    Kernel {
        /// Kernel name, e.g. `"sjeng"`.
        name: String,
    },
    /// A torture program regenerated from its seed, optionally with a
    /// kept-mask over the abstract body slots.
    Torture {
        /// Generator seed.
        seed: u64,
        /// Generator knobs.
        cfg: TortureConfig,
        /// Kept-mask (None keeps every slot).
        keep: Option<Vec<bool>>,
    },
    /// A two-hart litmus program regenerated from its seed, optionally
    /// with a kept-mask over the abstract rounds. Litmus jobs need a
    /// multi-core configuration — pair with [`JobSpec::with_cores`].
    Litmus {
        /// Generator seed.
        seed: u64,
        /// Generator knobs (shape, fences, round count).
        cfg: LitmusConfig,
        /// Kept-mask over rounds (None keeps every round).
        keep: Option<Vec<bool>>,
    },
    /// A caller-assembled program, stored as raw bytes.
    Inline {
        /// Display name for the report.
        name: String,
        /// Load base address.
        base: u64,
        /// Entry point.
        entry: u64,
        /// Image bytes.
        bytes: Vec<u8>,
    },
    /// One SimPoint checkpoint of a profiled kernel, simulated as a
    /// warm-up + measured detail window (§III-D3), stored as the
    /// checkpoint *recipe*: profiling `kernel` on `ref_model` for
    /// `interval × interval_len` instructions rebuilds the exact restore
    /// state (see `checkpoint::checkpoint_at_interval`), which keeps
    /// bundles free of memory images.
    Sample {
        /// Profiled kernel name, e.g. `"sjeng"`.
        kernel: String,
        /// Profiling personality the checkpoint came from.
        ref_model: String,
        /// Profiling interval length, instructions.
        interval_len: u64,
        /// Interval index of the checkpoint.
        interval: u64,
        /// Warm-up instruction budget before measurement.
        warmup: u64,
        /// Measured-window instruction budget.
        window: u64,
    },
}

impl WorkloadSource {
    /// A full torture program from `seed`.
    pub fn torture(seed: u64, cfg: TortureConfig) -> Self {
        WorkloadSource::Torture {
            seed,
            cfg,
            keep: None,
        }
    }

    /// A named kernel.
    pub fn kernel(name: impl Into<String>) -> Self {
        WorkloadSource::Kernel { name: name.into() }
    }

    /// A full litmus program from `seed`.
    pub fn litmus(seed: u64, cfg: LitmusConfig) -> Self {
        WorkloadSource::Litmus {
            seed,
            cfg,
            keep: None,
        }
    }

    /// An inline program.
    pub fn inline(name: impl Into<String>, program: Program) -> Self {
        WorkloadSource::Inline {
            name: name.into(),
            base: program.base,
            entry: program.entry,
            bytes: program.bytes,
        }
    }

    /// Stable display label used in reports.
    pub fn describe(&self) -> String {
        match self {
            WorkloadSource::Kernel { name } => format!("kernel:{name}"),
            WorkloadSource::Torture { seed, .. } => format!("torture:seed={seed}"),
            WorkloadSource::Litmus { seed, cfg, .. } => {
                format!("litmus:{}:seed={seed}", cfg.shape.slug())
            }
            WorkloadSource::Inline { name, .. } => format!("inline:{name}"),
            WorkloadSource::Sample {
                kernel, interval, ..
            } => format!("sample:{kernel}:interval={interval}"),
        }
    }

    /// Diagnose a recipe that names something this build does not have
    /// (a kernel, a profiling personality) — where [`build`](Self::build)
    /// and the checkpoint derivation would panic. [`verify_bundle`]
    /// calls this before running a recipe read from disk.
    ///
    /// [`verify_bundle`]: crate::verify_bundle
    pub(crate) fn check(&self) -> Result<(), String> {
        let (kernel, ref_model) = match self {
            WorkloadSource::Kernel { name } => (name, None),
            WorkloadSource::Sample {
                kernel, ref_model, ..
            } => (kernel, Some(ref_model)),
            _ => return Ok(()),
        };
        if !workloads::NAMES.contains(&kernel.as_str()) {
            return Err(format!("unknown workload `{kernel}`"));
        }
        if let Some(r) = ref_model.filter(|r| nemu::registry::find(r).is_none()) {
            return Err(format!("unknown profiling personality `{r}`"));
        }
        Ok(())
    }

    /// Assemble the program this source describes.
    ///
    /// # Panics
    ///
    /// Panics on an unknown kernel name or a kept-mask whose length does
    /// not match the regenerated body.
    pub fn build(&self) -> Program {
        match self {
            // Sample jobs don't run a program from reset — they resume
            // from the checkpoint profiled out of this kernel.
            WorkloadSource::Kernel { name } | WorkloadSource::Sample { kernel: name, .. } => {
                workloads::workload(name, Scale::Test).program
            }
            WorkloadSource::Torture { seed, cfg, keep } => {
                let t = TortureProgram::generate(*seed, cfg);
                match keep {
                    Some(mask) => t.emit_subset(mask),
                    None => t.emit(),
                }
            }
            WorkloadSource::Litmus { seed, cfg, keep } => {
                let p = LitmusProgram::generate(*seed, cfg);
                match keep {
                    Some(mask) => p.emit_subset(mask),
                    None => p.emit(),
                }
            }
            WorkloadSource::Inline {
                base, entry, bytes, ..
            } => Program {
                base: *base,
                entry: *entry,
                bytes: bytes.clone(),
            },
        }
    }

    /// The `(warmup, window)` instruction budgets of a sample recipe.
    pub(crate) fn sample_window(&self) -> Option<(u64, u64)> {
        match self {
            WorkloadSource::Sample { warmup, window, .. } => Some((*warmup, *window)),
            _ => None,
        }
    }

    /// The kept-mask of a generated source (all-true when none is set
    /// yet) — the slot structure ddmin shrinks. `None` for kernels,
    /// inline programs and samples, which have none.
    pub(crate) fn kept_mask(&self) -> Option<Vec<bool>> {
        let all = |len: usize| vec![true; len];
        match self {
            WorkloadSource::Torture { seed, cfg, keep } => Some(
                keep.clone()
                    .unwrap_or_else(|| all(TortureProgram::generate(*seed, cfg).len())),
            ),
            WorkloadSource::Litmus { seed, cfg, keep } => Some(
                keep.clone()
                    .unwrap_or_else(|| all(LitmusProgram::generate(*seed, cfg).len())),
            ),
            _ => None,
        }
    }

    /// This generated source with its kept-mask replaced (other sources
    /// are returned unchanged).
    pub(crate) fn with_mask(&self, mask: &[bool]) -> Self {
        let mut out = self.clone();
        if let WorkloadSource::Torture { keep, .. } | WorkloadSource::Litmus { keep, .. } = &mut out
        {
            *keep = Some(mask.to_vec());
        }
        out
    }

    /// Decode a halted run's exit code as a litmus verdict: `Some` when
    /// this is a litmus source and the program reported an observation
    /// outside its shape's allowed set.
    pub(crate) fn forbidden_exit(&self, exit_code: u64) -> Option<LitmusExit> {
        let exit = LitmusExit::decode(exit_code);
        (matches!(self, WorkloadSource::Litmus { .. }) && exit.forbidden()).then_some(exit)
    }
}

/// One campaign job: a workload on a configuration, with run limits.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The program recipe.
    pub workload: WorkloadSource,
    /// Configuration preset slug (see [`XsConfig::preset_names`]).
    pub config: String,
    /// Core-count override (None keeps the preset's).
    pub cores: Option<usize>,
    /// Cycle budget; exceeding it is a [`Timeout`](crate::Verdict::Timeout).
    pub max_cycles: u64,
    /// LightSSS snapshot interval (None disables snapshots).
    pub lightsss_interval: Option<u64>,
    /// What the run observes and which faults it arms; a fuzz job's
    /// record carries a `coverage` map only when coverage is on.
    pub run: RunKnobs,
    /// DiffTest REF personality name (None keeps the default REF, the
    /// only one a sample job can be verified against).
    pub ref_model: Option<String>,
    /// The materialized checkpoint of a [`WorkloadSource::Sample`]
    /// recipe — a cache, not configuration: `run_sampled` attaches the
    /// checkpoints it already holds (an `Arc`, and the sparse memory
    /// image is copy-on-write, so clones across the pool stay cheap); a
    /// job that arrives without one (a replayed bundle) re-derives it
    /// from the recipe.
    pub(crate) checkpoint: Option<Arc<Checkpoint>>,
}

impl Default for JobSpec {
    /// A job template: default limits (40 M cycles, no snapshots, nothing
    /// armed), no workload and no preset yet. Every job generator builds
    /// its jobs from one as `JobSpec { workload, config, ..template }`.
    fn default() -> Self {
        JobSpec {
            workload: WorkloadSource::kernel(""),
            config: String::new(),
            cores: None,
            max_cycles: 40_000_000,
            lightsss_interval: None,
            run: RunKnobs::default(),
            ref_model: None,
            checkpoint: None,
        }
    }
}

impl JobSpec {
    /// A job with default limits (40 M cycles, no snapshots).
    pub fn new(workload: WorkloadSource, config: impl Into<String>) -> Self {
        JobSpec {
            workload,
            config: config.into(),
            ..JobSpec::default()
        }
    }

    /// Override the preset's core count.
    pub fn with_cores(mut self, cores: usize) -> Self {
        self.cores = Some(cores);
        self
    }

    /// Arm a deliberate DUT bug.
    pub fn with_injected_bug(mut self, bug: InjectedBug) -> Self {
        self.run.injected_bug = Some(bug);
        self
    }

    /// Arm the §IV-C L2 probe/grant race fault.
    pub fn with_l2_race(mut self) -> Self {
        self.run.inject_l2_race = true;
        self
    }

    /// Set the cycle budget.
    pub fn with_max_cycles(mut self, max_cycles: u64) -> Self {
        self.max_cycles = max_cycles;
        self
    }

    /// Enable LightSSS with the given snapshot interval.
    pub fn with_lightsss(mut self, interval: u64) -> Self {
        self.lightsss_interval = Some(interval);
        self
    }

    /// Enable per-cycle telemetry (occupancy and latency histograms).
    pub fn with_telemetry(mut self) -> Self {
        self.run.telemetry = true;
        self
    }

    /// Enable full-trace lifecycle streaming for this job.
    pub fn with_lifecycle(mut self) -> Self {
        self.run.lifecycle = true;
        self
    }

    /// Enable coverage-map collection for this job.
    pub fn with_coverage(mut self) -> Self {
        self.run.coverage = true;
        self
    }

    /// Select the DiffTest REF personality for this job.
    pub fn with_ref(mut self, name: impl Into<String>) -> Self {
        self.ref_model = Some(name.into());
        self
    }

    /// Resolve the preset slug and apply the job's overrides; `None`
    /// when [`JobSpec::config`] rejects the job.
    pub fn build_config(&self) -> Option<XsConfig> {
        self.config().ok()
    }

    /// Resolve the preset slug, apply the job's overrides and validate
    /// the result ([`XsConfig::validate`]), with a one-line diagnosis of
    /// a job that cannot run.
    pub fn config(&self) -> Result<XsConfig, String> {
        let mut cfg = XsConfig::preset(&self.config)
            .ok_or_else(|| format!("unknown configuration preset `{}`", self.config))?;
        if let Some(cores) = self.cores {
            cfg.cores = cores;
        }
        cfg.run = self.run;
        let sample = self.workload.sample_window().is_some();
        if let Some(r) = self.ref_model.as_deref().filter(|r| sample && *r != DEFAULT_REF_NAME) {
            return Err(format!(
                "a sample job cannot be verified against `{r}`: a checkpoint \
                 restores into DiffTest's default REF `{DEFAULT_REF_NAME}` only"
            ));
        }
        cfg.validate()?;
        Ok(cfg)
    }

    /// Boot and run this job on `cfg` inside the isolated run's panic
    /// boundary (a sample recipe with its warm-up/window pair), also
    /// handing back the checkpoint a sample job resumed from. This is
    /// how the campaign executor, bundle verification and the tests all
    /// run a job.
    pub(crate) fn run(&self, cfg: XsConfig) -> (Result<RunStats, String>, Option<Arc<Checkpoint>>) {
        let mut checkpoint = None;
        let boot = || {
            let (cosim, c) = self.boot(cfg);
            checkpoint = c;
            cosim
        };
        let result = minjie::run_isolated(
            Box::new(boot),
            self.workload.sample_window(),
            self.max_cycles,
            self.lightsss_interval,
        );
        (result, checkpoint)
    }

    /// Boot the co-simulation this job describes on `cfg`: from reset
    /// over the built program, or — for a sample recipe — from its
    /// checkpoint (the attached one, else re-derived by profiling),
    /// which is handed back for the record.
    ///
    /// # Panics
    ///
    /// Whatever [`WorkloadSource::build`], the checkpoint derivation or
    /// the harness constructor panic on: call it inside a panic boundary
    /// ([`JobSpec::run`], or as the start of a [`minjie::debug_window`]).
    pub(crate) fn boot(&self, cfg: XsConfig) -> (CoSim, Option<Arc<Checkpoint>>) {
        let WorkloadSource::Sample {
            ref_model,
            interval_len,
            interval,
            ..
        } = &self.workload
        else {
            let ref_name = self.ref_model.as_deref().unwrap_or(DEFAULT_REF_NAME);
            return (CoSim::new_with_ref(cfg, &self.workload.build(), ref_name), None);
        };
        // Deterministic, so a re-derived state matches the one the farm
        // materialized byte for byte.
        let c = self.checkpoint.clone().unwrap_or_else(|| {
            let program = self.workload.build();
            Arc::new(checkpoint::checkpoint_at_interval(
                ref_model,
                &program,
                *interval_len,
                *interval,
            ))
        });
        (CoSim::from_checkpoint(cfg, &c.state, &c.memory), Some(c))
    }
}

/// The variant name of a [`DiffError`] — campaigns group and match
/// divergences by this class.
pub fn error_class(e: &DiffError) -> &'static str {
    match e {
        DiffError::Pc { .. } => "Pc",
        DiffError::Writeback { .. } => "Writeback",
        DiffError::Trap { .. } => "Trap",
        DiffError::RepeatedForcedEvent { .. } => "RepeatedForcedEvent",
        DiffError::State { .. } => "State",
        DiffError::Csr { .. } => "Csr",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn describe_labels_are_stable() {
        assert_eq!(WorkloadSource::kernel("sjeng").describe(), "kernel:sjeng");
        assert_eq!(
            WorkloadSource::torture(7, TortureConfig::default()).describe(),
            "torture:seed=7"
        );
        assert_eq!(
            WorkloadSource::litmus(3, LitmusConfig::default()).describe(),
            "litmus:mp:seed=3"
        );
    }

    #[test]
    fn litmus_source_build_honours_mask() {
        let cfg = LitmusConfig::default();
        let full = WorkloadSource::litmus(5, cfg).build();
        let keep = vec![false; cfg.rounds];
        let empty = WorkloadSource::Litmus {
            seed: 5,
            cfg,
            keep: Some(keep),
        }
        .build();
        assert!(empty.bytes.len() < full.bytes.len());
    }

    #[test]
    fn config_resolution_applies_overrides() {
        let j = JobSpec::new(WorkloadSource::kernel("mcf"), "small-nh")
            .with_cores(2)
            .with_injected_bug(InjectedBug::MulLowBit);
        let c = j.build_config().unwrap();
        assert_eq!(c.cores, 2);
        assert_eq!(c.run.injected_bug, Some(InjectedBug::MulLowBit));
        assert!(JobSpec::new(WorkloadSource::kernel("mcf"), "bogus")
            .build_config()
            .is_none());
        // Two harts on a hierarchy without a shared LLC would be
        // incoherent: the job is refused, not run.
        let err = JobSpec::new(WorkloadSource::kernel("mcf"), "small-yqh")
            .with_cores(2)
            .config()
            .unwrap_err();
        assert!(err.contains("no shared last-level cache"), "{err}");
        // A checkpoint boots the default REF whatever the job names, so a
        // sample job naming another is refused rather than mislabelled.
        let sample = JobSpec::new(
            WorkloadSource::Sample {
                kernel: "sjeng".into(),
                ref_model: "nemu-trace".into(),
                interval_len: 5_000,
                interval: 1,
                warmup: 100,
                window: 100,
            },
            "small-nh",
        );
        assert!(sample.config().is_ok());
        assert!(sample.clone().with_ref(DEFAULT_REF_NAME).config().is_ok());
        let err = sample.with_ref("arch").config().unwrap_err();
        assert!(err.contains("cannot be verified against `arch`"), "{err}");
    }

    /// Every `--ref` name reaches DiffTest: the REF a job boots is the
    /// personality it names, not only an unknown name failing to boot.
    #[test]
    fn a_jobs_ref_is_the_ref_difftest_boots() {
        use minjie::{AnyRef, ARCH_REF_NAME};
        for name in AnyRef::names() {
            let job = JobSpec::new(WorkloadSource::kernel("sjeng"), "small-nh").with_ref(name);
            let (cosim, _) = job.boot(job.config().unwrap());
            let booted = match cosim.state.diff.reference(0) {
                AnyRef::Arch(_) => ARCH_REF_NAME,
                AnyRef::Registry(i) => i.name(),
            };
            assert_eq!(booted, name);
        }
    }

    #[test]
    fn torture_source_build_honours_mask() {
        let cfg = TortureConfig::default();
        let full = WorkloadSource::torture(3, cfg).build();
        let t = TortureProgram::generate(3, &cfg);
        let keep = vec![false; t.len()];
        let empty = WorkloadSource::Torture {
            seed: 3,
            cfg,
            keep: Some(keep),
        }
        .build();
        assert!(empty.bytes.len() < full.bytes.len());
    }
}
