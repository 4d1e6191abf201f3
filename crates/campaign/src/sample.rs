//! Sampled performance estimation: SimPoint checkpoints fanned through
//! the campaign runner (paper §III-D3).
//!
//! [`run_sampled`] is the checkpoint farm. Per workload it (1) profiles
//! the program on a fast architectural personality, collecting a
//! basic-block vector per interval, (2) clusters the intervals and
//! materializes one checkpoint per SimPoint — cached on disk under
//! content-hash names so re-runs skip re-profiling, (3) fans one
//! *sample job* per checkpoint × configuration across the ordinary
//! campaign worker pool (panic isolation, wall-clock retries, LightSSS
//! triage all apply unchanged), and (4) folds the measured windows into
//! the report's `sampling` section: a SimPoint-weighted CPI estimate in
//! exact integer milli-units.

use crate::job::{JobSpec, WorkloadSource};
use crate::report::{CampaignReport, SamplingPhase, SamplingSummary};
use crate::runner::Campaign;
use checkpoint::{generate_checkpoints_with_ref, weighted_cpi_milli, Checkpoint};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// What to sample: the workload × configuration matrix plus the
/// profiling and measurement knobs.
#[derive(Debug, Clone)]
pub struct SampleSpec {
    /// Kernel names to profile and sample (see `workloads::workload`).
    pub workloads: Vec<String>,
    /// Configuration preset slugs to measure on.
    pub configs: Vec<String>,
    /// Profiling personality (the `--ref` flag; `nemu-trace` is the
    /// fast default — the conformance tier pins that every personality
    /// yields the identical selection).
    pub ref_model: String,
    /// Profiling interval length, instructions.
    pub interval_len: u64,
    /// Maximum SimPoint clusters (k).
    pub max_checkpoints: usize,
    /// Profiling instruction budget (panic beyond it).
    pub max_profile_insts: u64,
    /// Warm-up instruction budget per sample job.
    pub warmup: u64,
    /// Measured-window instruction budget per sample job.
    pub window: u64,
    /// Cycle budget per sample job.
    pub max_cycles: u64,
    /// LightSSS snapshot interval for sample jobs (None disables).
    pub lightsss_interval: Option<u64>,
    /// Directory for the checkpoint cache (None disables caching).
    pub checkpoint_dir: Option<PathBuf>,
    /// Worker threads.
    pub workers: usize,
    /// Triage failed sample jobs into replay bundles.
    pub triage: bool,
}

impl SampleSpec {
    /// A spec over `workloads` × `configs` with test-scale defaults:
    /// 5 k-instruction intervals, ≤ 3 checkpoints, 1 k warm-up and a
    /// full-interval window, profiling on `nemu-trace`.
    pub fn new(workloads: Vec<String>, configs: Vec<String>) -> Self {
        SampleSpec {
            workloads,
            configs,
            ref_model: "nemu-trace".into(),
            interval_len: 5_000,
            max_checkpoints: 3,
            max_profile_insts: 50_000_000,
            warmup: 1_000,
            window: 5_000,
            max_cycles: 40_000_000,
            lightsss_interval: None,
            checkpoint_dir: None,
            workers: 4,
            triage: true,
        }
    }

    /// Set the profiling personality.
    pub fn with_ref(mut self, name: impl Into<String>) -> Self {
        self.ref_model = name.into();
        self
    }

    /// Set the interval length and measurement budgets in one go:
    /// warm-up `interval/5`, window one full interval.
    pub fn with_interval(mut self, interval_len: u64) -> Self {
        self.interval_len = interval_len;
        self.warmup = (interval_len / 5).max(1);
        self.window = interval_len;
        self
    }

    /// Set the maximum checkpoint count (k).
    pub fn with_max_checkpoints(mut self, k: usize) -> Self {
        self.max_checkpoints = k.max(1);
        self
    }

    /// Set the warm-up instruction budget.
    pub fn with_warmup(mut self, warmup: u64) -> Self {
        self.warmup = warmup;
        self
    }

    /// Set the measured-window instruction budget.
    pub fn with_window(mut self, window: u64) -> Self {
        self.window = window;
        self
    }

    /// Set the per-job cycle budget.
    pub fn with_max_cycles(mut self, max_cycles: u64) -> Self {
        self.max_cycles = max_cycles;
        self
    }

    /// Enable the on-disk checkpoint cache.
    pub fn with_checkpoint_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.checkpoint_dir = Some(dir.into());
        self
    }

    /// Set the worker-thread count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }
}

/// One workload's profiled checkpoint set, ready to fan out.
struct Profiled {
    kernel: String,
    checkpoints: Vec<Arc<Checkpoint>>,
    total_instructions: u64,
    total_intervals: u64,
}

/// The cache index written next to the checkpoint blobs: everything
/// needed to validate that cached blobs answer *this* profiling recipe.
#[derive(Debug, Serialize, Deserialize)]
struct CheckpointIndex {
    kernel: String,
    ref_model: String,
    interval_len: u64,
    max_checkpoints: u64,
    total_instructions: u64,
    total_intervals: u64,
    /// Blob file names (content hashes), interval order.
    blobs: Vec<String>,
}

fn index_path(dir: &Path, spec: &SampleSpec, kernel: &str) -> PathBuf {
    dir.join(format!(
        "{kernel}-{}-i{}-k{}.index.json",
        spec.ref_model, spec.interval_len, spec.max_checkpoints
    ))
}

/// Try to satisfy one workload's profiling recipe from the cache.
/// Any mismatch — missing blob, corrupt bytes, content hash that does
/// not match the file name — silently misses (the caller re-profiles).
fn load_cached(dir: &Path, spec: &SampleSpec, kernel: &str) -> Option<Profiled> {
    let text = std::fs::read_to_string(index_path(dir, spec, kernel)).ok()?;
    let idx: CheckpointIndex = serde_json::from_str(&text).ok()?;
    if idx.kernel != kernel
        || idx.ref_model != spec.ref_model
        || idx.interval_len != spec.interval_len
        || idx.max_checkpoints != spec.max_checkpoints as u64
    {
        return None;
    }
    let mut checkpoints = Vec::with_capacity(idx.blobs.len());
    for name in &idx.blobs {
        let bytes = std::fs::read(dir.join(name)).ok()?;
        let c = Checkpoint::try_from_bytes(&bytes).ok()?;
        if format!("{}.ckpt", c.content_hash()) != *name {
            return None;
        }
        checkpoints.push(Arc::new(c));
    }
    if checkpoints.is_empty() {
        return None;
    }
    Some(Profiled {
        kernel: kernel.into(),
        checkpoints,
        total_instructions: idx.total_instructions,
        total_intervals: idx.total_intervals,
    })
}

/// Write one workload's checkpoint set into the cache. Blobs are named
/// by content hash, so identical checkpoints from different recipes
/// share storage; the index ties a recipe to its blob list.
fn store_cache(dir: &Path, spec: &SampleSpec, p: &Profiled) {
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let mut blobs = Vec::with_capacity(p.checkpoints.len());
    for c in &p.checkpoints {
        let name = format!("{}.ckpt", c.content_hash());
        let path = dir.join(&name);
        if !path.exists() {
            let _ = std::fs::write(&path, c.to_bytes());
        }
        blobs.push(name);
    }
    let idx = CheckpointIndex {
        kernel: p.kernel.clone(),
        ref_model: spec.ref_model.clone(),
        interval_len: spec.interval_len,
        max_checkpoints: spec.max_checkpoints as u64,
        total_instructions: p.total_instructions,
        total_intervals: p.total_intervals,
        blobs,
    };
    let text = serde_json::to_string_pretty(&idx).expect("index serializes");
    let _ = std::fs::write(index_path(dir, spec, p.kernel.as_str()), text);
}

/// Profile one workload (or answer it from the cache).
fn profile(spec: &SampleSpec, kernel: &str) -> Profiled {
    if let Some(dir) = &spec.checkpoint_dir {
        if let Some(p) = load_cached(dir, spec, kernel) {
            return p;
        }
    }
    let program = workloads::workload(kernel, workloads::Scale::Test).program;
    let set = generate_checkpoints_with_ref(
        &spec.ref_model,
        &program,
        spec.interval_len,
        spec.max_checkpoints,
        spec.max_profile_insts,
    );
    let p = Profiled {
        kernel: kernel.into(),
        checkpoints: set.checkpoints.into_iter().map(Arc::new).collect(),
        total_instructions: set.total_instructions,
        total_intervals: set.total_intervals,
    };
    if let Some(dir) = &spec.checkpoint_dir {
        store_cache(dir, spec, &p);
    }
    p
}

/// Run the checkpoint farm: profile, fan out, aggregate.
///
/// Job order (and therefore report order) is configuration-major, then
/// workload, then interval — deterministic for a given spec, so the
/// report body is byte-identical across runs.
///
/// # Panics
///
/// Panics on an unknown personality or kernel name, or a workload that
/// does not halt within the profiling budget.
pub fn run_sampled(spec: &SampleSpec) -> CampaignReport {
    let profiled: Vec<Profiled> = spec.workloads.iter().map(|w| profile(spec, w)).collect();

    let mut jobs = Vec::new();
    for config in &spec.configs {
        for p in &profiled {
            for c in &p.checkpoints {
                let mut j = JobSpec::new(
                    WorkloadSource::Sample {
                        kernel: p.kernel.clone(),
                        ref_model: spec.ref_model.clone(),
                        interval_len: spec.interval_len,
                        interval: c.interval as u64,
                        warmup: spec.warmup,
                        window: spec.window,
                    },
                    config.clone(),
                )
                .with_max_cycles(spec.max_cycles);
                // The farm already holds the materialized checkpoint:
                // its jobs must not re-profile to derive it.
                j.checkpoint = Some(Arc::clone(c));
                if let Some(i) = spec.lightsss_interval {
                    j = j.with_lightsss(i);
                }
                jobs.push(j);
            }
        }
    }

    let mut report = Campaign::new(jobs)
        .with_workers(spec.workers)
        .with_minimization(false)
        .with_triage(spec.triage)
        .run();

    // Aggregate in the same nested order the jobs were built in.
    let mut sampling = Vec::new();
    let mut idx = 0usize;
    for config in &spec.configs {
        for p in &profiled {
            let mut phases = Vec::new();
            let mut cpis = Vec::new();
            let mut members = Vec::new();
            for _ in &p.checkpoints {
                let rec = &report.jobs[idx];
                idx += 1;
                let Some(s) = &rec.sample else { continue };
                if s.window_instret == 0 {
                    continue;
                }
                phases.push(SamplingPhase {
                    job_index: rec.index,
                    interval: s.interval,
                    members: s.members,
                    cpi_milli: s.cpi_milli,
                });
                cpis.push(s.cpi_milli);
                members.push(s.members);
            }
            let weighted = if cpis.is_empty() {
                0
            } else {
                weighted_cpi_milli(&cpis, &members)
            };
            sampling.push(SamplingSummary {
                workload: format!("kernel:{}", p.kernel),
                config: config.clone(),
                ref_model: spec.ref_model.clone(),
                interval_len: spec.interval_len,
                total_intervals: p.total_intervals,
                total_instructions: p.total_instructions,
                checkpoints: p.checkpoints.len() as u64,
                aggregated: phases.len() as u64,
                weighted_cpi_milli: weighted,
                phases,
            });
        }
    }
    report.sampling = sampling;
    report
}
