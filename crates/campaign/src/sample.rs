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
use crate::runner::{Campaign, Policy};
use checkpoint::{blob_hash, generate_checkpoints_with_ref, weighted_cpi_milli, Checkpoint};
use serde::{Deserialize, Serialize};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// What to sample: the workload × configuration matrix, the profiling
/// and measurement knobs, the template of every sample job and the pool
/// policy.
#[derive(Debug, Clone)]
pub struct SampleSpec {
    /// Kernel names to profile and sample (see `workloads::workload`).
    pub workloads: Vec<String>,
    /// Configuration preset slugs to measure on.
    pub configs: Vec<String>,
    /// Profiling personality (the `--ref` flag; `nemu-trace` is the
    /// fast default — the conformance tier pins that every personality
    /// yields the identical selection). Sample jobs are verified against
    /// DiffTest's default REF whatever this names.
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
    /// Directory for the checkpoint cache (None disables caching).
    pub checkpoint_dir: Option<PathBuf>,
    /// The template of every sample job: a job takes its checkpoint's
    /// recipe and a preset, and carries the checkpoint itself.
    pub job: JobSpec,
    /// Workers, triage and wall-clock policy (a sample has nothing to
    /// minimize).
    pub policy: Policy,
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
            checkpoint_dir: None,
            job: JobSpec::default(),
            policy: Policy::default(),
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
        self.job.max_cycles = max_cycles;
        self
    }

    /// Enable the on-disk checkpoint cache.
    pub fn with_checkpoint_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.checkpoint_dir = Some(dir.into());
        self
    }

    /// Set the worker-thread count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.policy.workers = workers.max(1);
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

/// What the blob names and the index mean. A directory written under
/// another tag — or before there was one — is a clean miss: 2 = blobs
/// named by `checkpoint::blob_hash` of the file's bytes (1, untagged,
/// named them by a byte-serial FNV-1a).
const INDEX_FORMAT: u64 = 2;

/// The cache index written next to the checkpoint blobs: everything
/// needed to validate that cached blobs answer *this* profiling recipe.
#[derive(Debug, Serialize, Deserialize)]
struct CheckpointIndex {
    format: u64,
    kernel: String,
    ref_model: String,
    interval_len: u64,
    max_checkpoints: u64,
    total_instructions: u64,
    total_intervals: u64,
    /// Blob file names (`<blob_hash of the file's bytes>.ckpt`; not a
    /// stable interface), interval order.
    blobs: Vec<String>,
}

fn index_path(dir: &Path, spec: &SampleSpec, kernel: &str) -> PathBuf {
    dir.join(format!(
        "{kernel}-{}-i{}-k{}.index.json",
        spec.ref_model, spec.interval_len, spec.max_checkpoints
    ))
}

fn blob_name(bytes: &[u8]) -> String {
    format!("{}.ckpt", blob_hash(bytes))
}

/// Try to satisfy one workload's profiling recipe from the cache.
/// Any mismatch — another format or recipe, a missing blob, bytes that
/// do not hash to the file's name, a blob that does not parse — silently
/// misses (the caller re-profiles and stores the set again). The hash is
/// taken over the bytes as read and checked before they are parsed, so a
/// torn or corrupted file never reaches the parser. `buf` is the read
/// buffer, reused from blob to blob.
fn load_cached(dir: &Path, spec: &SampleSpec, kernel: &str, buf: &mut Vec<u8>) -> Option<Profiled> {
    let text = std::fs::read_to_string(index_path(dir, spec, kernel)).ok()?;
    let idx: CheckpointIndex = serde_json::from_str(&text).ok()?;
    if idx.format != INDEX_FORMAT
        || idx.kernel != kernel
        || idx.ref_model != spec.ref_model
        || idx.interval_len != spec.interval_len
        || idx.max_checkpoints != spec.max_checkpoints as u64
    {
        return None;
    }
    let mut checkpoints: Vec<Arc<Checkpoint>> = Vec::with_capacity(idx.blobs.len());
    for name in &idx.blobs {
        buf.clear();
        std::fs::File::open(dir.join(name)).ok()?.read_to_end(buf).ok()?;
        if blob_name(buf) != *name {
            return None;
        }
        let mut c = Checkpoint::try_from_bytes(buf).ok()?;
        // Freshly generated checkpoints are clones of one running memory
        // and share every page the program left alone in between; parsed
        // apart they would each hold a private copy.
        if let Some(prev) = checkpoints.last() {
            c.memory.share_pages_with(&prev.memory);
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

/// Put `bytes` at `path` so that a reader sees the old file or the whole
/// new one, never part of one: written under a temporary name in the same
/// directory, then renamed over the final one. Not synced — after a power
/// loss a blob is whatever the file system kept, which the hash check in
/// [`load_cached`] detects and the store that follows repairs.
fn publish(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}", std::process::id()));
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, bytes)
        .and_then(|()| std::fs::rename(&tmp, path))
        .inspect_err(|_| {
            let _ = std::fs::remove_file(&tmp);
        })
}

/// Write one workload's checkpoint set into the cache, best effort: the
/// blobs first, each serialized once into `buf` and named by the hash of
/// exactly the bytes written, then the index that ties the recipe to its
/// blob list — so an index never names a blob that was not published
/// before it. Identical checkpoints from different recipes share a name
/// and a file. A store follows a miss, so whatever already sits under a
/// name is overwritten, not trusted: that is what repairs a torn blob.
fn store_cache(dir: &Path, spec: &SampleSpec, p: &Profiled, buf: &mut Vec<u8>) {
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let mut blobs = Vec::with_capacity(p.checkpoints.len());
    for c in &p.checkpoints {
        c.to_bytes_into(buf);
        let name = blob_name(buf);
        if publish(&dir.join(&name), buf).is_err() {
            return;
        }
        blobs.push(name);
    }
    let idx = CheckpointIndex {
        format: INDEX_FORMAT,
        kernel: p.kernel.clone(),
        ref_model: spec.ref_model.clone(),
        interval_len: spec.interval_len,
        max_checkpoints: spec.max_checkpoints as u64,
        total_instructions: p.total_instructions,
        total_intervals: p.total_intervals,
        blobs,
    };
    let text = serde_json::to_string_pretty(&idx).expect("index serializes");
    let _ = publish(&index_path(dir, spec, p.kernel.as_str()), text.as_bytes());
}

/// Profile one workload (or answer it from the cache). `buf` is the
/// cache's blob buffer, one for the whole run.
fn profile(spec: &SampleSpec, kernel: &str, buf: &mut Vec<u8>) -> Profiled {
    if let Some(dir) = &spec.checkpoint_dir {
        if let Some(p) = load_cached(dir, spec, kernel, buf) {
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
        store_cache(dir, spec, &p, buf);
    }
    p
}

/// The job that measures checkpoint `c` of `kernel` on `config`: the
/// template on the checkpoint's recipe, with the checkpoint attached —
/// the farm already holds it, so its jobs must not re-profile to derive
/// it.
pub(crate) fn sample_job(
    spec: &SampleSpec,
    kernel: &str,
    config: &str,
    c: &Arc<Checkpoint>,
) -> JobSpec {
    JobSpec {
        workload: WorkloadSource::Sample {
            kernel: kernel.into(),
            ref_model: spec.ref_model.clone(),
            interval_len: spec.interval_len,
            interval: c.interval as u64,
            warmup: spec.warmup,
            window: spec.window,
        },
        config: config.into(),
        checkpoint: Some(Arc::clone(c)),
        ..spec.job.clone()
    }
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
    let profiled: Vec<Profiled> = {
        let mut buf = Vec::new();
        spec.workloads.iter().map(|w| profile(spec, w, &mut buf)).collect()
    };

    let mut jobs = Vec::new();
    for config in &spec.configs {
        for p in &profiled {
            for c in &p.checkpoints {
                jobs.push(sample_job(spec, &p.kernel, config, c));
            }
        }
    }

    let mut report = Campaign {
        jobs,
        policy: spec.policy,
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::time::SystemTime;

    /// A checkpoint directory private to one test, removed on drop.
    struct CacheDir(PathBuf);

    impl CacheDir {
        fn new(test: &str) -> Self {
            let dir = std::env::temp_dir().join(format!("sample-cache-{test}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            CacheDir(dir)
        }

        /// Every file in the directory: name → (length, modification time).
        fn files(&self) -> BTreeMap<String, (u64, SystemTime)> {
            let entries = std::fs::read_dir(&self.0).expect("the cold run made the directory");
            entries
                .map(|e| {
                    let e = e.expect("directory entry");
                    let meta = e.metadata().expect("metadata");
                    let name = e.file_name().into_string().expect("utf-8 name");
                    (name, (meta.len(), meta.modified().expect("mtime")))
                })
                .collect()
        }

        fn blobs(&self) -> Vec<String> {
            self.files().into_keys().filter(|n| n.ends_with(".ckpt")).collect()
        }
    }

    impl Drop for CacheDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn spec(kernel: &str, dir: &CacheDir) -> SampleSpec {
        SampleSpec::new(vec![kernel.into()], vec![]).with_checkpoint_dir(&dir.0)
    }

    fn set_bytes(p: &Profiled) -> Vec<Vec<u8>> {
        p.checkpoints.iter().map(|c| c.to_bytes()).collect()
    }

    #[test]
    fn a_warm_run_hits_and_rewrites_nothing() {
        let dir = CacheDir::new("warm");
        let spec = spec("sjeng", &dir);
        let mut buf = Vec::new();
        let cold = profile(&spec, "sjeng", &mut buf);
        let stored = dir.files();
        assert_eq!(stored.len(), cold.checkpoints.len() + 1, "blobs + index: {stored:?}");
        for blob in dir.blobs() {
            let bytes = std::fs::read(dir.0.join(&blob)).unwrap();
            assert_eq!(blob, blob_name(&bytes), "a blob is named by its file's bytes");
            assert!(Checkpoint::try_from_bytes(&bytes).is_ok(), "and stands alone");
        }

        let hit = load_cached(&dir.0, &spec, "sjeng", &mut buf).expect("the stored set is a hit");
        assert_eq!(set_bytes(&hit), set_bytes(&cold));
        assert_eq!(
            (hit.total_instructions, hit.total_intervals),
            (cold.total_instructions, cold.total_intervals)
        );
        let warm = profile(&spec, "sjeng", &mut buf);
        assert_eq!(set_bytes(&warm), set_bytes(&cold));
        assert_eq!(dir.files(), stored, "a warm run writes nothing");

        // Another recipe on the same directory is its own index.
        let other = spec.clone().with_interval(4_000);
        assert!(load_cached(&dir.0, &other, "sjeng", &mut buf).is_none());
    }

    #[test]
    fn a_torn_blob_is_a_miss_that_the_same_run_repairs() {
        let dir = CacheDir::new("torn");
        let spec = spec("sjeng", &dir);
        let mut buf = Vec::new();
        let cold = profile(&spec, "sjeng", &mut buf);
        let stored = dir.files();
        let victim = dir.0.join(&dir.blobs()[1]);
        let whole = std::fs::read(&victim).unwrap();

        // Cut short (a run killed mid-write, before blobs were renamed
        // into place), one bit flipped, grown: all under the valid name.
        let damaged = [
            whole[..whole.len() / 2].to_vec(),
            whole[..whole.len() - 1].to_vec(),
            {
                let mut flipped = whole.clone();
                *flipped.last_mut().unwrap() ^= 0x10;
                flipped
            },
            [&whole[..], &[0]].concat(),
            Vec::new(),
        ];
        for bytes in damaged {
            std::fs::write(&victim, &bytes).unwrap();
            assert!(load_cached(&dir.0, &spec, "sjeng", &mut buf).is_none(), "{} bytes", bytes.len());
            let repaired = profile(&spec, "sjeng", &mut buf);
            assert_eq!(set_bytes(&repaired), set_bytes(&cold));
            assert_eq!(std::fs::read(&victim).unwrap(), whole, "the miss's store repaired it");
            assert!(load_cached(&dir.0, &spec, "sjeng", &mut buf).is_some(), "the next run hits");
        }
        let names = |files: BTreeMap<String, _>| files.into_keys().collect::<Vec<_>>();
        assert_eq!(names(dir.files()), names(stored), "no temporary file is left behind");

        // A missing blob is the same miss.
        std::fs::remove_file(&victim).unwrap();
        assert!(load_cached(&dir.0, &spec, "sjeng", &mut buf).is_none());
    }

    #[test]
    fn an_index_of_another_format_is_a_miss() {
        let dir = CacheDir::new("format");
        let spec = spec("sjeng", &dir);
        let mut buf = Vec::new();
        profile(&spec, "sjeng", &mut buf);
        let index = index_path(&dir.0, &spec, "sjeng");
        let current = std::fs::read_to_string(&index).unwrap();
        let tag = format!("\"format\": {INDEX_FORMAT},");
        assert!(current.contains(&tag), "{current}");
        // What PR 17 wrote (no tag at all), and a tag from the future.
        for other in ["", "\"format\": 1,", "\"format\": 3,"] {
            std::fs::write(&index, current.replace(&tag, other)).unwrap();
            assert!(load_cached(&dir.0, &spec, "sjeng", &mut buf).is_none(), "{other:?}");
        }
        std::fs::write(&index, &current[..current.len() / 2]).unwrap();
        assert!(load_cached(&dir.0, &spec, "sjeng", &mut buf).is_none(), "a torn index");
        std::fs::write(&index, &current).unwrap();
        assert!(load_cached(&dir.0, &spec, "sjeng", &mut buf).is_some());
    }

    #[test]
    fn a_loaded_set_shares_the_pages_its_checkpoints_have_in_common() {
        // `gcc` at the sample-flow knobs: 8 checkpoints of ≈ 610 pages
        // each, most of which the program leaves alone in between.
        let dir = CacheDir::new("share");
        let spec = spec("gcc", &dir).with_interval(2_000).with_max_checkpoints(8);
        let mut buf = Vec::new();
        let cold = profile(&spec, "gcc", &mut buf);
        let loaded = load_cached(&dir.0, &spec, "gcc", &mut buf).expect("hit");
        let pages = |p: &Profiled, count: fn(&riscv_isa::mem::SparseMemory) -> usize| {
            p.checkpoints.iter().map(|c| count(&c.memory)).sum::<usize>()
        };
        let resident = pages(&loaded, |m| m.resident_pages());
        let shared = pages(&loaded, |m| m.shared_pages());
        assert_eq!(resident, pages(&cold, |m| m.resident_pages()));
        assert!(loaded.checkpoints.len() > 1 && resident > 1_000, "{resident} pages");
        assert!(shared * 10 >= resident * 6, "{shared} of {resident} pages shared");
    }
}
