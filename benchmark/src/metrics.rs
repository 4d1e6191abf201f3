//! Metric tables (kept in step with `BENCHMARK.json`; `--check` compares
//! them), the pass record every workload produces, and small statistics.

use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::time::Instant;

/// `(name, unit)` of every end-to-end metric; each workload reports all.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("sim_mips", "Minstr/s"),
    ("peak_rss_mb", "MiB"),
];

/// `(name, unit)` of every per-layer metric. A workload reports 0 for a
/// layer it does not exercise.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace_overhead_pct", "%"),
    ("trace_sample_k", "count"),
    // co-simulation workloads
    ("minjie.cosim_kcps", "kcycle/s"),
    ("minjie.cosim_lightsss_kcps", "kcycle/s"),
    ("xscore.sim_cpi_milli", "permille"),
    ("xscore.core_tick_ns_per_cycle", "ns"),
    ("xscore.core_tick_share", "%"),
    ("uncore.tick_ns_per_cycle", "ns"),
    ("uncore.tick_share", "%"),
    ("xscore.skip_ratio_milli", "permille"),
    ("xscore.ticks", "count"),
    ("minjie.difftest_ns_per_commit", "ns"),
    ("minjie.difftest_share", "%"),
    ("nemu.ref_step_ns_per_commit", "ns"),
    ("minjie.checker_ns_per_commit", "ns"),
    ("minjie.commits_checked", "count"),
    ("minjie.rule_triggers", "count"),
    ("minjie.cosim_over_dut_pct", "%"),
    ("minjie.lightsss_snapshot_us", "us"),
    ("minjie.lightsss_snapshot_max_us", "us"),
    ("minjie.lightsss_snapshots", "count"),
    ("minjie.lightsss_share", "%"),
    ("minjie.lightsss_tax_pct", "%"),
    ("minjie.telemetry_tax_pct", "%"),
    ("xscore.lifecycle_tax_pct", "%"),
    ("minjie.coverage_tax_pct", "%"),
    ("minjie.cosim_boot_us", "us"),
    ("xscore.system_boot_us", "us"),
    ("xscore.cpi_stack.retired_milli", "permille"),
    ("xscore.cpi_stack.frontend_starved_milli", "permille"),
    ("xscore.cpi_stack.mispredict_recovery_milli", "permille"),
    ("xscore.cpi_stack.memory_stall_milli", "permille"),
    ("xscore.cpi_stack.rob_full_milli", "permille"),
    ("xscore.cpi_stack.iq_full_milli", "permille"),
    ("xscore.cpi_stack.serialization_milli", "permille"),
    ("xscore.cpi_stack.other_milli", "permille"),
    ("uncore.l1d_miss_per_kinst", "1/kinstr"),
    ("uncore.l2_miss_per_kinst", "1/kinstr"),
    ("uncore.l3_miss_per_kinst", "1/kinstr"),
    ("uncore.dram_accesses", "count"),
    // ref-interp
    ("nemu.ref_run_mips", "Minstr/s"),
    ("nemu.ref_step_mips", "Minstr/s"),
    ("checkpoint.profile_mips", "Minstr/s"),
    ("nemu.run_mips.dromajo-like", "Minstr/s"),
    ("nemu.run_mips.qemu-tci-like", "Minstr/s"),
    ("nemu.run_mips.spike-like", "Minstr/s"),
    ("nemu.run_mips.nemu", "Minstr/s"),
    ("nemu.run_mips.nemu-trace", "Minstr/s"),
    ("nemu.step_mips.arch", "Minstr/s"),
    ("nemu.step_mips.nemu", "Minstr/s"),
    ("nemu.step_mips.nemu-trace", "Minstr/s"),
    ("nemu.hart_step_mips", "Minstr/s"),
    ("nemu.step_over_run_milli.nemu", "permille"),
    ("nemu.step_over_run_milli.nemu-trace", "permille"),
    ("nemu.boot_us", "us"),
    ("riscv-isa.decode_ns", "ns"),
    ("riscv-isa.mem_clone_us", "us"),
    ("checkpoint.bbv_record_ns", "ns"),
    ("checkpoint.cluster_ms", "ms"),
    ("checkpoint.blob_roundtrip_us", "us"),
    ("checkpoint.blob_bytes", "count"),
    // campaign-mix
    ("campaign.jobs_per_s", "1/s"),
    ("workloads.torture_build_us", "us"),
    ("workloads.litmus_build_us", "us"),
    ("workloads.kernel_build_us", "us"),
    ("campaign.job_boot_us", "us"),
    ("campaign.job_run_us", "us"),
    ("campaign.job_overhead_us", "us"),
    ("campaign.serialize_ms", "ms"),
    ("campaign.report_bytes", "count"),
    ("campaign.minimize_ms_per_failure", "ms"),
    ("campaign.triage_ms_per_failure", "ms"),
    ("campaign.worker_scaling_milli", "permille"),
    // sample-flow
    ("campaign.sample_cold_s", "s"),
    ("campaign.sample_warm_s", "s"),
    ("campaign.sample_profile_ms", "ms"),
    ("campaign.sample_materialize_ms", "ms"),
    ("campaign.sample_cache_load_ms", "ms"),
    ("campaign.sample_simulate_ms", "ms"),
    ("campaign.sample_jobs", "count"),
    ("checkpoint.cpi_err_milli.small-nh", "permille"),
    ("checkpoint.cpi_err_milli.small-yqh", "permille"),
    ("checkpoint.sampled_cpi_err_milli", "permille"),
];

/// Per-layer metric values of one traced run.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn listed(name: &str) -> bool {
        PER_LAYER.iter().any(|(n, _)| *n == name)
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let (listed, _) = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not in the per-layer table"));
        self.0.insert(listed, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// A metric a workload measures natively in every pass (the median over
/// passes is printed by name; per-layer tables pick some of them up).
#[derive(Debug, Clone)]
pub struct Leg {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// One closed-loop pass over a workload's fixed operation list.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Host seconds of every timed region, in an order that is the same
    /// in every pass of a run (checks run outside them).
    pub op_secs: Vec<f64>,
    /// The same regions in seconds at the reference host speed (`Host`).
    pub op_norm_secs: Vec<f64>,
    /// Instructions simulated inside timed regions.
    pub instr: u64,
    /// Operations (simulations) attempted.
    pub ops: u64,
    /// One line per failed operation.
    pub failures: Vec<String>,
    pub legs: Vec<Leg>,
    /// Exact simulated statistics, by name.
    pub exact: Vec<(&'static str, u64)>,
    /// Hash of every deterministic count the pass produced.
    pub digest: u64,
}

impl Pass {
    /// Run one timed region of the pass: `f` returns its result and the
    /// host seconds it timed, which are recorded as they are and at the
    /// reference host speed.
    pub fn op<R>(&mut self, host: &mut Host, f: impl FnOnce() -> (R, f64)) -> (R, f64) {
        let ((r, secs), to_reference) = host.around(f);
        self.op_secs.push(secs);
        self.op_norm_secs.push(secs * to_reference);
        (r, secs)
    }

    /// Host seconds inside timed regions.
    pub fn secs(&self) -> f64 {
        self.op_secs.iter().sum()
    }
}

/// The speed of the host while the benchmark runs, from a calibration
/// loop of the benchmark's own (fixed work, none of the repository's
/// code) run right before and right after every timed region.
///
/// The sandbox is a few cores of a shared host whose speed moves by
/// ±8 % over minutes and, in spells of up to several minutes, drops by
/// half; the steal counter stays at zero and CPU time stretches with wall
/// time, so no clock inside the guest removes it, and a spell outlasts a
/// run, so no statistic over one run's passes does either. The
/// calibration loop slows by the same factor (measured: README, "Host
/// speed"), so a region's seconds times `REFERENCE_SLICE_S` ÷ the slices
/// around it are its seconds on a host running at the reference speed.
pub struct Host {
    table: Vec<u32>,
    threads: usize,
    /// When the latest slice ended.
    latest: Instant,
    /// Every slice so far, seconds.
    pub slices: Vec<f64>,
}

/// What one calibration slice takes on this class of box when it is quiet.
/// A constant of the benchmark: it only fixes the scale of the normalised
/// figures (they equal the raw ones on a quiet box).
pub const REFERENCE_SLICE_S: f64 = 0.012;
const SLICE_STEPS: u32 = 1_000_000;
/// The slice after one region also serves as the slice before the next
/// when no more than this lies between them (output checks do).
const SLICE_REUSE_S: f64 = 0.05;

impl Host {
    /// `threads`: how many threads the timed regions keep busy; the
    /// calibration loop runs on as many at once, because a second busy
    /// core can slow the first.
    pub fn new(threads: usize) -> Self {
        let mut rng = Rng(0x4d49_4e4a_4945);
        Host {
            table: (0..1 << 16).map(|_| rng.next() as u32).collect(),
            threads,
            latest: Instant::now(),
            slices: Vec::new(),
        }
    }

    /// Seconds one slice took (the mean over the threads).
    fn slice(&mut self) -> f64 {
        let table = &self.table;
        let total: f64 = std::thread::scope(|s| {
            let others: Vec<_> = (1..self.threads)
                .map(|_| s.spawn(|| calibration_slice(table)))
                .collect();
            let mine = calibration_slice(table);
            others
                .into_iter()
                .map(|t| t.join().expect("the calibration loop does not panic"))
                .sum::<f64>()
                + mine
        });
        let secs = total / self.threads as f64;
        self.latest = Instant::now();
        self.slices.push(secs);
        secs
    }

    /// Run `f` between two calibration slices. Returns its result and the
    /// factor that turns host seconds spent inside it into seconds at the
    /// reference host speed.
    pub fn around<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64) {
        let before = match self.slices.last() {
            Some(&latest) if self.latest.elapsed().as_secs_f64() < SLICE_REUSE_S => latest,
            _ => self.slice(),
        };
        let r = f();
        let after = self.slice();
        (r, REFERENCE_SLICE_S / ((before + after) / 2.0))
    }
}

/// A small interpreter-like loop: a xorshift-indexed load from a 256 KiB
/// table, an eight-way data-dependent branch, integer arithmetic. Like
/// the simulators it is branchy and cache-resident, so host frequency and
/// a busy sibling thread slow both alike.
fn calibration_slice(table: &[u32]) -> f64 {
    let mask = table.len() - 1;
    let t0 = Instant::now();
    let mut x = 88_172_645_463_325_252u64;
    let mut acc = 0u64;
    for _ in 0..SLICE_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let op = table[x as usize & mask];
        match op & 7 {
            0 => acc = acc.wrapping_add(u64::from(op)),
            1 => acc ^= u64::from(op) << 3,
            2 => acc = acc.wrapping_mul(6_364_136_223_846_793_005),
            3 => acc = acc.rotate_left(op & 31),
            4 => x = x.wrapping_add(acc | 1),
            5 => acc = acc.wrapping_sub(x >> 5),
            6 => acc ^= u64::from(table[acc as usize & mask]),
            _ => acc /= u64::from(op) | 1,
        }
    }
    std::hint::black_box(acc);
    t0.elapsed().as_secs_f64()
}

/// What every workload implements. Building one is the workload's set-up.
pub trait Workload {
    /// One pass. Without a tracer it goes through the top-level entry
    /// points only; with one, the same operations are wrapped in spans
    /// (and, where a loop is re-driven through per-layer calls, must
    /// produce the same simulated outcome).
    fn pass(&mut self, host: &mut Host, tr: Option<&mut Tracer>) -> Pass;
    /// Per-layer metrics: from the spans of the traced passes, from the
    /// untraced passes of the same run, and from single-layer
    /// measurements made here. `overhead_pct` is the tracing overhead
    /// the caller measured.
    fn layers(&mut self, tr: &mut Tracer, untraced: &[Pass], overhead_pct: f64, out: &mut Layers);
}

/// FNV-1a over the deterministic counts of a pass.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// SplitMix64: the benchmark's only source of seeded randomness.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, (self.next() % (i as u64 + 1)) as usize);
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Seconds of one pass at the reference host speed: every timed region
/// at the median of its own samples over `passes`, summed. A burst of
/// contention the calibration missed moves only the samples it hit, not
/// a whole pass.
pub fn normalised_pass_secs(passes: &[Pass]) -> f64 {
    (0..passes[0].op_norm_secs.len())
        .map(|op| {
            let samples: Vec<f64> = passes.iter().map(|p| p.op_norm_secs[op]).collect();
            median(&samples)
        })
        .sum()
}

/// The highest percentile that still has ten samples beyond it, with its
/// value; `None` below 20 samples (it would not be above the median).
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 20 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some((100.0 * (n - 10) as f64 / n as f64, v[n - 11]))
}

/// Median of the named leg over passes.
pub fn leg_median(passes: &[Pass], name: &str) -> f64 {
    let values: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.legs.iter().filter(|l| l.name == name).map(|l| l.value))
        .collect();
    median(&values)
}

pub fn exact(pass: &Pass, name: &str) -> u64 {
    pass.exact
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0, |(_, v)| *v)
}

/// `(a / b - 1) × 100`.
pub fn pct_over(a: f64, b: f64) -> f64 {
    (a / b.max(f64::MIN_POSITIVE) - 1.0) * 100.0
}

/// Peak resident set (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
