//! The tracked body of the paper's reproduced results: `BENCH_paper.json`.
//!
//! The file is a pure function of the sources. Every reproduced result
//! that is a *simulated* count has a section — Fig. 8, Fig. 12, Figs. 14
//! and 15, the ablations, the Table I / Fig. 6 snapshot legs, the DRAV
//! rule count — and every cycle-model number in them comes from
//! [`minjie::run_isolated`], DiffTest on.
//! Sections hold integers: counts, and beside them the figures derived
//! from those counts (`ipc_milli`, `*_geomean_ipc_milli`, `*_ppm`,
//! `*_permille`), which [`load`] recomputes. A speed is printed by the
//! `paper` harness and never stored (speeds over time live under
//! `benchmark/`), so the harness regenerates the file byte for byte and
//! `scripts/ci.sh` fails when it differs from the committed one.
//!
//! [`PaperBody`] is the format: what [`PaperBody::to_json`] writes,
//! [`load`] reads back, and nothing else is accepted — a file that is not
//! exactly the text its own parsed body serializes to (an unknown key
//! such as a smuggled `timing` section, a reordered or hand-indented
//! line) is refused with the first line that differs.

use crate::geomean;
use minjie::{csr_field_rules, CoSim, CoSimEnd, RunStats, Snapshotable};
use nemu::registry::PERSONALITIES;
use nemu::Interpreter;
use riscv_isa::asm::Program;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use workloads::{all_workloads, workload, Scale, Workload, WorkloadClass};
use xscore::{MemoryModel::FixedAmat, XsConfig};

/// Version stamp of the layout; bump on any structural change.
///
/// v6: one body for the paper — v5's Fig. 8 body is the `fig8` section,
/// beside `fig12`, `fig14`, `fig15`, `ablation`, `snapshots`, `drav`.
pub const SCHEMA_VERSION: u64 = 6;

/// The workload whose sampled-vs-full CPI error Fig. 8's section tracks,
/// whose checkpoints Figs. 14 and 15 measure, and which the interpreter
/// cache sweeps run.
pub const SAMPLED_WORKLOAD: &str = "sjeng";

/// Maximum tolerated sampled-vs-full CPI error, per mille (25%): the
/// paper reports ~3% SimPoint error at production interval sizes; the
/// test-scale intervals here are far coarser, so the gate is loose —
/// but a regression that breaks checkpoint restore or weighting blows
/// well past it.
pub const SAMPLED_ERR_BOUND_MILLI: u64 = 250;

/// Cycle-model presets the `fig8` section tracks, sorted.
pub const CYCLE_PRESETS: [&str; 2] = ["small-nh", "small-yqh"];

/// A configuration's constructor.
type Preset = fn() -> XsConfig;
/// A switch that turns one feature off.
type Ablate = fn(&mut XsConfig);

/// The paper's Fig. 12 series, sorted ([`Fig12::derive`] reads them by
/// position).
const FIG12_CONFIGS: [(&str, Preset); 5] = [
    ("NH-2MBLLC-FPGA-250C-AMAT", || XsConfig::nh().with_llc_mb(2).with_memory(FixedAmat(250))),
    ("NH-4MBLLC-FPGA-250C-AMAT", || XsConfig::nh().with_llc_mb(4).with_memory(FixedAmat(250))),
    // 6 MB LLC, the tape-out configuration.
    ("NH-DDR4-2400", XsConfig::nh),
    // The chip / RTL-simulation configuration.
    ("YQH-DDR4-1600", XsConfig::yqh),
    ("YQH-FPGA-90C-AMAT", || XsConfig::yqh().with_memory(FixedAmat(90))),
];

/// NH features the ablation switches off one at a time, sorted.
const ABLATED_FEATURES: [(&str, Ablate); 3] = [
    ("fusion", |c| c.fusion = false),
    ("ittage", |c| c.ittage = false),
    ("move_elimination", |c| c.move_elimination = false),
];

/// Spike-like decode-cache sizes swept (§III-D2: "from 1024 to 32768").
pub const DECODE_CACHE_SIZES: [usize; 4] = [1024, 4096, 16384, 32768];
/// NEMU uop-cache capacities swept.
pub const UOP_CACHE_CAPACITIES: [usize; 3] = [256, 1024, 16384];

/// Table I / Fig. 6: presets × kernels (Bench scale) × snapshot
/// intervals (cycles). A cache-resident kernel cannot test the figure's
/// claim — there is almost nothing to copy — so it runs beside two
/// DRAM-bound ones whose live state is megabytes of dirty cache.
pub const FIG6_PRESETS: [&str; 3] = ["small-nh", "nh", "yqh"];
pub const FIG6_KERNELS: [&str; 3] = ["sjeng", "mcf", "lbm"];
pub const FIG6_INTERVALS: [u64; 4] = [2_000, 10_000, 60_000, 200_000];
/// Length of each such co-simulation, cycles (or the budget, if less).
pub const FIG6_CYCLES: u64 = 1_000_000;

/// Passes over the suite per personality, each on a fresh engine (the
/// committed totals are three passes' worth).
const SUITE_REPS: u64 = 3;

/// How much of each experiment [`measure`] runs.
#[derive(Debug, Clone, Copy)]
pub struct Budgets {
    /// Step budget of each interpreter run.
    pub fuel: u64,
    /// Cycle budget of each cycle-model run.
    pub max_cycles: u64,
    /// Input scale of the Fig. 12 suite.
    pub fig12_scale: Scale,
    /// Input scale of [`SAMPLED_WORKLOAD`] in Figs. 14/15 and the sweeps.
    pub sjeng_scale: Scale,
    /// Profiling interval of the Fig. 14/15 checkpoints, instructions;
    /// each is run for a sixth of it as warm-up, then a third as window.
    pub interval_len: u64,
}

impl Budgets {
    /// The tracked file's; every run halts inside these. Fig. 12 needs
    /// Bench scale: at Test scale the working sets fit any LLC, so 4 MB
    /// vs 2 MB reads +0.0 % and NH sits below YQH.
    pub const TRACKED: Budgets = Budgets {
        fuel: 200_000_000,
        max_cycles: 100_000_000,
        fig12_scale: Scale::Bench,
        sjeng_scale: Scale::Ref,
        interval_len: 300_000,
    };

    /// Every section and code path in seconds of a debug build: most runs
    /// are cut short by their budgets, so the numbers mean nothing.
    pub const SMOKE: Budgets = Budgets {
        fuel: 300_000,
        max_cycles: 6_000,
        fig12_scale: Scale::Test,
        sjeng_scale: Scale::Test,
        interval_len: 3_000,
    };
}

/// What one cycle-model run, window, or sum of runs did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Counts {
    pub cycles: u64,
    pub instret: u64,
    /// `instret · 1000 / cycles`, rounded down.
    pub ipc_milli: u64,
}

impl Counts {
    fn of(cycles: u64, instret: u64) -> Self {
        let ipc_milli = instret.saturating_mul(1000) / cycles.max(1);
        Counts { cycles, instret, ipc_milli }
    }

    fn total(runs: &[RunStats]) -> Self {
        let sum = |of: fn(&RunStats) -> u64| runs.iter().map(of).sum();
        Counts::of(sum(|r| r.cycles), sum(|r| r.instret))
    }

    fn derive(&mut self) {
        *self = Counts::of(self.cycles, self.instret);
    }

    /// This IPC over `base`'s, as the two sides of one ratio.
    fn ipc_over(&self, base: &Counts) -> (u64, u64) {
        (self.instret.saturating_mul(base.cycles), self.cycles.saturating_mul(base.instret))
    }
}

/// The geometric-mean IPC change the ratios stand for, parts per million.
fn delta_ppm(ratios: &[(u64, u64)]) -> i64 {
    geomean(ratios, 1_000_000) as i64 - 1_000_000
}

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
    pub cycles: u64,
    pub instret: u64,
    /// Suite CPI scaled by 1000, rounded down.
    pub cpi_milli: u64,
    /// Checkpoint-farm weighted CPI×1000 estimate of [`SAMPLED_WORKLOAD`],
    /// and its per-mille error against the full simulation.
    pub sampled_cpi_milli: u64,
    pub sampled_cpi_err_milli: u64,
}

/// Fig. 8: what the interpreter shootout and the small presets did.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig8 {
    /// The suite and its scale.
    pub workload: String,
    /// Per-workload step budget the personalities ran under.
    pub fuel: u64,
    /// By [`nemu::registry`] name.
    pub personalities: BTreeMap<String, PersonalityEntry>,
    /// By preset slug ([`CYCLE_PRESETS`]).
    pub cycle_model: BTreeMap<String, CycleModelEntry>,
}

/// One Fig. 12 series: every kernel from reset to halt, by class and
/// name, and each class's geometric-mean IPC × 1000 (the paper's
/// score/GHz is proportional to IPC).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Fig12Config {
    pub int: BTreeMap<String, Counts>,
    pub fp: BTreeMap<String, Counts>,
    pub int_geomean_ipc_milli: u64,
    pub fp_geomean_ipc_milli: u64,
}

/// Fig. 12: the suite across generations, memory models and LLC sizes.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Fig12 {
    /// The suite and its scale.
    pub workload: String,
    /// Commits DiffTest verified over all the runs.
    pub commits_checked: u64,
    /// By series name.
    pub configs: BTreeMap<String, Fig12Config>,
    /// Geomean IPC of NH with a 4 MB LLC over a 2 MB one (paper: +8.9 %
    /// int, +5.4 % fp).
    pub llc_4mb_over_2mb_int_ppm: i64,
    pub llc_4mb_over_2mb_fp_ppm: i64,
    /// Geomean IPC over all kernels of NH-DDR4-2400 over YQH-DDR4-1600
    /// (paper: 10.06 vs 7.67 per GHz, +31 %).
    pub nh_over_yqh_ppm: i64,
}

/// One `sjeng` checkpoint: the profiling interval it stands at, its
/// detail window under AGE and under AGE+PUBS, and the window IPC of the
/// second over the first.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PubsCheckpoint {
    pub interval: u64,
    pub age: Counts,
    pub pubs: Counts,
    pub delta_ppm: i64,
}

/// Fig. 14: the IPC change PUBS makes (the paper's negative result).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Fig14 {
    /// The kernel and its scale; the profiling interval, warm-up and
    /// detail window of each run, in instructions.
    pub workload: String,
    pub interval_len: u64,
    pub warmup: u64,
    pub window: u64,
    /// Checkpoints whose window retired in full under both policies.
    pub checkpoints: Vec<PubsCheckpoint>,
    /// Intervals of those whose window did not: the program ended first
    /// ([`minjie::SampleWindowStats::completed`] false).
    pub skipped: Vec<u64>,
    /// Geometric mean of the checkpoints' IPC ratios.
    pub mean_delta_ppm: i64,
}

/// Fig. 15 and §IV-D2, why PUBS cannot help: counters of the Fig. 14
/// runs (warm-up and window) summed over the checkpoints.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Fig15 {
    /// Cycles with `i` instructions ready in the ALU issue queues under
    /// AGE (bucket 15 is ≥ 15), and the share with more than two (paper:
    /// 12.8 %).
    pub ready_hist: [u64; 16],
    pub gt2_ready_permille: u64,
    /// Instructions dispatched under AGE+PUBS, those marked high
    /// priority, and their share (paper: 5.9 %).
    pub dispatched: u64,
    pub high_priority_dispatched: u64,
    pub high_priority_permille: u64,
}

/// The suite's totals on NH with one feature off, and its IPC over full
/// NH's.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureOff {
    pub suite: Counts,
    pub delta_ppm: i64,
}

/// One Spike-like run with a `size`-entry decode cache.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecodeCacheLeg {
    pub size: u64,
    pub instructions: u64,
    pub hits: u64,
    pub misses: u64,
}

/// One NEMU run with a `capacity`-uop cache: uops decoded into it, and
/// whole-cache flushes on overflow.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UopCacheLeg {
    pub capacity: u64,
    pub instructions: u64,
    pub fills: u64,
    pub flushes: u64,
}

/// The ablations DESIGN.md calls out.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Ablation {
    /// The suite and its scale.
    pub workload: String,
    /// Suite totals on full NH.
    pub nh: Counts,
    /// By feature switched off.
    pub without: BTreeMap<String, FeatureOff>,
    /// [`SAMPLED_WORKLOAD`] (as in `fig14.workload`) over
    /// [`DECODE_CACHE_SIZES`] and [`UOP_CACHE_CAPACITIES`].
    pub decode_cache: Vec<DecodeCacheLeg>,
    pub uop_cache: Vec<UopCacheLeg>,
}

/// One Table I / Fig. 6 leg: `cycles` of `kernel` co-simulated on
/// `preset` with LightSSS at `interval` — the snapshots it took, and the
/// bytes an eager (SSS) serialization of the final state takes. (What
/// either costs is printed by the harness.)
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SnapshotLeg {
    pub preset: String,
    pub kernel: String,
    pub interval: u64,
    pub cycles: u64,
    pub snapshots: u64,
    pub state_bytes: u64,
}

/// DiffTest / DRAV infrastructure counts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Drav {
    /// Field-level rules in the standard CSR table (paper: "at least 120").
    pub csr_field_rules: u64,
}

/// Everything `BENCH_paper.json` holds: [`SCHEMA_VERSION`] and a section
/// per figure or table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PaperBody {
    pub schema_version: u64,
    pub fig8: Fig8,
    pub fig12: Fig12,
    pub fig14: Fig14,
    pub fig15: Fig15,
    pub ablation: Ablation,
    /// [`FIG6_PRESETS`] × [`FIG6_KERNELS`] × [`FIG6_INTERVALS`].
    pub snapshots: Vec<SnapshotLeg>,
    pub drav: Drav,
}

/// Run `job(0..n)` on `threads` scoped threads and return the results by
/// index, so nothing downstream depends on the thread count.
fn fan_out<T: Send>(n: usize, threads: usize, job: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let next = AtomicUsize::new(0);
    // Relaxed: the counter hands out indices and publishes nothing else.
    let claim = || Some(next.fetch_add(1, Ordering::Relaxed)).filter(|&i| i < n);
    let worker = || std::iter::from_fn(claim).map(|i| (i, job(i))).collect::<Vec<_>>();
    let mut done: Vec<(usize, T)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads.max(1)).map(|_| s.spawn(worker)).collect();
        let join = |w: std::thread::ScopedJoinHandle<_>| w.join().expect("a measured run panicked");
        workers.into_iter().flat_map(join).collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, result)| result).collect()
}

/// A finished isolated run. A number measured past a simulator panic or
/// a DiffTest divergence is not a result, so either ends the measurement.
fn verified(what: &str, run: Result<RunStats, String>) -> RunStats {
    let stats = run.unwrap_or_else(|e| panic!("cycle model panicked on {what}: {e}"));
    if let CoSimEnd::Bug(bug) = &stats.end {
        panic!("DiffTest diverged on {what}: {:?}", bug.error);
    }
    stats
}

/// Every kernel of `suite` on every one of `configs`, from reset under
/// DiffTest: a row of runs per configuration, in suite order.
fn matrix(configs: &[XsConfig], suite: &[Workload], b: &Budgets, threads: usize) -> Vec<Vec<RunStats>> {
    let mut runs = fan_out(configs.len() * suite.len(), threads, |i| {
        let (cfg, w) = (configs[i / suite.len()].clone(), &suite[i % suite.len()]);
        let boot = Box::new(|| minjie::CoSim::new(cfg, &w.program));
        verified(w.name, minjie::run_isolated(boot, None, b.max_cycles, None))
    })
    .into_iter();
    configs.iter().map(|_| runs.by_ref().take(suite.len()).collect()).collect()
}

fn suite_label(scale: Scale) -> String {
    format!("spec-like-suite@{scale:?}")
}

fn measure_fig8(b: &Budgets, threads: usize) -> Fig8 {
    let suite = all_workloads(Scale::Test);
    let personalities = PERSONALITIES.iter().map(|p| {
        let passes = (0..SUITE_REPS).flat_map(|_| &suite);
        let entry = PersonalityEntry {
            paper_counterpart: p.paper_counterpart.to_string(),
            instructions: passes.map(|w| (p.build)(&w.program).run(b.fuel).instructions).sum(),
        };
        (p.name.to_string(), entry)
    });

    // The checkpoint-farm accuracy tier: one sampled pass over
    // SAMPLED_WORKLOAD for every tracked preset (the workload is
    // profiled once, shared across presets), read against the full
    // simulation of the same workload below.
    let presets = CYCLE_PRESETS.iter().map(|s| s.to_string()).collect();
    let mut spec = campaign::SampleSpec::new(vec![SAMPLED_WORKLOAD.into()], presets)
        .with_max_cycles(b.max_cycles);
    spec.policy.triage = false;
    let sampled = campaign::run_sampled(&spec).sampling;

    let configs = CYCLE_PRESETS.map(|p| XsConfig::preset(p).expect("tracked preset exists"));
    let rows = matrix(&configs, &suite, b, threads);
    let at = suite.iter().position(|w| w.name == SAMPLED_WORKLOAD);
    let at = at.expect("the suite holds the sampled workload");
    let cycle_model = CYCLE_PRESETS.iter().zip(&rows).map(|(&preset, row)| {
        let Counts { cycles, instret, .. } = Counts::total(row);
        let full = row[at].cycles.saturating_mul(1000) / row[at].instret.max(1);
        let sm = sampled.iter().find(|s| s.config == preset);
        let estimate = sm.expect("sampled pass covers every tracked preset").weighted_cpi_milli;
        let entry = CycleModelEntry {
            cycles,
            instret,
            cpi_milli: cycles.saturating_mul(1000) / instret.max(1),
            sampled_cpi_milli: estimate,
            sampled_cpi_err_milli: full.abs_diff(estimate).saturating_mul(1000) / full.max(1),
        };
        (preset.to_string(), entry)
    });

    Fig8 {
        workload: suite_label(Scale::Test),
        fuel: b.fuel,
        personalities: personalities.collect(),
        cycle_model: cycle_model.collect(),
    }
}

/// Fig. 12 on `threads` threads: series × kernels.
pub fn measure_fig12(b: &Budgets, threads: usize) -> Fig12 {
    let suite = all_workloads(b.fig12_scale);
    let rows = matrix(&FIG12_CONFIGS.map(|(_, cfg)| cfg()), &suite, b, threads);
    let mut fig = Fig12 { workload: suite_label(b.fig12_scale), ..Fig12::default() };
    for ((name, _), row) in FIG12_CONFIGS.iter().zip(&rows) {
        let config = fig.configs.entry(name.to_string()).or_default();
        for (w, run) in suite.iter().zip(row) {
            let class = match w.class {
                WorkloadClass::Int => &mut config.int,
                WorkloadClass::Fp => &mut config.fp,
            };
            class.insert(w.name.into(), Counts::of(run.cycles, run.instret));
            fig.commits_checked += run.commits_checked;
        }
    }
    fig.derive();
    fig
}

impl Fig12 {
    /// `configs` must hold every [`FIG12_CONFIGS`] key.
    fn derive(&mut self) {
        type Class = BTreeMap<String, Counts>;
        for config in self.configs.values_mut() {
            let geo = |class: &mut Class| {
                class.values_mut().for_each(Counts::derive);
                let ipcs: Vec<_> = class.values().map(|k| (k.instret, k.cycles)).collect();
                geomean(&ipcs, 1000)
            };
            config.int_geomean_ipc_milli = geo(&mut config.int);
            config.fp_geomean_ipc_milli = geo(&mut config.fp);
        }
        let over = |a: &Class, b: &Class| -> Vec<(u64, u64)> {
            a.values().zip(b.values()).map(|(a, b)| a.ipc_over(b)).collect()
        };
        let [llc2, llc4, nh, yqh, _] = FIG12_CONFIGS.map(|(name, _)| &self.configs[name]);
        self.llc_4mb_over_2mb_int_ppm = delta_ppm(&over(&llc4.int, &llc2.int));
        self.llc_4mb_over_2mb_fp_ppm = delta_ppm(&over(&llc4.fp, &llc2.fp));
        self.nh_over_yqh_ppm = delta_ppm(&[over(&nh.int, &yqh.int), over(&nh.fp, &yqh.fp)].concat());
    }
}

/// Figs. 14 and 15: each `sjeng` SimPoint checkpoint through the
/// platform's warm-up + detail-window run (§III-D3), once per policy.
fn measure_pubs(b: &Budgets, threads: usize) -> (Fig14, Fig15) {
    let w = workload(SAMPLED_WORKLOAD, b.sjeng_scale);
    // ~10 checkpoints, like the paper's sjeng experiment.
    let set = checkpoint::generate_checkpoints(&w.program, b.interval_len, 10, 500_000_000);
    let policies = [XsConfig::nh(), XsConfig::nh().with_pubs()];
    let (warmup, window) = (b.interval_len / 6, b.interval_len / 3);
    let runs = fan_out(set.checkpoints.len() * 2, threads, |i| {
        let (c, cfg) = (&set.checkpoints[i / 2], policies[i % 2].clone());
        let boot = Box::new(|| CoSim::from_checkpoint(cfg, &c.state, &c.memory));
        let run = minjie::run_isolated(boot, Some((warmup, window)), b.max_cycles, None);
        verified("a sjeng checkpoint", run)
    });
    let mut fig14 = Fig14 {
        workload: format!("{SAMPLED_WORKLOAD}@{:?}", b.sjeng_scale),
        interval_len: b.interval_len,
        warmup,
        window,
        ..Fig14::default()
    };
    let mut fig15 = Fig15::default();
    for (c, pair) in set.checkpoints.iter().zip(runs.chunks(2)) {
        let [age, pubs] = [0, 1].map(|i| {
            let w = pair[i].window.as_ref().expect("a sample run reports its window");
            w.completed.then(|| Counts::of(w.window_cycles, w.window_instret))
        });
        let interval = c.interval as u64;
        let (Some(age), Some(pubs)) = (age, pubs) else {
            fig14.skipped.push(interval);
            continue;
        };
        fig14.checkpoints.push(PubsCheckpoint { interval, age, pubs, delta_ppm: 0 });
        let [age, pubs] = [0, 1].map(|i| &pair[i].perf.cores[0].perf);
        for (sum, n) in fig15.ready_hist.iter_mut().zip(age.ready_hist) {
            *sum += n;
        }
        fig15.dispatched += pubs.dispatched;
        fig15.high_priority_dispatched += pubs.high_priority_dispatched;
    }
    fig14.derive();
    fig15.derive();
    (fig14, fig15)
}

impl Fig14 {
    fn derive(&mut self) {
        for c in &mut self.checkpoints {
            c.age.derive();
            c.pubs.derive();
            c.delta_ppm = delta_ppm(&[c.pubs.ipc_over(&c.age)]);
        }
        let ratios: Vec<_> = self.checkpoints.iter().map(|c| c.pubs.ipc_over(&c.age)).collect();
        self.mean_delta_ppm = delta_ppm(&ratios);
    }
}

impl Fig15 {
    fn derive(&mut self) {
        let permille = |part: u64, whole: u64| part.saturating_mul(1000) / whole.max(1);
        let cycles = self.ready_hist.iter().sum();
        self.gt2_ready_permille = permille(self.ready_hist[3..].iter().sum(), cycles);
        self.high_priority_permille = permille(self.high_priority_dispatched, self.dispatched);
    }
}

/// One Spike-like run of `program` with a `size`-entry decode cache.
pub fn decode_cache_leg(program: &Program, size: usize, fuel: u64) -> DecodeCacheLeg {
    let mut spike = nemu::SpikeLike::with_cache_size(program, size);
    let instructions = spike.run(fuel).instructions;
    DecodeCacheLeg { size: size as u64, instructions, hits: spike.hits, misses: spike.misses }
}

/// One NEMU run of `program` with a `capacity`-uop cache.
pub fn uop_cache_leg(program: &Program, capacity: usize, fuel: u64) -> UopCacheLeg {
    let mut nemu = nemu::Nemu::with_capacity(program, capacity);
    let instructions = nemu.run(fuel).instructions;
    let (fills, flushes) = (nemu.stats.uop_fills, nemu.stats.flushes);
    UopCacheLeg { capacity: capacity as u64, instructions, fills, flushes }
}

fn measure_ablation(b: &Budgets, threads: usize) -> Ablation {
    let mut configs = vec![XsConfig::nh()];
    configs.extend(ABLATED_FEATURES.map(|(_, switch_off)| {
        let mut cfg = XsConfig::nh();
        switch_off(&mut cfg);
        cfg
    }));
    let rows = matrix(&configs, &all_workloads(Scale::Test), b, threads);
    let off = |row: &Vec<RunStats>| FeatureOff { suite: Counts::total(row), delta_ppm: 0 };
    let features = ABLATED_FEATURES.iter().map(|(name, _)| name.to_string());
    let sweep = workload(SAMPLED_WORKLOAD, b.sjeng_scale).program;
    let mut ablation = Ablation {
        workload: suite_label(Scale::Test),
        nh: Counts::total(&rows[0]),
        without: features.zip(rows[1..].iter().map(off)).collect(),
        decode_cache: DECODE_CACHE_SIZES.map(|s| decode_cache_leg(&sweep, s, b.fuel)).into(),
        uop_cache: UOP_CACHE_CAPACITIES.map(|c| uop_cache_leg(&sweep, c, b.fuel)).into(),
    };
    ablation.derive();
    ablation
}

impl Ablation {
    fn derive(&mut self) {
        self.nh.derive();
        for off in self.without.values_mut() {
            off.suite.derive();
            off.delta_ppm = delta_ppm(&[off.suite.ipc_over(&self.nh)]);
        }
    }
}

/// One Table I / Fig. 6 co-simulation: `cycles` of `kernel` (Bench
/// scale) on `preset` with LightSSS at `interval` (`None`: disabled),
/// returned live for its snapshot counters and its state.
pub fn lightsss_run(preset: &str, kernel: &str, interval: Option<u64>, cycles: u64) -> CoSim {
    let cfg = XsConfig::preset(preset).expect("Fig. 6 preset exists");
    let mut cosim = CoSim::new(cfg, &workload(kernel, Scale::Bench).program);
    if let Some(interval) = interval {
        cosim = cosim.with_lightsss(interval);
    }
    let end = cosim.run(cycles);
    assert!(!matches!(end, CoSimEnd::Bug(_)), "{preset} {kernel}: {end:?}");
    cosim
}

fn measure_snapshots(b: &Budgets, threads: usize) -> Vec<SnapshotLeg> {
    let (kernels, intervals) = (FIG6_KERNELS.len(), FIG6_INTERVALS.len());
    fan_out(FIG6_PRESETS.len() * kernels * intervals, threads, |i| {
        let preset = FIG6_PRESETS[i / (kernels * intervals)];
        let (kernel, interval) = (FIG6_KERNELS[i / intervals % kernels], FIG6_INTERVALS[i % intervals]);
        let cosim = lightsss_run(preset, kernel, Some(interval), FIG6_CYCLES.min(b.max_cycles));
        SnapshotLeg {
            preset: preset.into(),
            kernel: kernel.into(),
            interval,
            cycles: cosim.state.time(),
            snapshots: cosim.lightsss.as_ref().map_or(0, |l| l.taken),
            state_bytes: cosim.state.serialize_full().len() as u64,
        }
    })
}

/// Measure the body; the tracked file is `measure(&Budgets::TRACKED)`.
/// Independent runs fan out over [`std::thread::available_parallelism`]
/// threads; the body does not depend on how many there were.
pub fn measure(b: &Budgets) -> PaperBody {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (fig14, fig15) = measure_pubs(b, threads);
    PaperBody {
        schema_version: SCHEMA_VERSION,
        fig8: measure_fig8(b, threads),
        fig12: measure_fig12(b, threads),
        fig14,
        fig15,
        ablation: measure_ablation(b, threads),
        snapshots: measure_snapshots(b, threads),
        drav: Drav { csr_field_rules: csr_field_rules().len() as u64 },
    }
}

/// The first line at which `text` is not `canonical`, 1-based, with both
/// sides trimmed.
fn first_difference<'a>(text: &'a str, canonical: &'a str) -> Option<(usize, &'a str, &'a str)> {
    const END: &str = "<end of file>";
    let lines = |s: &'a str| s.lines().chain([END]);
    let differ = lines(text).zip(lines(canonical)).enumerate().find(|(_, (a, b))| a != b);
    // Line for line the same, yet not the same text: the final newline.
    let same_lines = || (text != canonical).then(|| (text.lines().count(), (END, END)));
    let (at, (found, ours)) = differ.or_else(same_lines)?;
    Some((at + 1, found.trim(), ours.trim()))
}

impl PaperBody {
    /// The file's text: pretty JSON, keys sorted, one trailing newline.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("the body serializes") + "\n"
    }

    /// What the types cannot say about the maps: exactly the registry's
    /// personalities, the tracked presets, the Fig. 12 series, the
    /// ablated features.
    fn check_keys(&self) -> Result<(), String> {
        fn same<V>(what: &str, map: &BTreeMap<String, V>, expected: &[&str]) -> Result<(), String> {
            let got: Vec<_> = map.keys().map(String::as_str).collect();
            let same = got == expected;
            same.then_some(()).ok_or_else(|| format!("{what} {got:?}, expected {expected:?}"))
        }
        let mut registry = nemu::registry::names();
        registry.sort_unstable();
        same("personalities", &self.fig8.personalities, &registry)?;
        same("cycle_model presets", &self.fig8.cycle_model, &CYCLE_PRESETS)?;
        same("fig12 configs", &self.fig12.configs, &FIG12_CONFIGS.map(|(name, _)| name))?;
        same("ablated features", &self.ablation.without, &ABLATED_FEATURES.map(|(name, _)| name))
    }

    /// This body with every derived figure recomputed from the counts
    /// beside it.
    fn rederived(&self) -> PaperBody {
        let mut body = self.clone();
        for e in body.fig8.cycle_model.values_mut() {
            e.cpi_milli = e.cycles.saturating_mul(1000) / e.instret.max(1);
        }
        body.fig12.derive();
        body.fig14.derive();
        body.fig15.derive();
        body.ablation.derive();
        body
    }

    /// The claims the counts must support: every personality retired the
    /// same total (the suites are the same programs, so a difference is
    /// an engine bug) and the sampled estimates are inside
    /// [`SAMPLED_ERR_BOUND_MILLI`].
    fn check_gates(&self) -> Result<(), String> {
        let got: Vec<_> = self.fig8.personalities.iter().map(|(n, p)| (n, p.instructions)).collect();
        if got.iter().any(|&(_, total)| total == 0 || total != got[0].1) {
            return Err(format!("personalities disagree on retired instructions: {got:?}"));
        }
        for (preset, e) in &self.fig8.cycle_model {
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

/// Read the text of a `BENCH_paper.json`.
///
/// # Errors
///
/// One line of diagnosis when the text does not parse, is of another
/// [`SCHEMA_VERSION`], is not exactly what its parsed body serializes
/// to, holds a derived figure its counts do not give, or fails a gate.
pub fn load(text: &str) -> Result<PaperBody, String> {
    let body: PaperBody = minjie::files::load(text, "bench", SCHEMA_VERSION)?;
    if let Some((line, found, _)) = first_difference(text, &body.to_json()) {
        return Err(format!(
            "line {line}: {found} is not what this body serializes to (an unknown key, or a hand edit)"
        ));
    }
    body.check_keys()?;
    if let Some((line, found, derived)) = first_difference(text, &body.rederived().to_json()) {
        return Err(format!(
            "line {line}: {found} is inconsistent with the counts beside it, which give {derived}"
        ));
    }
    body.check_gates()?;
    Ok(body)
}

#[cfg(test)]
#[test]
fn fan_out_places_results_by_index_on_any_thread_count() {
    let squares: Vec<usize> = (0..37).map(|i| i * i).collect();
    for threads in [0, 1, 2, 5, 64] {
        assert_eq!(fan_out(37, threads, |i| i * i), squares);
    }
    assert!(fan_out(0, 2, |i| i).is_empty());
}
