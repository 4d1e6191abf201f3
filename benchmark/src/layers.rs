//! The one place the benchmark calls into the crates.
//!
//! End-to-end legs use only the top-level entry points
//! (`Interpreter::run`, `CoSim::run`, `Campaign::run`, `run_sampled`,
//! `generate_checkpoints_with_ref`). The traced run re-drives the same
//! loops through the crates' public per-layer functions with a span
//! around each call; nothing inside the crates is instrumented.
//! README.md lists every signature used here — a refactor that changes
//! one of them must be preceded by a benchmark change.

use crate::trace::Tracer;
use campaign::{Campaign, JobSpec, SampleSpec, Verdict, WorkloadSource};
use checkpoint::{BbvCollector, Checkpoint};
use minjie::{AnyRef, CoSim, CoSimEnd, CoSimState, DiffTest, LightSss, RefModel, Snapshotable};
use nemu::Interpreter;
use riscv_isa::op::Op;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;
use workloads::{LitmusConfig, LitmusShape, TortureConfig};
use xscore::{CycleOutput, InjectedBug, XsConfig, XsSystem};

pub use riscv_isa::asm::Program;
pub use workloads::Scale;

/// LightSSS snapshot interval used wherever snapshots are on (cycles).
pub const LIGHTSSS_INTERVAL: u64 = 10_000;

fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

fn preset(name: &str) -> XsConfig {
    XsConfig::preset(name).unwrap_or_else(|| panic!("unknown preset {name}"))
}

// ---------------------------------------------------------------------
// workloads
// ---------------------------------------------------------------------

pub fn kernel(name: &str, scale: Scale) -> Program {
    workloads::workload(name, scale).program
}

// ---------------------------------------------------------------------
// nemu / riscv-isa
// ---------------------------------------------------------------------

/// Where an interpreter stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefEnd {
    pub instructions: u64,
    pub exit_code: Option<u64>,
    pub gpr: [u64; 32],
    pub fpr: [u64; 32],
}

fn ref_end(i: &dyn Interpreter) -> RefEnd {
    let h = i.hart();
    RefEnd {
        instructions: h.instret,
        exit_code: h.halted,
        gpr: h.state.gpr,
        fpr: h.state.fpr,
    }
}

fn boot(personality: &str, program: &Program) -> Box<dyn Interpreter> {
    nemu::registry::boot(personality, program)
        .unwrap_or_else(|| panic!("unknown personality {personality}"))
}

pub fn personalities() -> Vec<&'static str> {
    nemu::registry::names()
}

/// `registry::boot(personality).run(max_steps)` — the fast path.
pub fn ref_run(personality: &str, program: &Program, max_steps: u64) -> RefEnd {
    let mut i = boot(personality, program);
    i.run(max_steps);
    ref_end(i.as_ref())
}

/// `step_one()` until halt or `max_steps` — the path DiffTest and the
/// checkpoint profiler use. `"arch"` is the bare architectural stepper
/// DiffTest defaults to.
pub fn ref_step(personality: &str, program: &Program, max_steps: u64) -> RefEnd {
    if personality == minjie::ARCH_REF_NAME {
        let mut r = AnyRef::arch(program, 0);
        let mut steps = 0;
        while steps < max_steps && !black_box(r.step()).halted {
            steps += 1;
        }
        let AnyRef::Arch(r) = r else {
            unreachable!("AnyRef::arch builds the Arch variant")
        };
        return RefEnd {
            instructions: r.hart.instret,
            exit_code: r.hart.halted,
            gpr: r.hart.state.gpr,
            fpr: r.hart.state.fpr,
        };
    }
    let mut i = boot(personality, program);
    let mut steps = 0;
    while steps < max_steps && !i.hart().is_halted() {
        black_box(i.step_one());
        steps += 1;
    }
    ref_end(i.as_ref())
}

/// Bare `hart::step` on a hart and its memory; returns steps executed.
pub fn hart_step(program: &Program, max_steps: u64) -> u64 {
    let (mut hart, mut mem) = nemu::boot(program);
    let mut steps = 0;
    while steps < max_steps && !hart.is_halted() {
        black_box(nemu::hart::step(&mut hart, &mut mem));
        steps += 1;
    }
    steps
}

/// Mean microseconds of `registry::boot`.
pub fn ref_boot_us(personality: &str, program: &Program, reps: u32) -> f64 {
    let t0 = Instant::now();
    for _ in 0..reps {
        black_box(boot(personality, program));
    }
    secs(t0) * 1e6 / f64::from(reps)
}

/// Mean nanoseconds of `decode` over the program's 32-bit words.
pub fn decode_ns(program: &Program, reps: u32) -> f64 {
    let words: Vec<u32> = program
        .bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect();
    let t0 = Instant::now();
    for _ in 0..reps {
        for &w in &words {
            black_box(riscv_isa::decode::decode(black_box(w)));
        }
    }
    secs(t0) * 1e9 / (f64::from(reps) * words.len() as f64)
}

/// Mean microseconds of `SparseMemory::clone` on the memory `program`
/// leaves behind after `steps` instructions.
pub fn mem_clone_us(program: &Program, steps: u64, reps: u32) -> f64 {
    let mut i = boot("nemu", program);
    i.run(steps);
    let mem = i.mem_mut();
    let t0 = Instant::now();
    for _ in 0..reps {
        black_box(mem.clone());
    }
    secs(t0) * 1e6 / f64::from(reps)
}

// ---------------------------------------------------------------------
// xscore / uncore / minjie
// ---------------------------------------------------------------------

/// How a DUT simulation ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimEnd {
    Halted(u64),
    OutOfCycles,
    Bug(String),
}

/// The optional per-run instrumentation flags of `XsConfig`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flag {
    Telemetry,
    Lifecycle,
    Coverage,
}

/// Deterministic outcome of one DUT simulation: everything here repeats
/// exactly for the same inputs, so it feeds `sim_digest`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimOut {
    pub end: SimEnd,
    pub cycles: u64,
    pub instret: u64,
    pub commits: u64,
    pub rule_triggers: u64,
    pub snapshots: u64,
    /// CPI-stack slots, `CpiStack::components` order.
    pub cpi: [u64; 8],
    /// `(l1d, l2, l3)` misses of core 0's hierarchy.
    pub misses: [u64; 3],
    pub dram_accesses: u64,
    pub gpr: [u64; 32],
    pub fpr: [u64; 32],
}

fn sim_out(
    sys: &XsSystem,
    end: SimEnd,
    commits: u64,
    rule_triggers: u64,
    snapshots: u64,
) -> SimOut {
    let core = &sys.cores[0];
    let state = core.arch_state();
    let mut cpi = [0u64; 8];
    for (slot, (_, v)) in cpi.iter_mut().zip(core.perf.cpi.components()) {
        *slot = v;
    }
    let mut misses = [0u64; 3];
    for (name, stats) in sys.mem.stats() {
        match name.as_str() {
            "l1d0" => misses[0] = stats.misses,
            "l2_0" => misses[1] = stats.misses,
            "l3" => misses[2] = stats.misses,
            _ => {}
        }
    }
    SimOut {
        end,
        cycles: core.cycle(),
        instret: core.instret(),
        commits,
        rule_triggers,
        snapshots,
        cpi,
        misses,
        dram_accesses: sys.mem.dram_stats().accesses,
        gpr: state.gpr,
        fpr: state.fpr,
    }
}

fn rule_triggers(diff: &DiffTest<AnyRef>) -> u64 {
    diff.stats.all().values().sum()
}

/// `CoSim::new(preset, program)[.with_lightsss(..)].run(cap)`.
pub fn cosim_run(
    preset_name: &str,
    program: &Program,
    cap: u64,
    lightsss: bool,
    flag: Option<Flag>,
) -> SimOut {
    let mut cfg = preset(preset_name);
    cfg = match flag {
        Some(Flag::Telemetry) => cfg.with_telemetry(),
        Some(Flag::Lifecycle) => cfg.with_lifecycle(),
        Some(Flag::Coverage) => cfg.with_coverage(),
        None => cfg,
    };
    let mut cosim = CoSim::new(cfg, program);
    if lightsss {
        cosim = cosim.with_lightsss(LIGHTSSS_INTERVAL);
    }
    let end = match cosim.run(cap) {
        CoSimEnd::Halted(code) => SimEnd::Halted(code),
        CoSimEnd::OutOfCycles => SimEnd::OutOfCycles,
        CoSimEnd::Bug(b) => SimEnd::Bug(format!("{} @cycle {}", b.error, b.at_cycle)),
    };
    let snapshots = cosim.lightsss.as_ref().map_or(0, |l| l.taken);
    let diff = &cosim.state.diff;
    sim_out(
        &cosim.state.sys,
        end,
        diff.commits_checked,
        rule_triggers(diff),
        snapshots,
    )
}

/// `XsSystem::new(preset, program).run(cap)` — the DUT without DiffTest.
pub fn dut_run(preset_name: &str, program: &Program, cap: u64) -> SimOut {
    let mut sys = XsSystem::new(preset(preset_name), program);
    let end = match sys.run(cap) {
        Some(code) => SimEnd::Halted(code),
        None => SimEnd::OutOfCycles,
    };
    sim_out(&sys, end, 0, 0, 0)
}

/// Mean microseconds of `CoSim::new` and of `XsSystem::new`.
pub fn boot_us(preset_name: &str, program: &Program, reps: u32) -> (f64, f64) {
    let t0 = Instant::now();
    for _ in 0..reps {
        black_box(CoSim::new(preset(preset_name), program));
    }
    let cosim = secs(t0) * 1e6 / f64::from(reps);
    let t0 = Instant::now();
    for _ in 0..reps {
        black_box(XsSystem::new(preset(preset_name), program));
    }
    (cosim, secs(t0) * 1e6 / f64::from(reps))
}

/// What the traced co-simulation loop counted, beyond [`SimOut`].
#[derive(Debug, Clone, Copy, Default)]
pub struct LoopCounts {
    /// Cycles simulated.
    pub cycles: u64,
    /// Real ticks executed (calls that advanced the DUT).
    pub ticks: u64,
    /// Commits checked.
    pub commits: u64,
    /// Ticks that were split into timed `MemSystem::tick` + `Core::tick_into`.
    pub sampled_ticks: u64,
    /// Commits whose `DiffTest::on_commit` was timed.
    pub sampled_commits: u64,
}

impl std::ops::AddAssign for LoopCounts {
    fn add_assign(&mut self, o: Self) {
        self.cycles += o.cycles;
        self.ticks += o.ticks;
        self.commits += o.commits;
        self.sampled_ticks += o.sampled_ticks;
        self.sampled_commits += o.sampled_commits;
    }
}

/// The co-simulation loop of `CoSim::run`, re-driven through public
/// per-layer calls with spans. Every `k`-th tick is a *split* tick:
/// `MemSystem::tick` and `Core::tick_into` are called (and timed)
/// separately instead of through `XsSystem::tick_skipping_into`, and the
/// commits it produces have their `DiffTest::on_commit` timed. A split
/// tick cannot skip idle cycles afterwards (the skipper's primitives are
/// crate-private); the next ordinary tick does, so the simulated outcome
/// is unchanged — the caller checks it against the untraced run.
/// Snapshotting `LightSss::tick` calls are always timed. Single-core only.
/// `root` names the span around the whole simulation.
pub fn cosim_traced(
    tr: &mut Tracer,
    root: &'static str,
    preset_name: &str,
    program: &Program,
    cap: u64,
    lightsss: bool,
    k: u64,
) -> (SimOut, LoopCounts) {
    tr.next_sim();
    tr.span(root, |tr| {
        let cfg = preset(preset_name);
        assert_eq!(cfg.cores, 1, "the split tick handles one core");
        let sys = tr.leaf("xscore.system_boot", || XsSystem::new(cfg, program));
        let diff = tr.leaf("minjie.difftest_boot", || {
            DiffTest::for_program_with_ref(minjie::ARCH_REF_NAME, program, 1)
        });
        let mut state = CoSimState { sys, diff };
        let mut snaps = lightsss.then(|| LightSss::<CoSimState>::new(LIGHTSSS_INTERVAL));
        let mut outs: Vec<CycleOutput> = vec![CycleOutput::default()];
        let mut counts = LoopCounts::default();
        let mut end = SimEnd::OutOfCycles;
        'run: while state.time() < cap {
            if state.sys.all_halted() {
                end = SimEnd::Halted(state.sys.cores[0].halted.unwrap_or(0));
                break;
            }
            let mut limit = cap;
            if let Some(l) = &mut snaps {
                if state.time() >= l.next_due() {
                    tr.leaf("minjie.lightsss_snapshot", || l.tick(&state));
                }
                limit = limit.min(l.next_due());
            }
            let sampled = counts.ticks % k == 0;
            counts.ticks += 1;
            if sampled {
                counts.sampled_ticks += 1;
                let sys = &mut state.sys;
                let completions = tr.leaf("uncore.tick", || sys.mem.tick());
                tr.leaf("xscore.core_tick", || {
                    sys.cores[0].tick_into(&mut sys.mem, &completions, &mut outs[0])
                });
            } else {
                state.sys.tick_skipping_into(limit, &mut outs);
            }
            for c in &outs[0].commits {
                let checked = if sampled {
                    counts.sampled_commits += 1;
                    let diff = &mut state.diff;
                    tr.leaf("minjie.difftest_commit", || diff.on_commit(c))
                } else {
                    state.diff.on_commit(c)
                };
                let checked = checked.and_then(|()| {
                    if c.halted {
                        let dut = state.sys.cores[0].arch_state();
                        state.diff.compare_state(0, &dut)
                    } else {
                        Ok(())
                    }
                });
                if let Err(e) = checked {
                    end = SimEnd::Bug(e.to_string());
                    break 'run;
                }
            }
            for d in &outs[0].drains {
                state.diff.on_sbuffer_drain(d);
            }
        }
        let out = sim_out(
            &state.sys,
            end,
            state.diff.commits_checked,
            rule_triggers(&state.diff),
            snaps.as_ref().map_or(0, |l| l.taken),
        );
        counts.cycles = out.cycles;
        counts.commits = out.commits;
        (out, counts)
    })
}

// ---------------------------------------------------------------------
// campaign
// ---------------------------------------------------------------------

/// One campaign job in the harness's terms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Job {
    pub kind: JobKind,
    pub preset: &'static str,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobKind {
    /// Default-knob torture program.
    Torture(u64),
    /// Two-hart litmus program; shape and fencing follow the seed.
    Litmus(u64),
    /// Test-scale kernel.
    Kernel(&'static str),
    /// Torture program on a DUT with an injected bug.
    Inject(u64, Bug),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bug {
    MulLowBit,
    AddwNoSext,
}

impl Job {
    fn source(&self) -> WorkloadSource {
        match &self.kind {
            JobKind::Torture(seed) | JobKind::Inject(seed, _) => {
                WorkloadSource::torture(*seed, TortureConfig::default())
            }
            JobKind::Litmus(seed) => {
                let shapes = LitmusShape::ALL;
                let cfg = LitmusConfig {
                    shape: shapes[(*seed % shapes.len() as u64) as usize],
                    fenced: (*seed / shapes.len() as u64).is_multiple_of(2),
                    ..LitmusConfig::default()
                };
                WorkloadSource::litmus(*seed, cfg)
            }
            JobKind::Kernel(name) => WorkloadSource::kernel(*name),
        }
    }

    fn spec(&self) -> JobSpec {
        let mut spec = JobSpec::new(self.source(), self.preset).with_lightsss(LIGHTSSS_INTERVAL);
        match &self.kind {
            JobKind::Litmus(_) => spec = spec.with_cores(2),
            JobKind::Inject(_, Bug::MulLowBit) => {
                spec = spec.with_injected_bug(InjectedBug::MulLowBit)
            }
            JobKind::Inject(_, Bug::AddwNoSext) => {
                spec = spec.with_injected_bug(InjectedBug::AddwNoSext)
            }
            _ => {}
        }
        spec
    }

    /// `WorkloadSource::build`.
    pub fn build(&self) -> Program {
        self.source().build()
    }
}

/// Whether a litmus job's exit word reports every round in its allowed
/// set (and not a forbidden outcome or a hart that never synchronised).
pub fn litmus_ok(exit_code: u64) -> bool {
    workloads::LitmusExit::decode(exit_code).status == workloads::litmus::status::OK
}

/// Whether the REF's own instruction stream proves `bug` must corrupt a
/// writeback on this program: it retires a `mul` into a register, or an
/// `addw` whose result has bit 31 set. Independent of the DUT, so "every
/// injected bug is caught" is a test of the oracle and not of itself.
pub fn bug_must_show(program: &Program, bug: Bug, max_steps: u64) -> bool {
    let mut i = boot("nemu", program);
    let mut steps = 0;
    while steps < max_steps && !i.hart().is_halted() {
        let info = i.step_one();
        steps += 1;
        if let Some((false, _, value)) = info.wb {
            let hit = match bug {
                Bug::MulLowBit => info.inst.op == Op::Mul,
                Bug::AddwNoSext => info.inst.op == Op::Addw && value >> 32 != 0,
            };
            if hit {
                return true;
            }
        }
    }
    false
}

/// What one job's record says, reduced to what the checks need.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobOut {
    pub verdict: &'static str,
    pub exit_code: Option<u64>,
    pub cycles: u64,
    pub instret: u64,
    pub commits: u64,
    pub minimized: bool,
    pub triaged: bool,
}

pub struct CampaignOut {
    pub jobs: Vec<JobOut>,
    /// The deterministic body: identical across passes and worker counts.
    pub body: String,
    pub report_bytes: u64,
    pub run_s: f64,
    pub serialize_s: f64,
}

/// The deterministic report body without its `workers` line, so bodies
/// compare across worker counts.
fn body(report: &campaign::CampaignReport) -> String {
    report
        .deterministic_json()
        .lines()
        .filter(|l| !l.trim_start().starts_with("\"workers\":"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// One `Campaign::run()` plus `full_json()`, both timed.
pub fn campaign_run(jobs: &[Job], workers: usize, minimize: bool, triage: bool) -> CampaignOut {
    let campaign = Campaign::new(jobs.iter().map(Job::spec).collect())
        .with_workers(workers)
        .with_minimization(minimize)
        .with_triage(triage);
    let t0 = Instant::now();
    let report = campaign.run();
    let run_s = secs(t0);
    let t0 = Instant::now();
    let full = report.full_json();
    let serialize_s = secs(t0);
    let jobs = report
        .jobs
        .iter()
        .map(|r| JobOut {
            verdict: r.verdict.label(),
            exit_code: match r.verdict {
                Verdict::Halted { exit_code } => Some(exit_code),
                _ => None,
            },
            cycles: r.cycles,
            instret: r.instret,
            commits: r.commits_checked,
            minimized: r.minimized.is_some(),
            triaged: r.triage.is_some(),
        })
        .collect();
    CampaignOut {
        jobs,
        body: body(&report),
        report_bytes: full.len() as u64,
        run_s,
        serialize_s,
    }
}

/// One job re-driven on the calling thread through `WorkloadSource::build`,
/// `CoSim::new` and `CoSim::run`, a span around each.
pub fn job_traced(tr: &mut Tracer, job: &Job) {
    tr.next_sim();
    tr.span("campaign.job", |tr| {
        let spec = job.spec();
        let build_span = match job.kind {
            JobKind::Litmus(_) => "workloads.litmus_build",
            JobKind::Kernel(_) => "workloads.kernel_build",
            _ => "workloads.torture_build",
        };
        let program = tr.leaf(build_span, || spec.workload.build());
        let cfg = spec.build_config().expect("preset exists");
        let mut cosim = tr.leaf("minjie.cosim_boot", || {
            CoSim::new(cfg, &program).with_lightsss(LIGHTSSS_INTERVAL)
        });
        tr.leaf("minjie.cosim_run", || black_box(cosim.run(spec.max_cycles)));
    })
}

// ---------------------------------------------------------------------
// campaign::run_sampled / checkpoint
// ---------------------------------------------------------------------

pub const SAMPLE_INTERVAL: u64 = 2_000;
pub const SAMPLE_MAX_CHECKPOINTS: usize = 8;
const PROFILE_REF: &str = "nemu-trace";
const PROFILE_FUEL: u64 = 500_000_000;

pub struct SampledOut {
    /// `(kernel, preset, weighted CPI × 1000)`, report order.
    pub cpi_milli: Vec<(String, String, u64)>,
    pub jobs: u64,
    /// Instructions the sample jobs retired on the DUT.
    pub instr: u64,
    /// Instructions the profiling pass covers (each kernel once).
    pub profiled_instr: u64,
    /// Sample jobs that diverged, timed out or panicked (one that halts
    /// before its window fills is legitimate near a program's end).
    pub bad_jobs: u64,
    pub body: String,
}

/// One `run_sampled` pass over `kernels × presets` with the checkpoint
/// cache in `dir` (cold when `dir` is empty, warm when a pass filled it).
pub fn sampled(kernels: &[&str], presets: &[&str], dir: &Path, workers: usize) -> SampledOut {
    let spec = SampleSpec::new(
        kernels.iter().map(|k| k.to_string()).collect(),
        presets.iter().map(|p| p.to_string()).collect(),
    )
    .with_ref(PROFILE_REF)
    .with_interval(SAMPLE_INTERVAL)
    .with_max_checkpoints(SAMPLE_MAX_CHECKPOINTS)
    .with_checkpoint_dir(dir)
    .with_workers(workers);
    let report = campaign::run_sampled(&spec);
    SampledOut {
        cpi_milli: report
            .sampling
            .iter()
            .map(|s| {
                let kernel = s.workload.trim_start_matches("kernel:").to_string();
                (kernel, s.config.clone(), s.weighted_cpi_milli)
            })
            .collect(),
        jobs: report.jobs.len() as u64,
        instr: report.jobs.iter().map(|j| j.instret).sum(),
        profiled_instr: report
            .sampling
            .iter()
            .filter(|s| s.config == presets[0])
            .map(|s| s.total_instructions)
            .sum(),
        bad_jobs: {
            let s = &report.summary;
            s.diverged + s.forbidden + s.timeout + s.panicked
        },
        body: body(&report),
    }
}

/// `generate_checkpoints_with_ref` on the profiling personality; returns
/// instructions profiled and the checkpoints kept.
pub fn profile(program: &Program, interval: u64, k: usize) -> (u64, Vec<Checkpoint>) {
    let set =
        checkpoint::generate_checkpoints_with_ref(PROFILE_REF, program, interval, k, PROFILE_FUEL);
    (set.total_instructions, set.checkpoints)
}

/// The profiler's inner pieces, each on its own: `BbvCollector::record`
/// (mean ns), `simpoints` (ms) over the interval vectors of `program`,
/// and a `Checkpoint::{to_bytes, try_from_bytes}` round trip (mean µs,
/// blob bytes).
pub fn checkpoint_pieces(program: &Program, interval: u64, k: usize) -> (f64, f64, f64, u64) {
    // The block stream, collected untimed with the same rule the
    // profiler uses, so `record` is timed on real block sizes.
    let mut i = boot(PROFILE_REF, program);
    let mut blocks: Vec<(u64, u64)> = Vec::new();
    let (mut block_pc, mut block_len) = (i.hart().state.pc, 0u64);
    while !i.hart().is_halted() {
        let info = i.step_one();
        block_len += 1;
        if info.inst.ends_block() || info.trap.is_some() {
            blocks.push((block_pc, block_len));
            block_pc = i.hart().state.pc;
            block_len = 0;
        }
    }
    let mut bbv = BbvCollector::new();
    let mut vectors = Vec::new();
    let t0 = Instant::now();
    for &(pc, len) in &blocks {
        bbv.record(pc, len);
        if bbv.instructions() >= interval {
            vectors.push(bbv.finish());
        }
    }
    let record_ns = secs(t0) * 1e9 / blocks.len().max(1) as f64;
    if bbv.instructions() > 0 || vectors.is_empty() {
        vectors.push(bbv.finish());
    }
    let t0 = Instant::now();
    black_box(checkpoint::simpoints(&vectors, k, checkpoint::CLUSTER_SEED));
    let cluster_ms = secs(t0) * 1e3;

    let (_, checkpoints) = profile(program, interval, k);
    let ckpt = checkpoints.last().expect("at least one checkpoint");
    let reps = 20;
    let mut bytes = 0;
    let t0 = Instant::now();
    for _ in 0..reps {
        let blob = ckpt.to_bytes();
        bytes = blob.len() as u64;
        black_box(Checkpoint::try_from_bytes(&blob).expect("blob round-trips"));
    }
    let roundtrip_us = secs(t0) * 1e6 / f64::from(reps);
    (record_ns, cluster_ms, roundtrip_us, bytes)
}

/// Milliseconds to read and parse every checkpoint blob under `dir` (the
/// cache-hit path of `run_sampled`).
pub fn cache_load_ms(dir: &Path) -> f64 {
    let t0 = Instant::now();
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let path = entry.path();
        if path.extension().is_some_and(|e| e == "ckpt") {
            let bytes = std::fs::read(&path).expect("blob readable");
            black_box(Checkpoint::try_from_bytes(&bytes).expect("cached blob parses"));
        }
    }
    secs(t0) * 1e3
}
