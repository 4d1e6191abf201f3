//! `cosim-compute` and `cosim-membound`: the full co-simulation stack
//! (`xscore` DUT + `uncore` + `minjie` DiffTest with its REF) on
//! Bench-scale kernels under a cycle cap, LightSSS off and then on.
//!
//! The two workloads share this code and differ only in their kernels:
//! cache-resident integer kernels retire more than one instruction per
//! cycle, so the core tick and the per-commit DiffTest check do the work;
//! DRAM-bound kernels retire one every 3 to 17 cycles, so the uncore
//! tick, the idle-cycle skipper and — with LightSSS — snapshot cloning of
//! a large live state do.

use crate::layers::{self, Flag, LoopCounts, Program, Scale, SimEnd, SimOut};
use crate::metrics::{
    exact, leg_median, median, pct_over, Digest, Host, Layers, Leg, Pass, Rng, Workload,
};
use crate::trace::Tracer;
use crate::Size;
use std::cell::Cell;
use std::time::Instant;

const PRESET: &str = "small-nh";
const REF_FUEL: u64 = 500_000_000;
/// Every `SAMPLE_K`-th DUT tick of the traced loop is split and timed.
const SAMPLE_K: u64 = 16;
const ROOT_OFF: &str = "minjie.cosim";
const ROOT_SNAP: &str = "minjie.cosim_lightsss";

/// `(kernel, cycle cap)` per leg. The caps are part of the benchmark's
/// definition: changing one changes every number measured after it.
pub struct Plan {
    off: &'static [(&'static str, u64)],
    snap: &'static [(&'static str, u64)],
    /// Measure the telemetry/lifecycle/coverage taxes on this kernel.
    tax_kernel: Option<&'static str>,
}

pub const COMPUTE: Plan = Plan {
    off: &[
        ("sjeng", 300_000),
        ("gcc", 300_000),
        ("hmmer", 300_000),
        ("bzip2", 300_000),
    ],
    snap: &[
        ("sjeng", 100_000),
        ("gcc", 100_000),
        ("hmmer", 100_000),
        ("bzip2", 100_000),
    ],
    tax_kernel: Some("sjeng"),
};

pub const MEMBOUND: Plan = Plan {
    off: &[
        ("mcf", 3_000_000),
        ("namd", 1_500_000),
        ("lbm", 1_000_000),
        ("bwaves", 1_000_000),
    ],
    snap: &[("mcf", 1_000_000), ("lbm", 500_000), ("bwaves", 500_000)],
    tax_kernel: None,
};

struct Entry {
    kernel: &'static str,
    program: Program,
    cap: u64,
    /// The REF-alone run to halt: exit word and instruction count.
    ref_exit: Option<u64>,
    ref_instr: u64,
    /// Instructions the DUT retired under `cap` in the latest pass.
    retired: Cell<u64>,
}

pub struct Cosim {
    off: Vec<Entry>,
    snap: Vec<Entry>,
    tax_kernel: Option<&'static str>,
    /// Loop counts summed over the traced passes, `[off, snap]`.
    counts: [LoopCounts; 2],
}

impl Cosim {
    pub fn new(plan: &Plan, seed: u64, size: Size) -> Self {
        let mut rng = Rng(seed);
        let mut leg = |list: &[(&'static str, u64)]| {
            let mut entries: Vec<Entry> = list
                .iter()
                .map(|&(kernel, cap)| {
                    let (scale, cap) = match size {
                        Size::Full => (Scale::Bench, cap),
                        Size::Check => (Scale::Test, 40_000_000),
                    };
                    let program = layers::kernel(kernel, scale);
                    let reference = layers::ref_run("nemu", &program, REF_FUEL);
                    Entry {
                        kernel,
                        program,
                        cap,
                        ref_exit: reference.exit_code,
                        ref_instr: reference.instructions,
                        retired: Cell::new(0),
                    }
                })
                .collect();
            // Kernel programs are fixed; the seed only orders them.
            rng.shuffle(&mut entries);
            entries
        };
        Cosim {
            off: leg(plan.off),
            snap: leg(plan.snap),
            tax_kernel: plan.tax_kernel,
            counts: [LoopCounts::default(); 2],
        }
    }

    /// One pass; `run` simulates one entry (`lightsss` off or on).
    fn run_pass(&self, host: &mut Host, mut run: impl FnMut(&Entry, bool) -> SimOut) -> Pass {
        let mut pass = Pass::default();
        let mut digest = Digest::new();
        let mut sums = Sums::default();
        let mut leg_secs = [0.0f64; 2];
        let mut leg_cycles = [0u64; 2];
        for (leg, entries) in [&self.off, &self.snap].into_iter().enumerate() {
            for e in entries {
                let (out, secs) = pass.op(host, || {
                    let t0 = Instant::now();
                    let out = run(e, leg == 1);
                    (out, t0.elapsed().as_secs_f64())
                });
                leg_secs[leg] += secs;
                leg_cycles[leg] += out.cycles;
                e.retired.set(out.instret);
                pass.ops += 1;
                pass.instr += out.instret;
                if let Err(why) = verify(e, &out) {
                    pass.failures
                        .push(format!("{} (lightsss {}): {why}", e.kernel, leg == 1));
                }
                digest_sim(&mut digest, &out);
                if leg == 0 {
                    sums.add(&out);
                } else {
                    sums.snapshots += out.snapshots;
                }
            }
        }
        pass.legs = vec![
            Leg {
                name: "cosim_kcps",
                unit: "kcycle/s",
                value: leg_cycles[0] as f64 / leg_secs[0] / 1e3,
            },
            Leg {
                name: "cosim_lightsss_kcps",
                unit: "kcycle/s",
                value: leg_cycles[1] as f64 / leg_secs[1] / 1e3,
            },
            Leg {
                name: "cosim_off_leg_s",
                unit: "s",
                value: leg_secs[0],
            },
            Leg {
                name: "cosim_lightsss_leg_s",
                unit: "s",
                value: leg_secs[1],
            },
        ];
        pass.exact = sums.exact();
        pass.digest = digest.finish();
        pass
    }
}

/// Exact simulated counts of the LightSSS-off leg (and the snapshot count
/// of the LightSSS leg).
#[derive(Default)]
struct Sums {
    cycles: u64,
    instret: u64,
    commits: u64,
    rule_triggers: u64,
    snapshots: u64,
    cpi: [u64; 8],
    misses: [u64; 3],
    dram_accesses: u64,
}

impl Sums {
    fn add(&mut self, o: &SimOut) {
        self.cycles += o.cycles;
        self.instret += o.instret;
        self.commits += o.commits;
        self.rule_triggers += o.rule_triggers;
        for (a, b) in self.cpi.iter_mut().zip(o.cpi) {
            *a += b;
        }
        for (a, b) in self.misses.iter_mut().zip(o.misses) {
            *a += b;
        }
        self.dram_accesses += o.dram_accesses;
    }

    fn exact(&self) -> Vec<(&'static str, u64)> {
        let slots: u64 = self.cpi.iter().sum();
        let milli = |n: u64, d: u64| n * 1000 / d.max(1);
        let mut v = vec![
            ("sim_cycles", self.cycles),
            ("sim_instret", self.instret),
            ("xscore.sim_cpi_milli", milli(self.cycles, self.instret)),
            ("minjie.commits_checked", self.commits),
            ("minjie.rule_triggers", self.rule_triggers),
            ("minjie.lightsss_snapshots", self.snapshots),
            ("uncore.l1d_misses", self.misses[0]),
            ("uncore.l2_misses", self.misses[1]),
            ("uncore.l3_misses", self.misses[2]),
            ("uncore.dram_accesses", self.dram_accesses),
        ];
        const NAMES: [&str; 8] = [
            "xscore.cpi_stack.retired_milli",
            "xscore.cpi_stack.frontend_starved_milli",
            "xscore.cpi_stack.mispredict_recovery_milli",
            "xscore.cpi_stack.memory_stall_milli",
            "xscore.cpi_stack.rob_full_milli",
            "xscore.cpi_stack.iq_full_milli",
            "xscore.cpi_stack.serialization_milli",
            "xscore.cpi_stack.other_milli",
        ];
        for (name, slots_of) in NAMES.into_iter().zip(self.cpi) {
            v.push((name, milli(slots_of, slots)));
        }
        v
    }
}

fn digest_sim(d: &mut Digest, o: &SimOut) {
    match &o.end {
        SimEnd::Halted(code) => d.u64(*code),
        SimEnd::OutOfCycles => d.u64(u64::MAX),
        SimEnd::Bug(why) => d.bytes(why.as_bytes()),
    }
    for v in [
        o.cycles,
        o.instret,
        o.commits,
        o.rule_triggers,
        o.snapshots,
        o.dram_accesses,
    ] {
        d.u64(v);
    }
    for v in o.cpi.iter().chain(&o.misses).chain(&o.gpr).chain(&o.fpr) {
        d.u64(*v);
    }
}

/// An operation is correct when DiffTest stayed clean, a halt carries the
/// exit word of the REF-alone run, and the DUT's registers after `n`
/// retired instructions equal a fresh REF's after `run(n)` (the REF's
/// fast path, not the stepping path DiffTest drove).
fn verify(e: &Entry, out: &SimOut) -> Result<(), String> {
    match &out.end {
        SimEnd::Bug(why) => return Err(format!("diverged: {why}")),
        SimEnd::Halted(code) => {
            if Some(*code) != e.ref_exit || out.instret != e.ref_instr {
                return Err(format!(
                    "halted {code:#x} after {} instructions, REF alone {:?} after {}",
                    out.instret, e.ref_exit, e.ref_instr
                ));
            }
        }
        SimEnd::OutOfCycles => {
            if out.cycles != e.cap || out.instret >= e.ref_instr {
                return Err(format!(
                    "out of cycles at {} (cap {}) with {} of {} instructions",
                    out.cycles, e.cap, out.instret, e.ref_instr
                ));
            }
        }
    }
    if out.commits == 0 {
        return Err("no commit was checked".into());
    }
    let reference = layers::ref_run("nemu", &e.program, out.instret);
    if reference.instructions != out.instret || reference.gpr != out.gpr || reference.fpr != out.fpr
    {
        return Err(format!(
            "registers after {} instructions differ from the REF-alone run",
            out.instret
        ));
    }
    Ok(())
}

/// Where the wall time of one leg's traced simulations went. A sampled
/// span stands for the `k` calls around it, so a layer's time is its
/// sampled time (less the clock's own cost per span) scaled by calls ÷
/// sampled calls.
struct LegTimes {
    wall_ns: f64,
    core_ns: f64,
    uncore_ns: f64,
    difftest_ns: f64,
    snapshot_ns: f64,
    difftest_ns_per_commit: f64,
}

impl LegTimes {
    fn of(tr: &Tracer, root: &str, c: &LoopCounts, bias_ns: f64) -> Self {
        let (top, kids) = tr.under(root);
        let total = |name: &str| {
            kids.get(name).map_or(0.0, |t| {
                (t.total_ns as f64 - bias_ns * t.count as f64).max(0.0)
            })
        };
        let per_tick = c.ticks as f64 / c.sampled_ticks.max(1) as f64;
        let difftest_ns_per_commit =
            total("minjie.difftest_commit") / c.sampled_commits.max(1) as f64;
        LegTimes {
            wall_ns: top.total_ns as f64,
            core_ns: total("xscore.core_tick") * per_tick,
            uncore_ns: total("uncore.tick") * per_tick,
            difftest_ns: difftest_ns_per_commit * c.commits as f64,
            snapshot_ns: total("minjie.lightsss_snapshot"),
            difftest_ns_per_commit,
        }
    }

    fn share(&self, ns: f64) -> f64 {
        ns / self.wall_ns.max(1.0) * 100.0
    }

    fn print(&self, leg: &str) {
        let rest =
            self.wall_ns - self.core_ns - self.uncore_ns - self.difftest_ns - self.snapshot_ns;
        println!(
            "{leg} leg shares: core tick {:.1} %, uncore tick {:.1} %, difftest {:.1} %, lightsss {:.1} %, rest (skipper, loop, boot) {:.1} %",
            self.share(self.core_ns),
            self.share(self.uncore_ns),
            self.share(self.difftest_ns),
            self.share(self.snapshot_ns),
            self.share(rest)
        );
    }
}

fn time(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

impl Workload for Cosim {
    fn pass(&mut self, host: &mut Host, tr: Option<&mut Tracer>) -> Pass {
        let Some(tr) = tr else {
            return self.run_pass(host, |e, lightsss| {
                layers::cosim_run(PRESET, &e.program, e.cap, lightsss, None)
            });
        };
        let mut counts = self.counts;
        let pass = self.run_pass(host, |e, lightsss| {
            let root = if lightsss { ROOT_SNAP } else { ROOT_OFF };
            let (out, c) =
                layers::cosim_traced(tr, root, PRESET, &e.program, e.cap, lightsss, SAMPLE_K);
            counts[usize::from(lightsss)] += c;
            out
        });
        self.counts = counts;
        pass
    }

    fn layers(&mut self, tr: &mut Tracer, untraced: &[Pass], overhead_pct: f64, out: &mut Layers) {
        let first = &untraced[0];
        out.set("trace_sample_k", SAMPLE_K as f64);
        out.set("minjie.cosim_kcps", leg_median(untraced, "cosim_kcps"));
        out.set(
            "minjie.cosim_lightsss_kcps",
            leg_median(untraced, "cosim_lightsss_kcps"),
        );
        for (name, value) in &first.exact {
            if Layers::listed(name) {
                out.set(name, *value as f64);
            }
        }
        let kinst = exact(first, "sim_instret") as f64 / 1e3;
        for (metric, count) in [
            ("uncore.l1d_miss_per_kinst", "uncore.l1d_misses"),
            ("uncore.l2_miss_per_kinst", "uncore.l2_misses"),
            ("uncore.l3_miss_per_kinst", "uncore.l3_misses"),
        ] {
            out.set(metric, exact(first, count) as f64 / kinst);
        }

        let bias_ns = Tracer::clock_bias_ns();
        let [off_counts, snap_counts] = self.counts;
        let off = LegTimes::of(tr, ROOT_OFF, &off_counts, bias_ns);
        let snap = LegTimes::of(tr, ROOT_SNAP, &snap_counts, bias_ns);
        let traced_passes = tr.under(ROOT_OFF).0.count as f64 / self.off.len() as f64;
        let cycles = off_counts.cycles as f64;
        out.set("xscore.ticks", off_counts.ticks as f64 / traced_passes);
        out.set(
            "xscore.skip_ratio_milli",
            (1.0 - off_counts.ticks as f64 / cycles) * 1000.0,
        );
        out.set("xscore.core_tick_ns_per_cycle", off.core_ns / cycles);
        out.set("uncore.tick_ns_per_cycle", off.uncore_ns / cycles);
        out.set("minjie.difftest_ns_per_commit", off.difftest_ns_per_commit);
        let snapshot_us: Vec<f64> = tr
            .durations("minjie.lightsss_snapshot")
            .iter()
            .map(|&ns| ns as f64 / 1e3)
            .collect();
        out.set("minjie.lightsss_snapshot_us", median(&snapshot_us));
        out.set(
            "minjie.lightsss_snapshot_max_us",
            snapshot_us.iter().copied().fold(0.0, f64::max),
        );
        println!("clock cost per span {bias_ns:.1} ns (subtracted from sampled spans)");
        // Shares are only as good as the traced loop is faithful.
        if overhead_pct <= 25.0 {
            off.print("LightSSS-off");
            snap.print("LightSSS");
            out.set("xscore.core_tick_share", off.share(off.core_ns));
            out.set("uncore.tick_share", off.share(off.uncore_ns));
            out.set("minjie.difftest_share", off.share(off.difftest_ns));
            out.set("minjie.lightsss_share", snap.share(snap.snapshot_ns));
        } else {
            println!("tracing overhead {overhead_pct:.1} % exceeds 25 %: per-layer shares withheld (reported as 0)");
        }

        // The REF stepped alone over the same instruction streams.
        let mut ref_secs = 0.0;
        let mut ref_steps = 0;
        for e in &self.off {
            let retired = e.retired.get();
            ref_secs +=
                time(|| ref_steps += layers::ref_step("arch", &e.program, retired).instructions);
        }
        let ref_ns_per_commit = ref_secs * 1e9 / ref_steps.max(1) as f64
            * exact(first, "sim_instret") as f64
            / exact(first, "minjie.commits_checked").max(1) as f64;
        out.set("nemu.ref_step_ns_per_commit", ref_ns_per_commit);
        out.set(
            "minjie.checker_ns_per_commit",
            off.difftest_ns_per_commit - ref_ns_per_commit,
        );

        // Whole-run comparisons against the untraced legs of this run.
        let dut_s = time(|| {
            for e in &self.off {
                layers::dut_run(PRESET, &e.program, e.cap);
            }
        });
        out.set(
            "minjie.cosim_over_dut_pct",
            pct_over(leg_median(untraced, "cosim_off_leg_s"), dut_s),
        );
        let snap_off_s = time(|| {
            for e in &self.snap {
                layers::cosim_run(PRESET, &e.program, e.cap, false, None);
            }
        });
        out.set(
            "minjie.lightsss_tax_pct",
            pct_over(leg_median(untraced, "cosim_lightsss_leg_s"), snap_off_s),
        );

        let (cosim_boot, system_boot) = layers::boot_us(PRESET, &self.off[0].program, 20);
        out.set("minjie.cosim_boot_us", cosim_boot);
        out.set("xscore.system_boot_us", system_boot);

        if let Some(e) = self
            .tax_kernel
            .and_then(|k| self.off.iter().find(|e| e.kernel == k))
        {
            let run =
                |flag| time(|| drop(layers::cosim_run(PRESET, &e.program, e.cap, false, flag)));
            let base = run(None);
            out.set(
                "minjie.telemetry_tax_pct",
                pct_over(run(Some(Flag::Telemetry)), base),
            );
            out.set(
                "xscore.lifecycle_tax_pct",
                pct_over(run(Some(Flag::Lifecycle)), base),
            );
            out.set(
                "minjie.coverage_tax_pct",
                pct_over(run(Some(Flag::Coverage)), base),
            );
        }
    }
}
