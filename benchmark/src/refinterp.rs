//! `ref-interp`: the REF alone, no DUT. One pass is three legs over fixed
//! programs — `run()` on `nemu` (the fast path), `step_one()` on
//! `nemu-trace` (the path every production consumer of an interpreter
//! takes), and `generate_checkpoints_with_ref` (BBV profiling, which
//! steps too) — so the gap between the fast path and the stepping path is
//! an end-to-end number. `xscore` and `uncore` do nothing here.

use crate::layers::{self, Program, RefEnd, Scale};
use crate::metrics::{leg_median, Digest, Host, Layers, Leg, Pass, Rng, Workload};
use crate::trace::{timed, Tracer};
use crate::Size;
use std::time::Instant;

const RUN_STEP_KERNELS: [&str; 6] = ["sjeng", "mcf", "gcc", "hmmer", "namd", "milc"];
const PROFILE_KERNELS: [&str; 2] = ["sjeng", "gcc"];
const FUEL: u64 = 500_000_000;
/// `step_one()` calls per kernel in the stepping leg.
const STEP_CAP: u64 = 1_500_000;
const PROFILE_INTERVAL: u64 = 100_000;
const PROFILE_K: usize = 8;
/// An independent implementation (own decode cache, SoftFloat) supplies
/// the reference exit words and register files.
const REFERENCE: &str = "spike-like";

struct Entry {
    kernel: &'static str,
    program: Program,
    /// The reference personality run to halt.
    full: RefEnd,
    /// The reference personality after `step_cap` steps.
    at_cap: RefEnd,
}

pub struct RefInterp {
    entries: Vec<Entry>,
    profiled: Vec<(&'static str, Program, u64)>,
    step_cap: u64,
    profile_interval: u64,
}

impl RefInterp {
    pub fn new(seed: u64, size: Size) -> Self {
        let (scale, profile_scale, step_cap, profile_interval) = match size {
            Size::Full => (Scale::Ref, Scale::Bench, STEP_CAP, PROFILE_INTERVAL),
            Size::Check => (Scale::Test, Scale::Test, FUEL, 2_000),
        };
        let mut entries: Vec<Entry> = RUN_STEP_KERNELS
            .iter()
            .map(|&kernel| {
                let program = layers::kernel(kernel, scale);
                let full = layers::ref_run(REFERENCE, &program, FUEL);
                let at_cap = layers::ref_run(REFERENCE, &program, step_cap);
                Entry {
                    kernel,
                    program,
                    full,
                    at_cap,
                }
            })
            .collect();
        // Kernel programs are fixed; the seed only orders them.
        Rng(seed).shuffle(&mut entries);
        let profiled = PROFILE_KERNELS
            .iter()
            .map(|&kernel| {
                let program = layers::kernel(kernel, profile_scale);
                let instr = layers::ref_run(REFERENCE, &program, FUEL).instructions;
                (kernel, program, instr)
            })
            .collect();
        RefInterp {
            entries,
            profiled,
            step_cap,
            profile_interval,
        }
    }
}

fn digest_end(d: &mut Digest, e: &RefEnd) {
    d.u64(e.instructions);
    d.u64(e.exit_code.unwrap_or(u64::MAX));
    for v in e.gpr.iter().chain(&e.fpr) {
        d.u64(*v);
    }
}

/// Million steps per second of `f`, which returns the steps it took.
fn mips(f: impl FnOnce() -> u64) -> f64 {
    let t0 = Instant::now();
    let steps = f();
    steps as f64 / t0.elapsed().as_secs_f64() / 1e6
}

impl Workload for RefInterp {
    fn pass(&mut self, host: &mut Host, mut tr: Option<&mut Tracer>) -> Pass {
        let mut pass = Pass::default();
        let mut digest = Digest::new();
        let leg =
            |name: &'static str, unit: &'static str, instr: u64, secs: f64, pass: &mut Pass| {
                pass.instr += instr;
                pass.legs.push(Leg {
                    name,
                    unit,
                    value: instr as f64 / secs / 1e6,
                });
            };

        let (mut instr, mut secs) = (0, 0.0);
        for e in &self.entries {
            let (end, op_secs) = pass.op(host, || {
                timed(&mut tr, "nemu.run", || {
                    layers::ref_run("nemu", &e.program, FUEL)
                })
            });
            secs += op_secs;
            instr += end.instructions;
            pass.ops += 1;
            if end != e.full || end.exit_code.is_none() {
                pass.failures.push(format!(
                    "{} run(): {:?} after {} instructions, {REFERENCE} says {:?} after {}",
                    e.kernel,
                    end.exit_code,
                    end.instructions,
                    e.full.exit_code,
                    e.full.instructions
                ));
            }
            digest_end(&mut digest, &end);
        }
        leg("ref_run_mips", "Minstr/s", instr, secs, &mut pass);

        let (mut instr, mut secs) = (0, 0.0);
        for e in &self.entries {
            let (end, op_secs) = pass.op(host, || {
                timed(&mut tr, "nemu.step_loop", || {
                    layers::ref_step("nemu-trace", &e.program, self.step_cap)
                })
            });
            secs += op_secs;
            instr += end.instructions;
            pass.ops += 1;
            if end != e.at_cap {
                pass.failures.push(format!(
                    "{} step_one(): state after {} steps differs from {REFERENCE}'s",
                    e.kernel, end.instructions
                ));
            }
            digest_end(&mut digest, &end);
        }
        leg("ref_step_mips", "Minstr/s", instr, secs, &mut pass);

        let (mut instr, mut secs) = (0, 0.0);
        for (kernel, program, want_instr) in &self.profiled {
            let ((profiled, checkpoints), op_secs) = pass.op(host, || {
                timed(&mut tr, "checkpoint.profile", || {
                    layers::profile(program, self.profile_interval, PROFILE_K)
                })
            });
            secs += op_secs;
            instr += profiled;
            pass.ops += 1;
            if profiled != *want_instr || checkpoints.is_empty() {
                pass.failures.push(format!(
                    "{kernel} profile: {profiled} instructions and {} checkpoints, {REFERENCE} retired {want_instr}",
                    checkpoints.len()
                ));
            }
            digest.u64(profiled);
            for c in &checkpoints {
                digest.u64(c.interval as u64);
                digest.u64(c.members);
                digest.u64(c.instret);
            }
        }
        leg("profile_mips", "Minstr/s", instr, secs, &mut pass);

        pass.digest = digest.finish();
        pass
    }

    fn layers(
        &mut self,
        _tr: &mut Tracer,
        untraced: &[Pass],
        _overhead_pct: f64,
        out: &mut Layers,
    ) {
        out.set("nemu.ref_run_mips", leg_median(untraced, "ref_run_mips"));
        out.set("nemu.ref_step_mips", leg_median(untraced, "ref_step_mips"));
        out.set(
            "checkpoint.profile_mips",
            leg_median(untraced, "profile_mips"),
        );

        // Every personality's fast path and the stepping tiers, on one
        // kernel under one instruction budget.
        let sjeng = layers::kernel("sjeng", Scale::Ref);
        const BUDGET: u64 = 2_000_000;
        let mut run_mips = std::collections::BTreeMap::new();
        for p in layers::personalities() {
            let rate = mips(|| layers::ref_run(p, &sjeng, BUDGET).instructions);
            run_mips.insert(p, rate);
            out.set(&format!("nemu.run_mips.{p}"), rate);
        }
        const STEP_BUDGET: u64 = 1_000_000;
        let step = |p: &str| mips(|| layers::ref_step(p, &sjeng, STEP_BUDGET).instructions);
        out.set("nemu.step_mips.arch", step("arch"));
        let nemu = step("nemu");
        let trace = step("nemu-trace");
        out.set("nemu.step_mips.nemu", nemu);
        out.set("nemu.step_mips.nemu-trace", trace);
        out.set(
            "nemu.step_over_run_milli.nemu",
            nemu / run_mips["nemu"] * 1000.0,
        );
        out.set(
            "nemu.step_over_run_milli.nemu-trace",
            trace / run_mips["nemu-trace"] * 1000.0,
        );
        out.set(
            "nemu.hart_step_mips",
            mips(|| layers::hart_step(&sjeng, STEP_BUDGET)),
        );
        out.set(
            "nemu.boot_us",
            layers::ref_boot_us("nemu-trace", &sjeng, 200),
        );
        out.set("riscv-isa.decode_ns", layers::decode_ns(&sjeng, 20_000));

        // `lbm`'s multi-megabyte footprint is what a LightSSS snapshot clones.
        let lbm = layers::kernel("lbm", Scale::Bench);
        out.set(
            "riscv-isa.mem_clone_us",
            layers::mem_clone_us(&lbm, FUEL, 200),
        );

        let (_, program, _) = &self.profiled[0];
        let (record_ns, cluster_ms, roundtrip_us, blob_bytes) =
            layers::checkpoint_pieces(program, self.profile_interval, PROFILE_K);
        out.set("checkpoint.bbv_record_ns", record_ns);
        out.set("checkpoint.cluster_ms", cluster_ms);
        out.set("checkpoint.blob_roundtrip_us", roundtrip_us);
        out.set("checkpoint.blob_bytes", blob_bytes as f64);
    }
}
