//! `sample-flow`: the whole `--sample` flow. One pass is a cold
//! `run_sampled` into an empty checkpoint directory (profile → cluster →
//! materialize → simulate → aggregate) followed by a warm one on the same
//! directory (cache load → simulate → aggregate), over the eight integer
//! kernels on both small presets. `run_sampled` always builds its kernels at Test
//! scale, so the workload repeats passes instead of lengthening one. The
//! only workload where `checkpoint` (BBV, k-means, blob format) and the
//! cache hit and miss paths run; cold minus warm isolates profile +
//! cluster + materialize from simulate + aggregate.

use crate::layers::{self, Job, JobKind, SampledOut, Scale};
use crate::metrics::{exact, leg_median, Digest, Host, Layers, Leg, Pass, Workload};
use crate::trace::{timed, Tracer};
use crate::{Size, WORKERS};
use std::path::{Path, PathBuf};
use std::time::Instant;

const PRESETS: [&str; 2] = ["small-nh", "small-yqh"];
/// The eight integer kernels. The four FP kernels are left out because
/// their sample jobs fail today: a DUT restored from a checkpoint starts
/// with a zeroed FP register file, so DiffTest reports a writeback
/// divergence on the first FP result (`namd`, `milc`, `lbm`, `bwaves`,
/// both presets, any interval) — and a workload may not contain
/// operations that fail.
const KERNELS: [&str; 8] = [
    "sjeng",
    "mcf",
    "bzip2",
    "gobmk",
    "hmmer",
    "libquantum",
    "gcc",
    "astar",
];

pub struct SampleFlow {
    kernels: Vec<&'static str>,
    /// `(kernel, preset, CPI × 1000)` of the full simulation.
    full_cpi_milli: Vec<(&'static str, &'static str, u64)>,
    dir: PathBuf,
    passes: u32,
    check_workers: bool,
}

impl SampleFlow {
    pub fn new(size: Size, work: &Path) -> Self {
        // Kernel programs are fixed, and so is their order: with two
        // workers the order decides the makespan, so a seeded shuffle
        // would make the seed a timing input.
        let kernels: Vec<&'static str> = match size {
            Size::Full => KERNELS.to_vec(),
            Size::Check => vec!["sjeng", "mcf", "gcc"],
        };
        // The CPI reference: every kernel × preset simulated in full.
        let jobs: Vec<Job> = PRESETS
            .iter()
            .flat_map(|&preset| {
                kernels.iter().map(move |&k| Job {
                    kind: JobKind::Kernel(k),
                    preset,
                })
            })
            .collect();
        let report = layers::campaign_run(&jobs, WORKERS, false, false);
        let full_cpi_milli = jobs
            .iter()
            .zip(&report.jobs)
            .map(|(job, rec)| {
                assert_eq!(rec.verdict, "halted", "reference run of {:?}", job.kind);
                let JobKind::Kernel(k) = job.kind else {
                    unreachable!("only kernel jobs were built")
                };
                (k, job.preset, rec.cycles * 1000 / rec.instret.max(1))
            })
            .collect();
        let dir = work.join("sample");
        std::fs::create_dir_all(&dir).expect("checkpoint directory is creatable");
        SampleFlow {
            kernels,
            full_cpi_milli,
            dir,
            passes: 0,
            check_workers: size == Size::Check,
        }
    }

    /// Mean |sampled − full| ÷ full, ‰, over the rows of one preset (or all).
    fn cpi_err_milli(&self, out: &SampledOut, preset: Option<&str>) -> u64 {
        let mut sum = 0;
        let mut n = 0;
        for (kernel, p, sampled) in &out.cpi_milli {
            if preset.is_some_and(|want| want != p) {
                continue;
            }
            let full = self
                .full_cpi_milli
                .iter()
                .find(|(k, fp, _)| k == kernel && fp == p)
                .map_or(0, |(_, _, c)| *c);
            sum += sampled.abs_diff(full) * 1000 / full.max(1);
            n += 1;
        }
        sum / n.max(1)
    }
}

impl Workload for SampleFlow {
    fn pass(&mut self, host: &mut Host, mut tr: Option<&mut Tracer>) -> Pass {
        self.passes += 1;
        let dir = self.dir.join(format!("pass-{}", self.passes));
        let mut pass = Pass::default();
        let mut run = |span: &'static str| {
            pass.op(host, || {
                timed(&mut tr, span, || {
                    layers::sampled(&self.kernels, &PRESETS, &dir, WORKERS)
                })
            })
        };
        let (cold, cold_s) = run("campaign.sample_cold");
        let (warm, warm_s) = run("campaign.sample_warm");
        pass.instr = cold.instr + cold.profiled_instr + warm.instr;
        pass.ops = 2;
        for (which, out) in [("cold", &cold), ("warm", &warm)] {
            if out.bad_jobs > 0 || out.cpi_milli.len() != self.kernels.len() * PRESETS.len() {
                pass.failures.push(format!(
                    "{which} pass: {} of {} sample jobs failed, {} estimates",
                    out.bad_jobs,
                    out.jobs,
                    out.cpi_milli.len()
                ));
            }
        }
        if cold.body != warm.body {
            pass.failures
                .push("report body differs between the cold and the warm pass".into());
        }
        if self.check_workers {
            let one = layers::sampled(&self.kernels, &PRESETS, &dir, 1);
            if one.body != warm.body {
                pass.failures
                    .push("report body differs between 1 and 2 workers".into());
            }
        }
        let _ = std::fs::remove_dir_all(&dir);

        pass.legs = vec![
            Leg {
                name: "sample_cold_s",
                unit: "s",
                value: cold_s,
            },
            Leg {
                name: "sample_warm_s",
                unit: "s",
                value: warm_s,
            },
        ];
        pass.exact = vec![
            (
                "checkpoint.sampled_cpi_err_milli",
                self.cpi_err_milli(&cold, None),
            ),
            (
                "checkpoint.cpi_err_milli.small-nh",
                self.cpi_err_milli(&cold, Some("small-nh")),
            ),
            (
                "checkpoint.cpi_err_milli.small-yqh",
                self.cpi_err_milli(&cold, Some("small-yqh")),
            ),
            ("campaign.sample_jobs", cold.jobs),
            ("sim_instret", cold.instr),
            ("profiled_instret", cold.profiled_instr),
        ];
        let mut digest = Digest::new();
        digest.bytes(cold.body.as_bytes());
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
        let first = &untraced[0];
        let cold_ms = leg_median(untraced, "sample_cold_s") * 1e3;
        let warm_ms = leg_median(untraced, "sample_warm_s") * 1e3;
        out.set("campaign.sample_cold_s", cold_ms / 1e3);
        out.set("campaign.sample_warm_s", warm_ms / 1e3);
        for name in [
            "checkpoint.sampled_cpi_err_milli",
            "checkpoint.cpi_err_milli.small-nh",
            "checkpoint.cpi_err_milli.small-yqh",
            "campaign.sample_jobs",
        ] {
            out.set(name, exact(first, name) as f64);
        }

        // The cold pass's own phases, re-driven one at a time: profiling
        // every kernel, then loading a filled cache.
        let t0 = Instant::now();
        for k in &self.kernels {
            let program = layers::kernel(k, Scale::Test);
            layers::profile(
                &program,
                layers::SAMPLE_INTERVAL,
                layers::SAMPLE_MAX_CHECKPOINTS,
            );
        }
        let profile_ms = t0.elapsed().as_secs_f64() * 1e3;
        let dir = self.dir.join("layers");
        layers::sampled(&self.kernels, &PRESETS, &dir, WORKERS);
        let cache_load_ms = layers::cache_load_ms(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        out.set("campaign.sample_profile_ms", profile_ms);
        out.set("campaign.sample_cache_load_ms", cache_load_ms);
        out.set(
            "campaign.sample_materialize_ms",
            cold_ms - warm_ms - profile_ms,
        );
        out.set("campaign.sample_simulate_ms", warm_ms - cache_load_ms);
    }
}
