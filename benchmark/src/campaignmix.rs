//! `campaign-mix`: one `Campaign::run()` per pass — two workers, LightSSS
//! on, minimization and triage on — over a seeded mix of very short jobs,
//! with `full_json()` inside the timed region. A torture or litmus job
//! simulates a few thousand cycles, so program generation, system
//! construction, the reset-state clone, record assembly and JSON are a
//! large part of every job: this is the workload where `campaign` and
//! `workloads` do their work.

use crate::layers::{self, Bug, CampaignOut, Job, JobKind};
use crate::metrics::{leg_median, median, Digest, Host, Layers, Leg, Pass, Rng, Workload};
use crate::trace::{timed, Tracer};
use crate::{Size, WORKERS};

const PRESETS: [&str; 2] = ["small-nh", "small-yqh"];
/// Jobs per pass by kind: 70 % torture, 15 % litmus, 14 % kernels, 1 %
/// injected bugs (rounded up to two per bug).
const TORTURE: usize = 280;
const LITMUS: usize = 60;
const KERNEL: usize = 56;
const INJECT_PER_BUG: usize = 2;
/// The Test-scale kernels short enough to sit beside torture jobs.
const KERNELS: [&str; 3] = ["namd", "milc", "mcf"];
const REF_FUEL: u64 = 50_000_000;

pub struct CampaignMix {
    jobs: Vec<Job>,
    /// REF-alone exit word of every single-hart clean job.
    expected_exit: Vec<Option<u64>>,
    check_workers: bool,
}

impl CampaignMix {
    pub fn new(seed: u64, size: Size) -> Self {
        let shrink = |n: usize| match size {
            Size::Full => n,
            Size::Check => n.div_ceil(10),
        };
        let mut rng = Rng(seed);
        let mut jobs = Vec::new();
        let mut preset = {
            let mut n = 0;
            move || {
                n += 1;
                PRESETS[n % 2]
            }
        };
        for _ in 0..shrink(TORTURE) {
            jobs.push(Job {
                kind: JobKind::Torture(rng.next()),
                preset: preset(),
            });
        }
        // Two-hart litmus programs only synchronise on the NH presets: on
        // `small-yqh` every one spins to its sync timeout.
        for _ in 0..shrink(LITMUS) {
            jobs.push(Job {
                kind: JobKind::Litmus(rng.next()),
                preset: "small-nh",
            });
        }
        for i in 0..shrink(KERNEL) {
            jobs.push(Job {
                kind: JobKind::Kernel(KERNELS[i % KERNELS.len()]),
                preset: preset(),
            });
        }
        // An injected-bug job must be one the bug provably corrupts: draw
        // seeds until the REF's own instruction stream says so.
        for bug in [Bug::MulLowBit, Bug::AddwNoSext] {
            let mut found = 0;
            while found < INJECT_PER_BUG {
                let job = Job {
                    kind: JobKind::Inject(rng.next(), bug),
                    preset: preset(),
                };
                if layers::bug_must_show(&job.build(), bug, REF_FUEL) {
                    jobs.push(job);
                    found += 1;
                }
            }
        }
        rng.shuffle(&mut jobs);
        let expected_exit = jobs
            .iter()
            .map(|j| match j.kind {
                JobKind::Torture(_) | JobKind::Kernel(_) => {
                    layers::ref_run("nemu", &j.build(), REF_FUEL).exit_code
                }
                JobKind::Litmus(_) | JobKind::Inject(..) => None,
            })
            .collect();
        CampaignMix {
            jobs,
            expected_exit,
            check_workers: size == Size::Check,
        }
    }

    fn verify(&self, out: &CampaignOut, failures: &mut Vec<String>) {
        if out.jobs.len() != self.jobs.len() {
            failures.push(format!(
                "report holds {} records for {} jobs",
                out.jobs.len(),
                self.jobs.len()
            ));
            return;
        }
        for (i, (job, rec)) in self.jobs.iter().zip(&out.jobs).enumerate() {
            let problem = match job.kind {
                JobKind::Inject(..) => {
                    if rec.verdict != "diverged" {
                        Some(format!("injected bug not caught (verdict {})", rec.verdict))
                    } else if !rec.triaged || !rec.minimized {
                        Some("caught but not minimized and triaged".into())
                    } else {
                        None
                    }
                }
                JobKind::Litmus(_) => match rec.exit_code {
                    Some(code) if layers::litmus_ok(code) => None,
                    Some(code) => Some(format!("litmus exit word {code:#x} is not OK")),
                    None => Some(format!("clean job ended {}", rec.verdict)),
                },
                JobKind::Torture(_) | JobKind::Kernel(_) => {
                    if rec.verdict != "halted" {
                        Some(format!("clean job ended {}", rec.verdict))
                    } else if rec.exit_code != self.expected_exit[i] {
                        Some(format!(
                            "exit word {:?}, REF alone {:?}",
                            rec.exit_code, self.expected_exit[i]
                        ))
                    } else {
                        None
                    }
                }
            };
            if let Some(p) = problem {
                failures.push(format!("job {i} {:?}: {p}", job.kind));
            }
        }
    }
}

impl Workload for CampaignMix {
    fn pass(&mut self, host: &mut Host, mut tr: Option<&mut Tracer>) -> Pass {
        let mut pass = Pass::default();
        let (out, _) = pass.op(host, || {
            let (out, _) = timed(&mut tr, "campaign.run_and_serialize", || {
                layers::campaign_run(&self.jobs, WORKERS, true, true)
            });
            let secs = out.run_s + out.serialize_s;
            (out, secs)
        });
        pass.instr = out.jobs.iter().map(|j| j.instret).sum();
        pass.ops = self.jobs.len() as u64;
        self.verify(&out, &mut pass.failures);
        if self.check_workers {
            let one = layers::campaign_run(&self.jobs, 1, true, true);
            if one.body != out.body {
                pass.failures
                    .push("report body differs between 1 and 2 workers".into());
            }
        }
        pass.legs = vec![
            Leg {
                name: "campaign_jobs_per_s",
                unit: "1/s",
                value: pass.ops as f64 / pass.secs(),
            },
            Leg {
                name: "campaign_serialize_ms",
                unit: "ms",
                value: out.serialize_s * 1e3,
            },
            // Not exact: the report's timing section is part of it.
            Leg {
                name: "campaign_report_bytes",
                unit: "bytes",
                value: out.report_bytes as f64,
            },
        ];
        pass.exact = vec![
            ("sim_cycles", out.jobs.iter().map(|j| j.cycles).sum()),
            ("sim_instret", pass.instr),
            (
                "minjie.commits_checked",
                out.jobs.iter().map(|j| j.commits).sum(),
            ),
        ];
        let mut digest = Digest::new();
        digest.bytes(out.body.as_bytes());
        pass.digest = digest.finish();
        pass
    }

    fn layers(&mut self, tr: &mut Tracer, untraced: &[Pass], _overhead_pct: f64, out: &mut Layers) {
        let first = &untraced[0];
        out.set(
            "campaign.jobs_per_s",
            leg_median(untraced, "campaign_jobs_per_s"),
        );
        out.set(
            "campaign.serialize_ms",
            leg_median(untraced, "campaign_serialize_ms"),
        );
        out.set(
            "campaign.report_bytes",
            leg_median(untraced, "campaign_report_bytes"),
        );
        out.set(
            "minjie.commits_checked",
            crate::metrics::exact(first, "minjie.commits_checked") as f64,
        );

        // The clean jobs of the first third of the list, three ways: each
        // phase re-driven on this thread with spans, then the same jobs
        // through one worker and through two.
        let sample: Vec<Job> = self
            .jobs
            .iter()
            .filter(|j| !matches!(j.kind, JobKind::Inject(..)))
            .take(self.jobs.len() / 3)
            .cloned()
            .collect();
        for job in &sample {
            layers::job_traced(tr, job);
        }
        let totals = tr.totals();
        let mean_us = |name: &str| {
            totals
                .get(name)
                .map_or(0.0, |t| t.total_ns as f64 / 1e3 / t.count.max(1) as f64)
        };
        out.set(
            "workloads.torture_build_us",
            mean_us("workloads.torture_build"),
        );
        out.set(
            "workloads.litmus_build_us",
            mean_us("workloads.litmus_build"),
        );
        out.set(
            "workloads.kernel_build_us",
            mean_us("workloads.kernel_build"),
        );
        out.set("campaign.job_boot_us", mean_us("minjie.cosim_boot"));
        out.set("campaign.job_run_us", mean_us("minjie.cosim_run"));
        // Alternate one worker and two, three times each.
        let wall_s = |workers| {
            let out = layers::campaign_run(&sample, workers, true, true);
            out.run_s + out.serialize_s
        };
        let (mut one, mut two) = (Vec::new(), Vec::new());
        for _ in 0..3 {
            one.push(wall_s(1));
            two.push(wall_s(2));
        }
        let (one, two) = (median(&one), median(&two));
        out.set(
            "campaign.job_overhead_us",
            one * 1e6 / sample.len() as f64 - mean_us("campaign.job"),
        );
        out.set("campaign.worker_scaling_milli", one / two * 1000.0);

        // The injected-bug jobs with minimization and triage peeled off.
        let failing: Vec<Job> = self
            .jobs
            .iter()
            .filter(|j| matches!(j.kind, JobKind::Inject(..)))
            .cloned()
            .collect();
        let run_ms = |minimize, triage| {
            let reps: Vec<f64> = (0..3)
                .map(|_| layers::campaign_run(&failing, 1, minimize, triage).run_s * 1e3)
                .collect();
            median(&reps)
        };
        let (both, triage_only, neither) = (
            run_ms(true, true),
            run_ms(false, true),
            run_ms(false, false),
        );
        out.set(
            "campaign.minimize_ms_per_failure",
            (both - triage_only) / failing.len() as f64,
        );
        out.set(
            "campaign.triage_ms_per_failure",
            (triage_only - neither) / failing.len() as f64,
        );
    }
}
