//! Campaign-runner integration: the injected-bug acceptance pipeline
//! (catch → minimize → report) and report determinism.

use campaign::{error_class, Campaign, CampaignReport, JobSpec, TriageBundle, Verdict, WorkloadSource};
use workloads::{TortureConfig, TortureProgram};
use xscore::InjectedBug;

/// `report` as `campaign --out` writes it and the readers load it: the
/// text and every bundle in it must read back and print back byte for
/// byte, so a field dropped on read fails here.
fn read_back(report: &CampaignReport) -> CampaignReport {
    let text = report.full_json();
    let read = CampaignReport::from_json(&text).unwrap_or_else(|e| panic!("{e}"));
    assert!(read.full_json() == text, "the report does not read back byte for byte");
    for bundle in read.jobs.iter().filter_map(|j| j.triage.as_ref()) {
        // As `campaign --bundle-dir` writes it.
        let text = serde_json::to_string_pretty(bundle).unwrap();
        let read = TriageBundle::from_json(&text).unwrap_or_else(|e| panic!("{e}"));
        assert!(serde_json::to_string_pretty(&read).unwrap() == text, "a bundle does not read back");
    }
    read
}

fn bug_campaign(seeds: std::ops::Range<u64>) -> Campaign {
    let cfg = TortureConfig::default();
    let jobs: Vec<JobSpec> = seeds
        .map(|seed| {
            JobSpec::new(WorkloadSource::torture(seed, cfg), "small-nh")
                .with_injected_bug(InjectedBug::MulLowBit)
                .with_max_cycles(8_000_000)
                .with_lightsss(2_000)
        })
        .collect();
    Campaign::new(jobs).with_workers(4)
}

#[test]
fn injected_bug_is_caught_minimized_and_reported() {
    let report = read_back(&bug_campaign(0..6).run());
    assert_eq!(report.summary.total, 6);
    assert!(
        report.summary.diverged >= 2,
        "the corrupted Mul writeback must diverge on several seeds: {}",
        report.deterministic_json()
    );
    assert_eq!(report.summary.panicked, 0);

    for j in &report.jobs {
        let Verdict::Diverged { error } = &j.verdict else {
            continue;
        };
        assert_eq!(error_class(error), "Writeback", "{error:?}");
        // Replay window attached (LightSSS was on).
        let replay = j.replay.as_ref().expect("replay window attached");
        assert!(replay.from_cycle <= replay.at_cycle);
        // Minimized reproducer attached and ≤ 25 % of the original.
        let m = j.minimized.as_ref().expect("minimized reproducer attached");
        assert_eq!(m.error_class, "Writeback");
        assert!(
            m.minimized_kept * 4 <= m.original_kept,
            "minimized to {}/{} slots — not ≤ 25 %",
            m.minimized_kept,
            m.original_kept
        );
        assert_eq!(m.kept.len() as u64, m.minimized_kept);

        // The reproducer actually reproduces: re-emit the minimized
        // subset and re-run under the same corrupted configuration.
        let tcfg = m.torture.expect("torture reproducer");
        let t = TortureProgram::generate(m.seed, &tcfg);
        let mut mask = vec![false; t.len()];
        for &i in &m.kept {
            mask[i as usize] = true;
        }
        let program = t.emit_subset(&mask);
        let mut cfg = xscore::XsConfig::preset("small-nh").unwrap();
        cfg.run.injected_bug = Some(InjectedBug::MulLowBit);
        match minjie::run_isolated(cfg, &program, 8_000_000, None) {
            Ok(minjie::RunStats {
                end: minjie::CoSimEnd::Bug(b),
                ..
            }) => assert_eq!(error_class(&b.error), "Writeback"),
            other => panic!("reproducer must still diverge, got {other:?}"),
        }
    }
}

#[test]
fn diverged_jobs_carry_a_bundle_that_replays_at_the_same_commit() {
    // The ISSUE 3 acceptance loop: a MulLowBit campaign with LightSSS on
    // must yield a replay bundle for every divergence, and re-executing
    // the bundle's recipe from reset must reproduce the identical
    // DiffError at the identical commit index.
    let report = read_back(&bug_campaign(0..3).run());
    let mut verified = 0;
    for j in &report.jobs {
        let Verdict::Diverged { error } = &j.verdict else {
            assert!(j.triage.is_none(), "only failed jobs are triaged");
            continue;
        };
        let bundle = j.triage.as_ref().expect("diverged job carries a bundle");
        assert_eq!(bundle.trigger, "diverged");
        assert_eq!(bundle.error.as_ref(), Some(error));
        assert_eq!(bundle.at_commit, j.commits_checked, "anchor = detection point");
        assert!(bundle.reproduced, "rollback replay reproduced in-run");
        assert!(!bundle.commit_tail.is_empty(), "commit tail captured");
        assert!(bundle.window_cpi.total() > 0, "window CPI stack is live");
        assert!(
            bundle.minimized.is_some(),
            "minimized reproducer rides inside the bundle"
        );
        let v = campaign::verify_bundle(bundle).expect("bundle recipe resolves");
        assert!(v.reproduced, "bundle replay diverges identically: {}", v.detail);
        assert_eq!(v.at_commit, bundle.at_commit, "identical commit index");
        verified += 1;
    }
    assert!(verified >= 1, "at least one divergence verified end to end");
}

#[test]
fn clean_presets_never_diverge_on_the_same_seeds() {
    // Control: identical jobs without the injected bug sail through.
    let cfg = TortureConfig::default();
    let jobs: Vec<JobSpec> = (0..6)
        .map(|seed| {
            JobSpec::new(WorkloadSource::torture(seed, cfg), "small-nh")
                .with_max_cycles(8_000_000)
        })
        .collect();
    let report = read_back(&Campaign::new(jobs).with_workers(4).run());
    assert_eq!(report.summary.halted, 6, "{}", report.deterministic_json());
}

#[test]
fn identical_campaigns_produce_byte_identical_report_bodies() {
    // Includes diverging jobs, so minimizer AND triage determinism are
    // covered: the embedded replay bundles must be byte-identical too.
    let a = bug_campaign(0..4).run();
    let b = bug_campaign(0..4).run();
    let body = a.deterministic_json();
    assert_eq!(
        body,
        b.deterministic_json(),
        "deterministic body must not depend on scheduling or wall clock"
    );
    assert!(body.contains("\"triage\""), "bundles are part of the body");
    // The lifecycle layer is part of the deterministic body too: every
    // perf snapshot embeds the digest and failed-job bundles carry the
    // crash ring, so two same-seed campaigns must agree on both.
    assert!(body.contains("\"lifecycle\""), "lifecycle digest in the body");
    assert!(
        body.contains("\"lifecycle_ring\""),
        "bundle crash rings are part of the body"
    );
    // No wall-clock-derived field may leak into the deterministic body.
    for leak in ["total_ms", "per_job_ms", "\"timing\"", "wall_clock"] {
        assert!(!body.contains(leak), "timing leak: {leak}");
    }
    // And the full reports read back, timing section included.
    let full = read_back(&a);
    assert_eq!(full.wall_clock.attempts.len(), 4);
    assert_eq!(full.jobs[0].workload, "torture:seed=0");
}

#[test]
fn the_full_report_is_the_body_plus_timing_with_every_section_present() {
    // Bundles from the injected bug, plus the two sections only fuzz and
    // sampling campaigns write.
    let mut report = bug_campaign(0..3).run();
    assert!(report.jobs.iter().any(|j| j.triage.is_some()));
    report.fuzz = Some(campaign::FuzzSummary {
        fuzz_seed: 5,
        rounds: vec![campaign::FuzzRound {
            round: 0,
            jobs: 3,
            new_features: 40,
            cumulative_features: 40,
            corpus_size: 2,
        }],
        total_features: 40,
    });
    report.sampling.push(campaign::SamplingSummary {
        workload: "kernel:sjeng".into(),
        config: "small-nh".into(),
        ref_model: "nemu-trace".into(),
        interval_len: 5000,
        total_intervals: 8,
        total_instructions: 39_000,
        checkpoints: 1,
        aggregated: 1,
        weighted_cpi_milli: 1042,
        phases: vec![campaign::SamplingPhase {
            job_index: 0,
            interval: 3,
            members: 8,
            cpi_milli: 1042,
        }],
    });
    let text = report.full_json();
    let keys: Vec<&str> = text
        .lines()
        .filter_map(|l| l.strip_prefix("  \"")?.split_once('"').map(|(key, _)| key))
        .collect();
    let all = ["fuzz", "jobs", "sampling", "schema_version", "summary", "timing", "workers"];
    assert_eq!(keys, all);
    // Every section reads back, so the full text prints back whole; the
    // body is that text without the timing section.
    let read = read_back(&report);
    assert_eq!(read.fuzz, report.fuzz);
    let timing = serde_json::to_string_pretty(&report.wall_clock).unwrap().replace('\n', "\n  ");
    let body = report.deterministic_json();
    assert_eq!(text.replacen(&format!(",\n  \"timing\": {timing}"), "", 1), body);
}

#[test]
fn bundle_lifecycle_rings_are_bounded_and_well_formed() {
    // Size discipline: the always-on crash ring snapshotted into a
    // triage bundle is capped at LIFECYCLE_RING_CAP records per core
    // and every record is either retired or cause-tagged — the bundle
    // stays recipe-sized, never a full trace dump.
    let report = bug_campaign(0..4).run();
    let mut bundles = 0;
    for j in &report.jobs {
        let Some(bundle) = j.triage.as_ref() else {
            continue;
        };
        bundles += 1;
        assert!(
            !bundle.lifecycle_ring.is_empty(),
            "failed job {} has an empty crash ring",
            j.index
        );
        assert!(
            bundle.lifecycle_ring.len() <= xscore::LIFECYCLE_RING_CAP,
            "job {}: ring holds {} records, cap is {}",
            j.index,
            bundle.lifecycle_ring.len(),
            xscore::LIFECYCLE_RING_CAP
        );
        for r in &bundle.lifecycle_ring {
            assert!(
                r.retired() || r.cause.is_some(),
                "job {}: ring record neither retired nor cause-tagged: {r:?}",
                j.index
            );
            assert!(r.stamps.fetched > 0, "job {}: unfetched ring record", j.index);
        }
    }
    assert!(bundles >= 1, "no bundle produced to inspect");
    // The rings survive a JSON round trip inside their bundles.
    read_back(&report);
}

#[test]
fn worker_count_does_not_change_the_report_body() {
    let serial = bug_campaign(0..3).with_workers(1).run();
    let parallel = bug_campaign(0..3).with_workers(4).run();
    // Bodies differ only in the recorded worker count; job records match.
    let js = |r: &CampaignReport| serde_json::to_string(&read_back(r).jobs).unwrap();
    assert_eq!(js(&serial), js(&parallel));
}

#[test]
fn two_harts_without_a_shared_llc_are_refused_not_spun() {
    // `small-yqh` has no L3: with two cores its private L2s would never
    // see each other's stores, and every litmus job used to spin to its
    // sync timeout (1.38 M instructions) and still report `halted`. The
    // job must be refused with a diagnosis; `small-nh` x 2 must still run
    // to an allowed outcome.
    use workloads::litmus::{status, LitmusConfig, LitmusExit};
    let job = |config: &str| {
        JobSpec::new(WorkloadSource::litmus(7, LitmusConfig::default()), config)
            .with_cores(2)
            .with_max_cycles(400_000)
    };
    let report = Campaign::new(vec![job("small-yqh"), job("small-nh")]).with_workers(2).run();
    let Verdict::Panicked { message } = &report.jobs[0].verdict else {
        panic!("small-yqh x 2 cores ran: {:?}", report.jobs[0].verdict);
    };
    assert!(message.contains("no shared last-level cache"), "{message}");
    assert_eq!(report.jobs[0].cycles, 0, "a refused job simulates nothing");
    let Verdict::Halted { exit_code } = report.jobs[1].verdict else {
        panic!("small-nh x 2 cores: {:?}", report.jobs[1].verdict);
    };
    assert_eq!(LitmusExit::decode(exit_code).status, status::OK);
}

#[test]
fn a_recipe_that_cannot_be_built_downs_one_job_not_the_pool() {
    // `workloads::workload` panics on an unknown name. The build runs on
    // the worker, inside the job's panic boundary, so the bogus job in
    // the middle is one `Panicked` record and its neighbours still run.
    let job = |name: &str| {
        JobSpec::new(WorkloadSource::kernel(name), "small-nh").with_max_cycles(8_000_000)
    };
    let report = Campaign::new(vec![job("mcf"), job("nosuch"), job("sjeng")])
        .with_workers(2)
        .run();
    assert_eq!(report.summary.total, 3);
    assert_eq!(report.summary.halted, 2, "{}", report.deterministic_json());
    for i in [0, 2] {
        let v = &report.jobs[i].verdict;
        assert!(matches!(v, Verdict::Halted { .. }), "job {i}: {v:?}");
    }
    let Verdict::Panicked { message } = &report.jobs[1].verdict else {
        panic!("bogus kernel ran: {:?}", report.jobs[1].verdict);
    };
    assert!(message.contains("nosuch"), "{message}");
    // Triage rebooted the recipe and met the same panic at cycle 0.
    let bundle = report.jobs[1]
        .triage
        .as_ref()
        .expect("panicked jobs are triaged");
    assert_eq!(bundle.trigger, "panicked");
    assert!(bundle.reproduced && bundle.cycles_replayed == 0);
}
