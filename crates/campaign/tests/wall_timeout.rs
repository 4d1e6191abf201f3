//! A timed-out attempt stops: it is not left simulating on a thread of
//! its own after the campaign has written it off.
//!
//! This binary holds exactly one test because it counts the threads of
//! its own process (`/proc/self/task`), and cargo runs the tests of one
//! binary on parallel threads.

use campaign::{Campaign, JobSpec, Policy, Verdict, WorkloadSource};
use std::time::{Duration, Instant};
use workloads::TortureConfig;

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

#[test]
fn a_timed_out_attempt_stops_with_its_job() {
    // A torture job far longer than its 20 ms limit: two attempts time
    // out, and neither may still be running once the campaign returns.
    let slow = TortureConfig {
        body_len: 200,
        iterations: 50_000,
        ..Default::default()
    };
    let jobs = vec![
        JobSpec::new(WorkloadSource::torture(0, slow), "small-nh").with_max_cycles(200_000_000)
    ];
    let policy = Policy {
        workers: 1,
        wall_timeout_ms: Some(20),
        retries: 1,
        backoff_ms: 1,
        ..Policy::default()
    };
    let before = threads();
    let t0 = Instant::now();
    let report = Campaign { jobs, policy }.run();
    let took = t0.elapsed();
    match &report.jobs[0].verdict {
        Verdict::WallTimeout {
            limit_ms: 20,
            attempts: 2,
        } => {}
        other => panic!("expected WallTimeout after 2 attempts, got {other:?}"),
    }
    // The pool's own worker has finished its job but may not have left
    // the process yet: give it a moment, not the minutes an abandoned
    // attempt would spin for.
    let settle = Instant::now();
    while threads() > before && settle.elapsed() < Duration::from_secs(2) {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(threads(), before, "a timed-out attempt is still running");
    // A deadline the loop never read would still be written off, but
    // only after simulating all 200 M cycles twice.
    assert!(
        took < Duration::from_secs(10),
        "the attempts ran for {took:?}"
    );
}
