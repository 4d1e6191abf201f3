//! Golden pins for the tracked `BENCH_paper.json` (`minjie_bench::paper`).
//!
//! - The committed file goes through `paper::load` — schema gate,
//!   canonical-text check, derived figures recomputed, gates — and its
//!   CPI figures sit in a plausible band. (That it equals what the
//!   sources regenerate is `scripts/ci.sh`'s `git diff --exit-code` after
//!   the bench harness.)
//! - A smoke-budget body measured through the same code serializes
//!   identically twice, on one thread or two, and round-trips through
//!   `load`.
//! - Hostile files are refused in one line, never a panic.

use minjie_bench::paper::{self, Budgets};
use workloads::Scale;

fn committed() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_paper.json");
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

#[test]
fn emitted_report_is_schema_clean() {
    let body = paper::measure(&Budgets::SMOKE);
    assert_eq!(paper::load(&body.to_json()), Ok(body));
}

/// The body's instruction totals come from `run()`; every production
/// consumer steps. Both are wrappers over `run_until`, so for every
/// registry personality the `step_one()`-driven total over the suite
/// must equal the `run()` total under the same fuel.
#[test]
fn stepped_instruction_totals_equal_run_totals() {
    let fuel = Budgets::SMOKE.fuel;
    for p in nemu::registry::PERSONALITIES {
        let (mut ran, mut stepped) = (0u64, 0u64);
        for w in workloads::all_workloads(Scale::Test) {
            ran += (p.build)(&w.program).run(fuel).instructions;
            let mut engine = (p.build)(&w.program);
            for _ in 0..fuel {
                if engine.step_one().halted {
                    break;
                }
            }
            stepped += engine.hart().instret;
        }
        assert_eq!(
            stepped, ran,
            "{}: step_one() and run() totals differ",
            p.name
        );
    }
}

#[test]
fn report_body_is_deterministic_and_wall_clock_free() {
    let a = paper::measure(&Budgets::SMOKE).to_json();
    let b = paper::measure(&Budgets::SMOKE).to_json();
    assert_eq!(a, b, "the body differs between identical runs");
    // ("." is any float: the body is integers and names only.)
    for leak in ["mips", "_ms", "_us", "per_sec", "elapsed", "timing", "."] {
        assert!(!a.contains(leak), "wall-clock field {leak:?} in the body");
    }
    // Nor does it depend on how many threads the runs fanned out over.
    let fig12_on = |threads| paper::measure_fig12(&Budgets::SMOKE, threads);
    assert_eq!(fig12_on(1), fig12_on(2));
}

#[test]
fn committed_report_loads_and_pins_cpi_bands() {
    let body = paper::load(&committed()).expect("committed BENCH_paper.json");
    assert_eq!(
        (body.fig8.fuel, body.fig8.workload.as_str(), body.fig12.workload.as_str()),
        (Budgets::TRACKED.fuel, "spec-like-suite@Test", "spec-like-suite@Bench")
    );
    // An OoO multi-issue core on these kernels sits well inside 0.2..50
    // CPI, full or sampled; the exact figures are the file's own diff.
    // `load` enforces the sampled-error gate; the band catches a broken
    // estimate that happens to sit near a broken baseline.
    for (preset, e) in &body.fig8.cycle_model {
        for cpi in [e.cpi_milli, e.sampled_cpi_milli] {
            assert!(
                (200..50_000).contains(&cpi),
                "{preset}: CPI {cpi} milli-units is implausible"
            );
        }
        assert!(
            e.sampled_cpi_err_milli <= paper::SAMPLED_ERR_BOUND_MILLI,
            "{preset}: {e:?}"
        );
    }
}

#[test]
fn hostile_files_are_refused_in_one_line() {
    let good = committed();
    let edited = |from: &str, to: &str| {
        assert!(good.contains(from), "the committed file lost {from:?}");
        good.replacen(from, to, 1)
    };
    let without = |from: &str, to: &str| {
        let (start, end) = (good.find(from).expect(from), good.find(to).expect(to));
        format!("{}{}", &good[..start], &good[end..])
    };
    let nemu = "      \"nemu\": {\n        \"instructions\": 3355023,\n        \"paper_counterpart\": \"NEMU\"\n      },\n";
    // (case, the file, what the diagnosis must name)
    #[rustfmt::skip]
    let cases = [
        ("timing", edited("  \"schema_version\"", "  \"timing\": {},\n  \"schema_version\""), "\"timing\": {}"),
        ("schema", edited("\"schema_version\": 6", "\"schema_version\": 5"), "bench schema 5, this build reads 6"),
        ("section", without("  \"fig15\": {", "  \"fig8\": {"), "not a bench body"),
        ("personality", edited(nemu, ""), "personalities ["),
        ("cpi", edited("\"cpi_milli\": 1058", "\"cpi_milli\": 1059"), "\"cpi_milli\": 1059, is inconsistent"),
        ("ipc", edited("\"ipc_milli\": 1493", "\"ipc_milli\": 1494"), "\"ipc_milli\": 1494 is inconsistent"),
        ("geomean", edited("\"int_geomean_ipc_milli\": 1176", "\"int_geomean_ipc_milli\": 1177"),
         "which give \"int_geomean_ipc_milli\": 1176"),
        ("gate", edited("\"sampled_cpi_err_milli\": 124", "\"sampled_cpi_err_milli\": 251"), "exceeds the 250"),
        ("truncated", good[..good.len() / 2].to_string(), "parse"),
        ("bomb", "[".repeat(200_000), "nesting deeper than 128"),
    ];
    for (name, text, diagnosis) in cases {
        let err = paper::load(&text).expect_err(name);
        assert!(
            err.contains(diagnosis) && err.lines().count() == 1,
            "{name}: {err}"
        );
    }
}
