//! Golden pins for the tracked `BENCH_fig8.json` (`minjie_bench::fig8`).
//!
//! - The committed file goes through `fig8::load` — schema gate,
//!   canonical-text check, semantic checks — and its CPI figures sit in a
//!   plausible band. (That it equals what the sources regenerate is
//!   `scripts/ci.sh`'s `git diff --exit-code` after the bench harness.)
//! - A tiny-fuel body measured through the same code serializes
//!   identically twice and round-trips through `load`.
//! - Hostile files are refused in one line, never a panic.

use minjie_bench::fig8;
use workloads::Scale;

/// Small budgets keep the measured tier fast; the committed file is
/// `measure(fig8::FUEL, fig8::MAX_CYCLES)`.
const SMOKE_FUEL: u64 = 300_000;
const SMOKE_CYCLES: u64 = 50_000;

fn committed() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_fig8.json");
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

#[test]
fn emitted_report_is_schema_clean() {
    let body = fig8::measure(SMOKE_FUEL, SMOKE_CYCLES);
    assert_eq!(fig8::load(&body.to_json()), Ok(body));
}

/// The body's instruction totals come from `run()`; every production
/// consumer steps. Both are wrappers over `run_until`, so for every
/// registry personality the `step_one()`-driven total over the suite
/// must equal the `run()` total under the same fuel.
#[test]
fn stepped_instruction_totals_equal_run_totals() {
    for p in nemu::registry::PERSONALITIES {
        let (mut ran, mut stepped) = (0u64, 0u64);
        for w in workloads::all_workloads(Scale::Test) {
            ran += (p.build)(&w.program).run(SMOKE_FUEL).instructions;
            let mut engine = (p.build)(&w.program);
            for _ in 0..SMOKE_FUEL {
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
    let a = fig8::measure(SMOKE_FUEL, SMOKE_CYCLES).to_json();
    let b = fig8::measure(SMOKE_FUEL, SMOKE_CYCLES).to_json();
    assert_eq!(a, b, "the body differs between identical runs");
    // ("." is any float: the body is integers and names only.)
    for leak in ["mips", "_ms", "per_sec", "elapsed", "timing", "."] {
        assert!(!a.contains(leak), "wall-clock field {leak:?} in the body");
    }
}

#[test]
fn committed_report_loads_and_pins_cpi_bands() {
    let body = fig8::load(&committed()).expect("committed BENCH_fig8.json");
    assert_eq!(
        (body.fuel, body.workload.as_str()),
        (fig8::FUEL, "spec-like-suite@Test")
    );
    // An OoO multi-issue core on these kernels sits well inside 0.2..50
    // CPI, full or sampled; the exact figures are the file's own diff.
    // `load` enforces the sampled-error gate; the band catches a broken
    // estimate that happens to sit near a broken baseline.
    for (preset, e) in &body.cycle_model {
        for cpi in [e.cpi_milli, e.sampled_cpi_milli] {
            assert!(
                (200..50_000).contains(&cpi),
                "{preset}: CPI {cpi} milli-units is implausible"
            );
        }
        assert!(
            e.sampled_cpi_err_milli <= fig8::SAMPLED_ERR_BOUND_MILLI,
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
    let nemu = "    \"nemu\": {\n      \"instructions\": 3355023,\n      \"paper_counterpart\": \"NEMU\"\n    },\n";
    // (case, the file, what the diagnosis must name)
    let cases = [
        (
            "timing",
            edited("  \"workload\"", "  \"timing\": {},\n  \"workload\""),
            "\"timing\": {}",
        ),
        (
            "schema",
            edited("\"schema_version\": 5", "\"schema_version\": 4"),
            "bench schema 4, this build reads 5",
        ),
        ("personality", edited(nemu, ""), "the registry holds"),
        (
            "cpi",
            edited("\"cpi_milli\": 1058", "\"cpi_milli\": 1059"),
            "cpi_milli 1059 inconsistent",
        ),
        (
            "gate",
            edited(
                "\"sampled_cpi_err_milli\": 124",
                "\"sampled_cpi_err_milli\": 251",
            ),
            "exceeds the 250",
        ),
        ("truncated", good[..good.len() / 2].to_string(), "parse"),
        ("bomb", "[".repeat(200_000), "nesting deeper than 128"),
    ];
    for (name, text, diagnosis) in cases {
        let err = fig8::load(&text).expect_err(name);
        assert!(
            err.contains(diagnosis) && err.lines().count() == 1,
            "{name}: {err}"
        );
    }
}
