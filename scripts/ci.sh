#!/usr/bin/env bash
# Tier-1 verification gate. Every PR must pass this script unchanged:
#
#   1. release build of the whole workspace,
#   2. the full test suite (unit + integration + property + doc tests,
#      and the CLI smokes of tests/cli_smoke.rs: triage, lifecycle, perf,
#      the two `--mp` smokes — litmus determinism with live `mp:`
#      coverage; injected L2 probe/grant race -> ForbiddenOutcome ->
#      minimize -> bundle -> `replay --bundle` at the same commit — and
#      the sampling smoke: three `campaign --sample` farms on one
#      checkpoint directory, cold, warm and over a torn blob, with
#      byte-identical bodies and the top-down identity on every sample
#      window — the fuzz determinism smoke: two identical
#      coverage-guided campaigns, byte-identical bodies, coverage
#      growing strictly round over round — and the report readers'
#      limits: a 200-job report read back in seconds, nesting bombs and
#      other schema versions refused in one line), then
#      `xscore` again in an optimised build, where its model-based
#      proptests (ROB ring, wakeup queues) and the skipper oracle run at
#      full size (the debug build samples them), with the allocation
#      budget of the DUT tick (tests/alloc_budget.rs) beside it,
#   3. a smoke verification campaign — 2 workloads x 2 configs x 4
#      torture seeds (12 jobs) sharded over 4 workers, with a hard
#      wall-clock timeout and a JSON-validity check on the report,
#   4. a fuzz smoke — an injected-bug fuzz campaign must find, triage,
#      and replay the divergence (steps 3 and 4 read their reports with
#      python's `json` on purpose: see the comment at step 3),
#   5. a bench smoke — scripts/bench.sh emits a schema-clean
#      BENCH_fig8.json covering every interpreter personality and the
#      cycle model on both small presets; the regenerated cycle_model
#      body (cycles / instret / cpi_milli) must match the committed
#      BENCH_fig8.json exactly and timing.sim_kilocycles_per_sec must be
#      present and nonzero (no wall-clock threshold — rates are
#      machine-dependent); the golden_bench pins pass, and a 12-job
#      campaign with the superblock trace tier as the DiffTest REF runs
#      to completion twice with byte-identical deterministic report
#      bodies,
#   6. the benchmark's correctness check — `benchmark/run.sh --check`
#      (about 10 s, no timing): kernels co-simulated to halt and
#      compared with the REF alone, run()/step_one()/profiling legs
#      against an independent personality, `sim_digest` stable across
#      passes, 1- vs 2-worker report bodies identical — so a
#      stepping-path regression fails the gate, not just the benchmark.
#
# The campaign step is what the paper calls the verification flow: any
# DUT regression that makes a workload diverge, hang, or panic fails
# the gate with a minimized reproducer in the report.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: cargo build --release =="
cargo build --release

echo "== tier-1: cargo test -q =="
cargo test -q

echo "== tier-1: cargo test -q --workspace =="
cargo test -q --workspace

echo "== tier-1: cargo test -q --release -p xscore (+ the tick's allocation budget) =="
cargo test -q --release -p xscore
cargo test -q --release --test alloc_budget

echo "== tier-1: smoke campaign (2 workloads x 2 configs x 4 seeds) =="
report="$(mktemp /tmp/campaign-smoke.XXXXXX.json)"
trap 'rm -f "$report"' EXIT
timeout 600 target/release/campaign \
    --workloads mcf,libquantum \
    --configs small-nh,small-yqh \
    --torture-seeds 0..4 \
    --workers 4 \
    --out "$report"

# This block and the fuzz-bug block below stay in python on purpose:
# every Rust test reads a report with the same vendored serde_json that
# wrote it, and `json.load` is the one parser here that is independent
# of that writer — on a plain report and on one with a triage bundle.
python3 - "$report" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["schema_version"] == 6, r["schema_version"]
s = r["summary"]
assert s["total"] == 12 and s["halted"] == 12, s
assert len(r["jobs"]) == 12
assert all(j["cycles"] > 0 and j["commits_checked"] > 0 for j in r["jobs"])
assert "timing" in r
print("smoke campaign report OK:", s)
EOF

echo "== tier-1: fuzz smoke (injected bug -> triage -> replay) =="
fuzz_bug="$(mktemp /tmp/fuzz-bug.XXXXXX.json)"
fuzz_bundles="$(mktemp -d /tmp/fuzz-bundles.XXXXXX)"
trap 'rm -f "$report" "$fuzz_bug"; rm -rf "$fuzz_bundles"' EXIT
set +e
timeout 300 target/release/campaign \
    --fuzz --rounds 2 --fuzz-jobs 4 --fuzz-seed 5 \
    --configs small-nh \
    --inject-bug mul-low-bit \
    --lightsss 2000 \
    --workers 2 \
    --no-minimize \
    --bundle-dir "$fuzz_bundles" \
    --out "$fuzz_bug"
rc=$?
set -e
if [ "$rc" -ne 1 ]; then
    echo "fuzz bug smoke: expected exit 1 (diverged jobs), got $rc" >&2
    exit 1
fi

fuzz_bundle="$(python3 - "$fuzz_bug" "$fuzz_bundles" <<'EOF'
import json, os, sys
r = json.load(open(sys.argv[1]))
diverged = [j for j in r["jobs"] if "Diverged" in j["verdict"]]
assert diverged, "fuzz campaign missed the injected bug"
bundled = [j for j in diverged if j.get("triage")]
assert bundled, "diverged fuzz jobs carry no triage bundle"
j = bundled[0]
b = j["triage"]
assert b["trigger"] == "diverged" and b["reproduced"], b
assert b["job_index"] == j["index"], "fuzz job re-indexing broke the bundle"
path = os.path.join(sys.argv[2], f"job{j['index']}.bundle.json")
assert os.path.exists(path), f"bundle file missing: {path}"
print(path)
EOF
)"
echo "fuzz bug bundle: $fuzz_bundle"
timeout 300 target/release/replay --bundle "$fuzz_bundle"

echo "== tier-1: bench smoke (BENCH_fig8.json + --ref nemu-trace campaign) =="
bench_json="$(mktemp /tmp/bench-smoke.XXXXXX.json)"
trace_a="$(mktemp /tmp/trace-ref-a.XXXXXX.json)"
trace_b="$(mktemp /tmp/trace-ref-b.XXXXXX.json)"
trap 'rm -f "$report" "$fuzz_bug" "$bench_json" "$trace_a" "$trace_b"; rm -rf "$fuzz_bundles"' EXIT
# Reduced fuel keeps the leg fast; the committed BENCH_fig8.json (which
# golden_bench pins for speed ordering) is generated at full budget.
MINJIE_BENCH_FUEL=20000000 MINJIE_BENCH_OUT="$bench_json" scripts/bench.sh

python3 - "$bench_json" BENCH_fig8.json <<'EOF'
import json, math, sys
r = json.load(open(sys.argv[1]))
committed = json.load(open(sys.argv[2]))
assert r["schema_version"] == 4, r["schema_version"]
assert r["figure"] == "fig8"
ps = r["personalities"]
assert len(ps) >= 5, f"personality set shrank: {sorted(ps)}"
counts = {p["instructions"] for p in ps.values()}
assert len(counts) == 1, f"personalities disagree on retired instructions: {ps}"
assert r["campaign"]["ref"] == "nemu-trace"
assert r["campaign"]["halted"] == r["campaign"]["jobs"] > 0, r["campaign"]
assert set(r["timing"]["mips"]) == set(ps), "timing.mips personality set drifted"
cm = r["cycle_model"]
assert set(cm) == {"small-nh", "small-yqh"}, f"cycle-model preset set drifted: {sorted(cm)}"
for preset, e in cm.items():
    assert e["cycles"] > 0 and e["instret"] > 0, (preset, e)
    assert e["cpi_milli"] == e["cycles"] * 1000 // e["instret"], (preset, e)
# The cycle model is deterministic and its budget (MINJIE_BENCH_CYCLES)
# is not reduced by this smoke, so the regenerated body must match the
# committed BENCH_fig8.json exactly — a drift means the microarchitecture
# changed without regenerating the committed report.
assert cm == committed["cycle_model"], (
    f"cycle_model drifted from committed BENCH_fig8.json:\n"
    f"  regenerated: {cm}\n  committed:   {committed['cycle_model']}"
)
# Simulation rates are machine-dependent: assert presence and sanity
# only, never a wall-clock threshold.
rates = r["timing"]["sim_kilocycles_per_sec"]
assert set(rates) == set(cm), "cycle-model rate set drifted"
for preset, kcps in rates.items():
    assert math.isfinite(kcps) and kcps > 0, (preset, kcps)
by_wl = r["timing"]["sim_kilocycles_per_sec_by_workload"]
assert set(by_wl) == set(cm), "per-workload rate preset set drifted"
for preset, entries in by_wl.items():
    assert entries, f"{preset}: empty per-workload rate map"
    for name, kcps in entries.items():
        assert math.isfinite(kcps) and kcps > 0, (preset, name, kcps)
print("bench smoke report OK:", {n: round(m, 1) for n, m in r["timing"]["mips"].items()},
      {p: e["cpi_milli"] for p, e in cm.items()},
      {p: round(k, 1) for p, k in rates.items()})
EOF

cargo test -q --test golden_bench

# The trace tier as the DiffTest REF: same 12-job smoke as step 3, run
# twice; both must halt everywhere and agree byte for byte once the
# timing section is dropped.
for f in "$trace_a" "$trace_b"; do
    timeout 600 target/release/campaign \
        --workloads mcf,libquantum \
        --configs small-nh,small-yqh \
        --torture-seeds 0..4 \
        --workers 4 \
        --ref nemu-trace \
        --out "$f"
done

python3 - "$trace_a" "$trace_b" <<'EOF'
import json, sys
a = json.load(open(sys.argv[1]))
b = json.load(open(sys.argv[2]))
s = a["summary"]
assert s["total"] == 12 and s["halted"] == 12, s
for r in (a, b):
    del r["timing"]
assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True), \
    "--ref nemu-trace campaign bodies differ between identical runs"
print("trace-REF campaign OK:", s)
EOF

echo "== tier-1: benchmark --check (exit words, register files, digests; no timing) =="
timeout 600 bash benchmark/run.sh --check

echo "== tier-1 gate passed =="
