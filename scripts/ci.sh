#!/usr/bin/env bash
# Tier-1 verification gate. Every PR must pass this script unchanged:
#
#   1. release build of the whole workspace,
#   2. the full test suite, one `--workspace` run that includes the root
#      package (unit + integration + property + doc tests,
#      among them `uncore`'s contention pin: two cores' seeded traffic
#      through the tiny hierarchy, every completion and counter in one
#      digest, so a change to the order of the protocol engine's steps
#      fails here, and the CLI smokes of tests/cli_smoke.rs: triage, lifecycle, perf,
#      the two `--mp` smokes — litmus determinism with live `mp:`
#      coverage; injected L2 probe/grant race -> ForbiddenOutcome ->
#      minimize -> bundle -> `replay --bundle` at the same commit — and
#      the sampling smoke: three `campaign --sample` farms on one
#      checkpoint directory, cold, warm and over a torn blob, with
#      byte-identical bodies and the top-down identity on every sample
#      window — the fuzz determinism smoke: two identical
#      coverage-guided campaigns, byte-identical bodies, coverage
#      growing strictly round over round — the trace tier as the
#      DiffTest REF: the 12-job matrix under `--ref nemu-trace`, twice,
#      byte-identical — the mode-specific flags a `campaign` mode does
#      not honour, and a `--lightsss` or `--job-timeout-ms` of 0: refused
#      with exit 2, never dropped or run, while a job flag such as
#      `--telemetry` reaches `--sample`'s jobs — and the report
#      and bundle readers' limits: a 200-job report read back in seconds,
#      nesting bombs, reports of another schema version or of none, a
#      bundle of another schema under `replay --bundle [--show | --o3]`,
#      a crash ring no core could have written under every report and
#      bundle reader, a bundle asking for 0 cores or a LightSSS interval
#      of 0 under every bundle reader, and a job whose `triage` is not a
#      bundle refused in one line; every report and bundle the smokes write reads
#      back through the typed loaders byte for byte), then
#      `xscore` again in an optimised build, where its model-based
#      proptests (ROB ring, wakeup queues) and the skipper oracle run at
#      full size (the debug build samples them), with the allocation
#      budget of the DUT tick (tests/alloc_budget.rs) beside it, and
#      `riscv-isa` likewise: the generated decoder against the linear
#      scan of the instruction table on 4 M words, all 65 536 RVC words,
#      and the CSR sweep — every address x mode x gate x value through
#      `CsrFile::read`/`write`, against the digest of the hand-written
#      arms the CSR table replaced — and `nemu` likewise: the stepping
#      contract's property tests (every personality's `step_one()`
#      against `hart::step`, field for field) in the build mode the
#      stepping path is tuned for — and the rustdoc links gate: `cargo
#      doc` with broken intra-doc links denied, so deleting an item a doc
#      comment links to fails here and not in a reader's browser,
#   3. a smoke verification campaign — 2 workloads x 2 configs x 4
#      torture seeds (12 jobs) sharded over 4 workers, with a hard
#      wall-clock timeout and a JSON-validity check on the report, plus
#      a 3-job run under `--ref arch` (the cache-free REF that is no
#      longer the default) that must finish with zero divergences,
#   4. a fuzz smoke — an injected-bug fuzz campaign must find, triage,
#      and replay the divergence, `replay --bundle --o3` must export
#      the same bundle's crash ring as O3PipeView `fetch` lines through
#      the bundle gate, and its `replay --show` card must name the bug
#      and the REF the bundle replays under (steps 3 and 4 read their
#      reports with python's `json` on purpose: see the comment at step
#      3), then the §IV-C example must reproduce its race and show the
#      commits' writebacks: it is the only end-to-end exercise of
#      LightSSS replay -> ArchDB -> timeline, and its regression went
#      unseen for want of one,
#   5. the tracked paper body — the one `paper` harness measures every
#      reproduced figure that is a simulated count (Figs. 8, 12, 14, 15,
#      the ablations, the Table I / Fig. 6 snapshot legs, the DRAV rule
#      count; all cycle-model runs under DiffTest), rewrites
#      BENCH_paper.json, a pure function of the sources (no wall-clock
#      in it), prints the tables, and the rewritten file must not differ
#      from the committed one — a diff names the figure that moved,
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

echo "== tier-1: cargo test -q --workspace (the root package's tests among them) =="
cargo test -q --workspace

echo "== tier-1: cargo test -q --release -p xscore -p riscv-isa -p nemu (+ the tick's allocation budget) =="
cargo test -q --release -p xscore
cargo test -q --release -p riscv-isa
cargo test -q --release -p nemu
cargo test -q --release --test alloc_budget

echo "== tier-1: rustdoc intra-doc links =="
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" cargo doc --no-deps --workspace -q

echo "== tier-1: smoke campaign (2 workloads x 2 configs x 4 seeds) =="
report="$(mktemp /tmp/campaign-smoke.XXXXXX.json)"
arch_report="$(mktemp /tmp/campaign-arch.XXXXXX.json)"
fuzz_bug="$(mktemp /tmp/fuzz-bug.XXXXXX.json)"
fuzz_bundles="$(mktemp -d /tmp/fuzz-bundles.XXXXXX)"
trap 'rm -f "$report" "$arch_report" "$fuzz_bug"; rm -rf "$fuzz_bundles"' EXIT
timeout 600 target/release/campaign \
    --workloads mcf,libquantum \
    --configs small-nh,small-yqh \
    --torture-seeds 0..4 \
    --workers 4 \
    --out "$report"
timeout 600 target/release/campaign \
    --workloads mcf --configs small-nh --torture-seeds 0..2 \
    --ref arch --workers 2 --out "$arch_report"

# This block and the fuzz-bug block below stay in python on purpose:
# every Rust test reads a report with the same vendored serde_json that
# wrote it, and `json.load` is the one parser here that is independent
# of that writer — on a plain report and on one with a triage bundle.
python3 - "$report" "$arch_report" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["schema_version"] == 6, r["schema_version"]
s = r["summary"]
assert s["total"] == 12 and s["halted"] == 12, s
assert len(r["jobs"]) == 12
assert all(j["cycles"] > 0 and j["commits_checked"] > 0 for j in r["jobs"])
assert "timing" in r
print("smoke campaign report OK:", s)
a = json.load(open(sys.argv[2]))["summary"]
assert a["total"] == 3 and a["halted"] == 3 and a["diverged"] == 0, a
print("--ref arch smoke OK:", a)
EOF

echo "== tier-1: fuzz smoke (injected bug -> triage -> replay) =="
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
o3="$(timeout 60 target/release/replay --bundle "$fuzz_bundle" --o3)"
grep -q "^O3PipeView:fetch:" <<<"$o3" || { echo "replay --o3: no O3PipeView:fetch: line" >&2; exit 1; }
card="$(timeout 60 target/release/replay --show --bundle "$fuzz_bundle")"
for want in "^injected bug: MulLowBit$" "^ref: nemu$"; do
    grep -q "$want" <<<"$card" || { echo "replay --show: no '$want' line on the card" >&2; exit 1; }
done

echo "== tier-1: debug_session example (L2 race -> replay -> ArchDB timeline) =="
session="$(timeout 120 cargo run -q --release --example debug_session)"
for want in "reproduced = true" "^== instr_commit events" "^ *[0-9]* | hart=.* wb="; do
    grep -q "$want" <<<"$session" || { echo "debug_session: no line matches '$want'" >&2; exit 1; }
done

echo "== tier-1: paper harness (regenerated BENCH_paper.json == committed) =="
timeout 300 cargo bench -q -p minjie-bench --bench paper
git diff --exit-code -- BENCH_paper.json

echo "== tier-1: benchmark --check (exit words, register files, digests; no timing) =="
timeout 600 bash benchmark/run.sh --check

echo "== tier-1 gate passed =="
