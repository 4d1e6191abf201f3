#!/usr/bin/env bash
# Run two full sets of the same build back to back and compare them the way
# the benchmark's bounds are meant to be used:
#
#   * per workload and end-to-end metric: the median of each set, the
#     relative difference of the second median from the first in the
#     metric's worse direction, and each set's spread (interquartile range
#     over median, `statistics.quantiles(values, n=4)`), next to the bound
#     from BENCHMARK.json;
#   * per workload: `sim_digest` of every seed and the exact per-layer
#     counts of one traced run, which must be identical in both sets.
#
# Prints a Markdown report (committed as AGREEMENT.md) and exits non-zero if
# a timing metric moved by more than its bound, a spread exceeds its bound
# (`setup_s` excepted), or an exact value differs.
#
#   benchmark/agree.sh [runs-per-set, default 10] > benchmark/AGREEMENT.md
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
runs="${1:-10}"
out="$here/work/agree-$$"
mkdir -p "$out"
# AGREE_KEEP=1 keeps the raw results of every run under benchmark/work/.
trap '[ -n "${AGREE_KEEP:-}" ] || rm -rf "$out"' EXIT
cd "$root"

seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
workloads="$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"

for set in 1 2; do
  for w in $workloads; do
    for seed in $(seq 1 "$runs"); do
      bash "$here/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
        > "$out/$set-$w-$seed.e2e" || echo "run failed: set $set $w seed $seed" >&2
    done
    bash "$here/run.sh" --workload "$w" --seed 1 --seconds "$seconds" --trace 1 \
      > "$out/$set-$w.layers" || echo "traced run failed: set $set $w" >&2
  done
done

python3 - "$out" "$runs" <<'EOF'
import json, statistics, sys
from pathlib import Path

out, runs = Path(sys.argv[1]), int(sys.argv[2])
manifest = json.load(open("BENCHMARK.json"))
workloads = [w["name"] for w in manifest["workloads"]]
# Per-layer metrics that are pure functions of the inputs.
EXACT_UNITS = {"count", "permille", "1/kinstr"}
exact_layers = [m["name"] for m in manifest["per_layer"] if m["unit"] in EXACT_UNITS
                and m["name"] != "nemu.step_over_run_milli.nemu"
                and m["name"] != "nemu.step_over_run_milli.nemu-trace"
                and m["name"] != "campaign.worker_scaling_milli"
                and m["name"] != "campaign.report_bytes"]  # holds the timing section

def result(path):
    lines = path.read_text().splitlines()
    digest = next((l.split()[1] for l in lines if l.startswith("sim_digest")), None)
    return json.loads(lines[-1]), digest

def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)

ok = True
print("# Agreement of two back-to-back sets of the same build\n")
print(f"{runs} untraced runs (seeds 1..{runs}) and one traced run (seed 1) per workload and set, "
      f"{manifest['run_seconds']} s each. `moved` is the second set's median against the first's, "
      "positive when worse; `spread` is the interquartile range over the median.\n")
print("| workload | metric | set 1 median | set 2 median | moved | spread 1 | spread 2 | bound | |")
print("|---|---|---:|---:|---:|---:|---:|---:|---|")
for w in workloads:
    sets = [[result(out / f"{s}-{w}-{seed}.e2e") for seed in range(1, runs + 1)] for s in (1, 2)]
    for m in manifest["end_to_end"]:
        name, bound = m["name"], m["bound"]
        a, b = ([r["metrics"][name]["value"] for r, _ in s] for s in sets)
        ma, mb = statistics.median(a), statistics.median(b)
        moved = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        sa, sb = spread(a), spread(b)
        good = moved <= bound and (name == "setup_s" or max(sa, sb) <= bound)
        ok &= good
        print(f"| {w} | {name} | {ma:.4f} | {mb:.4f} | {moved:+.2%} | {sa:.2%} | {sb:.2%} | {bound:.0%} | {'' if good else 'EXCEEDED'} |")
    failed = sum(r["failed"] for s in sets for r, _ in s)
    attempted = sum(r["attempted"] for s in sets for r, _ in s)
    digests_same = [d for _, d in sets[0]] == [d for _, d in sets[1]]
    ok &= failed == 0 and digests_same
    print(f"| {w} | ops_failed | {failed} of {attempted} | | | | | 0 | {'' if failed == 0 else 'FAILED'} |")
    print(f"| {w} | sim_digest (per seed) | | | {'identical' if digests_same else 'DIFFERS'} | | | exact | |")

print("\n## Exact per-layer counts and tracing overhead (traced run, seed 1)\n")
print("| workload | exact counts compared | differing | trace_overhead_pct set 1 | set 2 |")
print("|---|---:|---|---:|---:|")
for w in workloads:
    (a, da), (b, db) = (result(out / f"{s}-{w}.layers") for s in (1, 2))
    differing = [n for n in exact_layers if a["metrics"][n]["value"] != b["metrics"][n]["value"]]
    if da != db:
        differing.append("sim_digest")
    ok &= not differing and a["failed"] == 0 and b["failed"] == 0
    over = [r["metrics"]["trace_overhead_pct"]["value"] for r in (a, b)]
    print(f"| {w} | {len(exact_layers) + 1} | {', '.join(differing) or 'none'} | {over[0]:.1f} | {over[1]:.1f} |")

print("\n" + ("All metrics agree within their bounds." if ok else "SOME METRICS DISAGREE."))
sys.exit(0 if ok else 1)
EOF
