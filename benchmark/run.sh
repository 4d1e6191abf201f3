#!/usr/bin/env bash
# Build the benchmark (release, offline) and run it.
#
#   benchmark/run.sh --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
#   benchmark/run.sh --check
#
# Everything is passed through to the binary; its last line of standard
# output is the result as one JSON object. Run from the root of a checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# The caller's CARGO_TARGET_DIR wins (a relative one is relative to where
# run.sh was called from); otherwise share the repository's target directory.
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in
  /*) ;;
  *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/minjie-benchmark" --work "$here/work" "$@"
