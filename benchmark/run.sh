#!/usr/bin/env bash
# Build the benchmark (release, offline) and run it.
#
#   benchmark/run.sh [--seed N] [--workload W] [--out FILE] [--scheduler K] [--smoke]
#       every leg of every workload (or of W): timed run, traced run, all
#       correctness gates; prints every metric by name with its unit and
#       writes a summary file that ends with "claim": null.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run; the last line of standard output is the result object
#       (end-to-end metrics with --trace 0, per-layer with --trace 1).
#
# Exits non-zero, printing no result, when the build fails or a
# correctness gate does. See benchmark/README.md.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

# A driver sets CARGO_TARGET_DIR (possibly relative to the checkout);
# by hand, build beside the repository's own target directory.
target="${CARGO_TARGET_DIR:-target/benchmark}"
case "$target" in
  /*) ;;
  *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$root/benchmark/Cargo.toml" >&2

HDD_BENCH_RUSTC="$(rustc -V 2>/dev/null || echo unknown)"
HDD_BENCH_GIT_REV="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
# WAL files, Chrome traces and the default summary go under the target
# directory: inside the checkout, ignored by git, on a real filesystem.
HDD_BENCH_OUT_DIR="$target/out"
export HDD_BENCH_RUSTC HDD_BENCH_GIT_REV HDD_BENCH_OUT_DIR

exec "$target/release/hdd-benchmark" "$@"
