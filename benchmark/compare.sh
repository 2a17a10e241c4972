#!/usr/bin/env bash
# Compare summary files written by `run.sh --out`.
#
#   benchmark/compare.sh A.json B.json
#   benchmark/compare.sh A1.json,A2.json,A3.json B1.json,B2.json,B3.json
#
# Per workload and end-to-end metric: both medians, how much worse B is
# than A, the bound the benchmark fixes, and a verdict — ok / regressed /
# improved / unresolved (the spread on one side is wider than the bound).
# A side given as a comma-separated set of runs is read as the median of
# its runs with their run-to-run spread; a single run with its slice
# spread. Exits 1 when anything regressed, 2 on bad input.
#
# HDD_BENCH_BIN names an already built hdd-benchmark binary to use
# instead of building one (the benchmark's own tests set it).
set -euo pipefail

if [ -n "${HDD_BENCH_BIN:-}" ]; then
  exec "$HDD_BENCH_BIN" compare "$@"
fi

exec "$(dirname "${BASH_SOURCE[0]}")/run.sh" compare "$@"
