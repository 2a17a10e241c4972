#!/usr/bin/env bash
# Local CI gate: formatting, lints, the full test suite, the benchmark
# smoke and the release correctness smokes. Run from the repository root:
#
#   scripts/ci.sh
#
# Fails fast on the first broken stage.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== fmt =="
cargo fmt --all --check

echo "== clippy =="
cargo clippy --workspace --all-targets -q -- -D warnings

echo "== tests (tier 1) =="
cargo build --release -q
cargo test -q

echo "== benchmark smoke (release, ~30s) =="
# Every leg and correctness gate of all four benchmark workloads at
# smoke length: certify (incl. the partition-synchronization rule),
# conservation and WAL recovery. The numbers mean nothing at this
# length; the exit code is the gate.
benchmark/run.sh --smoke > /dev/null

echo "== tests (member crates) =="
# Tier 1 above already ran the root package's integration tests.
cargo test -q --workspace --exclude hdd-repro

echo "== docs =="
cargo doc --no-deps -q --workspace

echo "== ordering audit =="
# Every Ordering::Relaxed site in the workspace must carry a
# `// ordering:` justification (DESIGN.md section 12); unjustified
# sites fail the build.
cargo run -q -p certify --bin hdd-ordering-lint -- crates

echo "== mc smoke (instrumented, <60s) =="
# Model-check the engine self-models and the HDD protocol models under
# the instrumented facade. Separate target dir: --cfg mc changes every
# routed crate, so sharing ./target would thrash the main cache.
RUSTFLAGS="--cfg mc" cargo test -q -p mc --target-dir target/mc

echo "== obs profile smoke (release, quick) =="
cargo run --release -q -p sim --bin experiments -- e14 quick

echo "== export smoke (release) =="
# Short obs-enabled run + quick E17: the generated Prometheus exposition
# and Chrome trace must pass the in-repo validators, and the staleness
# tables must carry Protocol A (class) and Protocol C (wall) rows.
cargo run --release -q -p sim --bin experiments -- export-smoke

echo "== certify smoke (release) =="
# A-priori lint of the bundled workloads must be clean, and the broken
# demo decompositions must be rejected (witnesses + repair suggestions).
cargo run --release -q -p certify --bin hdd-lint -- builtin
if cargo run --release -q -p certify --bin hdd-lint -- demo > /dev/null 2>&1; then
  echo "hdd-lint demo unexpectedly passed (must reject the broken decompositions)"
  exit 1
fi
# Offline certification: concurrent hdd (partition-synchronization rule)
# and mvto logs must certify clean; the nocontrol anomaly self-check
# must shrink to a single-digit counterexample.
cargo run --release -q -p sim --bin experiments -- certify-smoke

echo "== chaos smoke (release, quick) =="
# Quick E16 soak — the concurrent driver under seeded fault plans:
# crashes/stalls/torn WAL tails must all certify clean, every corpse be
# reaped by the watchdog, and recovery never reuse a pre-crash timestamp.
cargo run --release -q -p sim --bin experiments -- chaos-smoke

echo "== blame smoke (release) =="
# Flight-recorder gate: an 8-worker traced run must attribute >=95% of
# measured block time to a cause edge, leak no open spans, and emit a
# Perfetto trace that passes the in-repo validator.
cargo run --release -q -p sim --bin experiments -- blame-smoke

echo "== durability smoke (release) =="
# Durable-tier gate: a 12-seed disk-fault soak (torn writes, lying
# fsyncs, kill-mid-batch) must recover from on-disk bytes alone,
# certify every stitched log, never reuse a timestamp, and never leave
# an acked commit off the disk (outside lying-fsync seeds).
cargo run --release -q -p sim --bin experiments -- durability-smoke

echo "== drift smoke (release) =="
# Workload-drift gate (quick E20): the steady negative-control phase
# must never trip the drift board, the mid-run shift to the
# cycle-closing mix must trip it within 3 folds, the online advisor
# must match the offline hdd-lint repair (and report the running
# grouping optimal), the trip must surface as a Perfetto instant, and
# drift-enabled throughput must hold >=90% of the obs-only baseline.
cargo run --release -q -p sim --bin experiments -- drift-smoke

echo "CI OK"
