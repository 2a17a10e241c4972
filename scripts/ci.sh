#!/usr/bin/env bash
# Local CI gate: lock files, the store-indirection, one-stopwatch,
# protocol-C and id-hasher greps, formatting, lints, the full test suite,
# the examples, the benchmark smoke, docs, the ordering audit and the
# model checker. Every correctness invariant is a `cargo test`; no stage
# runs an experiment.
# Run from the repository root:
#
#   scripts/ci.sh
#
# Fails fast on the first broken stage.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== lockfiles =="
# Both workspaces must resolve from their committed Cargo.lock as is: a
# manifest edit that would rewrite either lock file (the benchmark's
# included) fails here, offline, in well under a second.
cargo metadata --format-version 1 --locked --offline > /dev/null
cargo metadata --format-version 1 --locked --offline --manifest-path benchmark/Cargo.toml > /dev/null

echo "== store indirection =="
# Schedulers, recovery and resume call `MvStore` directly. The
# `StorageBackend` trait is left only for the benchmark's storage probe,
# so nothing outside its own module may use it.
if grep -rnE 'dyn StorageBackend|with_chain_dyn' crates tests examples src \
    | grep -v '^crates/mvstore/src/backend.rs:'; then
    echo "StorageBackend used outside crates/mvstore/src/backend.rs; call MvStore" >&2
    exit 1
fi

echo "== one stopwatch =="
# A commits/s number comes only from benchmark/run.sh, from repeated runs whose
# logs were checked. `sim` drives runs and prints tables, but times none as a
# throughput.
if grep -rnE '\.throughput\b|commits_per_sec|_cps\b' crates/sim/src; then
    echo "a throughput figure in crates/sim/src; measure it with benchmark/run.sh" >&2
    exit 1
fi

echo "== protocol C never waits =="
# The seed state is the first time wall, so a Protocol C reader always has
# a wall to pin at `begin` and never waits for one. The wait path, its cause
# and its blame bucket stay deleted.
if grep -rnE 'WallPending|blocked_on_wall|NoWall|wall_wait_ns' crates tests examples src; then
    echo "a Protocol C wait path is back; pin the newest wall at begin instead" >&2
    exit 1
fi

echo "== one GC cadence =="
# GC runs right after each time-wall release, so `wall_interval` is the one
# cadence: the watermark cannot rise between releases, and a second knob
# for the same cadence only lets versions pile up between collections.
if grep -rn gc_interval crates tests examples src benchmark/src; then
    echo "a second GC cadence is back; collect after each wall release instead" >&2
    exit 1
fi

echo "== one id hasher =="
# Every map an operation touches is keyed by an id and hashed by
# `txn_model::IdHasher` (one folded multiply), named through the `IdMap` /
# `IdSet` aliases, test modules included. A std `HashMap<GranuleId, _>` or
# `HashMap<TxnId, _>` here would put SipHash back on the hot path; the
# offline maps (recovery, dependency graphs) are not listed.
if grep -rnE 'HashMap<(GranuleId|TxnId),|HashSet<GranuleId>' \
    crates/mvstore/src/{store,chain,locktable}.rs crates/hdd/src/protocol.rs \
    crates/baselines/src crates/txn-model/src/program.rs; then
    echo "a std-hashed id map on the operation path; use txn_model::IdMap / IdSet" >&2
    exit 1
fi

echo "== fmt =="
cargo fmt --all --check

echo "== clippy =="
cargo clippy --workspace --all-targets -q -- -D warnings

echo "== tests (tier 1) =="
cargo build --release -q
cargo test -q

echo "== examples =="
# `cargo test` and clippy only compile the examples; run each so an
# `assert!` inside one cannot fail unseen. The exit code is the gate.
for ex in quickstart anomalies timewall decompose forensics inventory; do
    cargo run -q --example "$ex" > /dev/null
done

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
# Warnings are errors, so a doc link to a deleted item fails the stage.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q --workspace

echo "== ordering audit =="
# Every Ordering::Relaxed site in the workspace must carry a
# `// ordering:` justification (DESIGN.md section 12).
cargo run -q -p certify --bin hdd-ordering-lint -- crates

echo "== mc smoke (instrumented, <60s) =="
# Separate target dir: --cfg mc changes every routed crate, so sharing
# ./target would thrash the main cache. The build is untimed; the models
# themselves must finish inside the 60 s budget, or the stage fails.
RUSTFLAGS="--cfg mc" cargo test -q -p mc --target-dir target/mc --no-run
mc_start=$SECONDS
RUSTFLAGS="--cfg mc" cargo test -q -p mc --target-dir target/mc
mc_secs=$((SECONDS - mc_start))
if [ "$mc_secs" -gt 60 ]; then
    echo "mc smoke took ${mc_secs}s, over its 60 s budget" >&2
    exit 1
fi
echo "mc smoke: ${mc_secs}s of 60 s"

echo "CI OK"
