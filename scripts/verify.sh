#!/usr/bin/env bash
# Tier-1 verification gate: build, test, format, lint, rustdoc.
#
# Run from the repo root. Fails fast on the first broken stage so CI and
# pre-commit hooks get a single unambiguous exit code.
#
# The rustdoc stage documents every workspace crate with warnings denied,
# so a deleted or private item that a doc comment still links to fails
# the gate instead of rendering as a dead link.
#
# The servebench stage type-checks the serving benchmark (its own package
# under servebench/, built against the public APIs only), so a change
# that removes or renames an item the benchmark uses fails here, not
# only when the benchmark itself is built.
#
# Optional tiers:
#   --bench   appends a seconds-scale benchmark smoke (bench_spmm,
#             bench_serve, and bench_update, all --quick at reduced
#             sizes) that fails on catastrophic engine or serving-cache
#             regressions, on the SIMD strip engine dropping below its
#             1.2x geomean speedup floor over the one-lane scalar arm,
#             and on incremental CELL maintenance failing to beat a
#             full rebuild 3x at <= 1% churn; then planner_regret, which
#             times the serving planner's choice against the selector's
#             plan, CSR and single-partition CELL on the GNN keys and a
#             six-family population and prints geomean and worst
#             regret (a report only: it has no gate);
#   --stress  appends the heavy differential/concurrency tier: the
#             structure-aware kernel fuzzer at raised iteration counts
#             and the serving-engine stress suite at raised thread and
#             iteration counts (including the same-fingerprint request-
#             coalescing storm and the batched-vs-solo bitwise property
#             suite), plus the plan-codec serialization suite (round-
#             trip + 2000-mutation decoder fuzz), the model-bundle
#             decoder fuzz (2000 mutations of the checked-in bundle:
#             no panic, every accepted bundle validated) and the
#             training-corpus golden test of the flat forests, the
#             store crash-recovery suite (with the wave-parallel warm
#             equivalence test), the store record fuzz (2000 mutations
#             of whole v4 records through PlanStore::load: no panic,
#             every accepted plan re-fingerprints to its key), and the
#             incremental-vs-rebuild mutation suite (migrated plans
#             bitwise-equal to fresh composes), and the microkernel's
#             bitwise suites (the range entry's every-width sweep, the
#             CELL-vs-reference sweep and the engine edge cases), whose
#             compile-time-width row loops are release codegen that
#             tier-1 only runs in debug, and the serving-planner suite,
#             whose GNN-decision test builds the full-size analogues and
#             compiles only in release, all in release mode;
#   --check   appends the verification tier (lf-check): the model
#             checker's self-tests, the lint rule fixtures and the
#             seeded-bug rediscovery suite (lock-order inversion in
#             batch.rs, FMA in simd.rs, found with suppressions
#             ignored), the vector-clock happens-before detector's
#             seeded races, the model-checked pool-protocol,
#             plan-cache, quarantine, and write-behind demotion
#             scenarios (including the reverted-fix use-after-free and
#             stale-record rediscoveries), the hb-
#             instrumented end-to-end pool region, the shadow race
#             detector's seeded-bug proofs in debug mode, the
#             differential fuzzer with the detector live, and the
#             release-mode hot-path allocation-discipline test;
#   --chaos   appends the fault-injection tier: the serving storm with
#             seeded chaos sites armed (compose/execute panics, alloc
#             failures, forced slow paths) at 16 threads x 200
#             iterations per thread, release mode, across three seeds —
#             asserting no deadlocks, no wrong bytes, the exact outcome
#             ledger, and an achieved fault rate of >= 5% of requests —
#             the plan-store kill-and-restart scenarios (torn demotion,
#             aborted warm, kill with demotions queued) asserting
#             recovery never serves wrong bytes, and the mid-update kill
#             scenarios (torn update commit, aborted epoch sweep, stale
#             disk record surviving a crash) asserting the handle and
#             both cache tiers stay on exactly one epoch.
set -euo pipefail
cd "$(dirname "$0")/.."

RUN_BENCH=0
RUN_STRESS=0
RUN_CHECK=0
RUN_CHAOS=0
for arg in "$@"; do
  case "$arg" in
    --bench) RUN_BENCH=1 ;;
    --stress) RUN_STRESS=1 ;;
    --check) RUN_CHECK=1 ;;
    --chaos) RUN_CHAOS=1 ;;
    *) echo "unknown option: $arg" >&2; exit 2 ;;
  esac
done

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> source-invariant lint (lf-check: unsafe/ordering/lock-order/panic-path/determinism/ledger)"
cargo run -q -p lf-check --bin lint

echo "==> rustdoc -D warnings (no dangling or private intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> servebench builds against the public APIs (cargo check)"
cargo check --offline --manifest-path servebench/Cargo.toml

if [[ "$RUN_BENCH" == "1" ]]; then
  echo "==> bench smoke (bench_spmm --quick)"
  cargo run --release -p lf-bench --bin bench_spmm -- --quick
  echo "==> bench smoke (bench_serve --quick)"
  cargo run --release -p lf-bench --bin bench_serve -- --quick
  echo "==> bench smoke (bench_update --quick)"
  cargo run --release -p lf-bench --bin bench_update -- --quick
  echo "==> serving-planner regret report (planner_regret; reported, not gated)"
  cargo run --release -p lf-bench --bin planner_regret
fi

if [[ "$RUN_STRESS" == "1" ]]; then
  echo "==> differential fuzz (LF_FUZZ_ITERS=2000)"
  LF_FUZZ_ITERS=2000 cargo test --release -p lf-kernels --test fuzz_differential -q
  echo "==> microkernel bitwise suites: range entry, CELL vs reference, edge cases (release)"
  cargo test --release -p lf-kernels --test row_ranges --test cell_bitwise --test engine_edge_cases -q
  echo "==> serving planner: CSR or single-partition CELL, GNN decisions (release)"
  cargo test --release -p lf-serve --test serving_planner -q
  echo "==> serve stress incl. coalesced storm (LF_STRESS_THREADS=16 LF_STRESS_ITERS=120)"
  LF_STRESS_THREADS=16 LF_STRESS_ITERS=120 \
    cargo test --release -p lf-serve --test stress -q
  echo "==> request-coalescing batch suite (release)"
  cargo test --release -p lf-serve --test batch -q
  echo "==> batched-vs-solo bitwise property suite (release)"
  cargo test --release -p liteform-core --test batched_run -q
  echo "==> serve cache properties (release)"
  cargo test --release -p lf-serve --test cache_properties -q
  echo "==> plan-codec serialization suite (release)"
  cargo test --release -p liteform-core --test plan_codec -q
  echo "==> model-bundle decoder fuzz + flat-forest golden tests (release)"
  cargo test --release -p liteform-core --test bundle_fuzz -q
  cargo test --release -p liteform-core --test model_bundle -q
  echo "==> store crash-recovery suite incl. wave-parallel warm equivalence (release)"
  cargo test --release -p lf-serve --test store_recovery -q
  echo "==> store record fuzz: 2000 mutations of v4 records through PlanStore::load (release)"
  cargo test --release -p lf-serve --test store_fuzz -q
  echo "==> incremental-vs-rebuild mutation suite (release)"
  cargo test --release -p lf-serve --test updates -q
  cargo test --release -p lf-cell --test incremental -q
fi

if [[ "$RUN_CHECK" == "1" ]]; then
  echo "==> model checker self-tests, lint fixtures, hb detector (lf-check)"
  cargo test -p lf-check -q
  echo "==> model-checked pool protocol (lf-sim --features check)"
  cargo test -p lf-sim --features check --test model_pool -q
  echo "==> hb-instrumented pool region (lf-sim --features check)"
  cargo test -p lf-sim --features check --test hb_pool -q
  echo "==> full lf-sim suite under instrumented primitives"
  cargo test -p lf-sim --features check -q
  echo "==> clippy with the check feature"
  cargo clippy -p lf-sim --features check --all-targets -- -D warnings
  echo "==> model-checked plan-cache protocol (lf-serve)"
  cargo test -p lf-serve --test model_cache -q
  echo "==> model-checked quarantine protocol (lf-serve)"
  cargo test -p lf-serve --test model_quarantine -q
  echo "==> model-checked write-behind demotion protocol (lf-serve)"
  cargo test -p lf-serve --test model_write_behind -q
  echo "==> shadow race detector seeded bugs + differential fuzz (debug)"
  cargo test -p lf-kernels -q
  echo "==> hot-path allocation discipline (release)"
  cargo test --release -p lf-kernels --test hot_path_allocs -q
fi

if [[ "$RUN_CHAOS" == "1" ]]; then
  echo "==> hostile-input suite (lf-serve ingress contract)"
  cargo test --release -p lf-serve --test hostile_inputs -q
  echo "==> clippy with the chaos feature"
  cargo clippy -p lf-serve --features chaos --all-targets -- -D warnings
  for seed in 1 2 1337; do
    echo "==> chaos storm (seed=$seed, 16 threads x 200 iters, release)"
    LF_CHAOS_SEED="$seed" LF_CHAOS_THREADS=16 LF_CHAOS_ITERS=200 \
      cargo test --release -p lf-serve --features chaos --test chaos -q
  done
  echo "==> store kill-and-restart scenarios (chaos kill points, release)"
  cargo test --release -p lf-serve --features chaos --test store_recovery -q
  echo "==> mid-update kill-and-restart scenarios (chaos kill points, release)"
  cargo test --release -p lf-serve --features chaos --test updates -q
fi

echo "verify: OK"
