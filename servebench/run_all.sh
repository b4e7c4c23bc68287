#!/usr/bin/env bash
# Run every servebench workload, untraced then traced.
#
#   servebench/run_all.sh [seed] [seconds]
#
# Works from any directory. Exits non-zero if any run's checks fail.
set -euo pipefail
cd "$(dirname "$0")/.."

seed="${1:-1}"
seconds="${2:-25}"
status=0
for trace in 0 1; do
  for workload in hot_repeat zipf_spill update_mix shared_narrow; do
    cargo run --release --offline -q --manifest-path servebench/Cargo.toml -- \
      --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" || status=1
  done
done
exit "$status"
