#!/usr/bin/env bash
# Runs the google-benchmark microbenchmark suite (bench_micro) in JSON mode
# and writes BENCH_micro.json at the repo root (git-ignored; no run is kept
# in the repository). Its numbers are per-operation detail for one host
# only. A performance claim compares same-host parent/change pairs of
# `python3 perfbench/run.py`; to compare microbenchmarks, run this script on
# both commits on one host and compare those two outputs.
#
# bench_micro now includes the maintained-sketch group (BM_SyncDatasetInsert,
# BM_SessionSyncWarm, BM_SessionSyncRebuild); the standalone bench_server
# binary sweeps maintained-vs-rebuilt serving across churn rates and is run
# directly (./build/bench_server), not through this script.
#
# Usage:
#   bench/run_bench.sh [output.json]
# Environment:
#   BUILD_DIR   build directory (default: build)
#   FILTER      --benchmark_filter regex (default: all benchmarks), e.g.
#               FILTER='EvaluateAll|Prefixes' for the bench_lsh group.
#   MIN_TIME    --benchmark_min_time per benchmark, seconds (default: 0.2)
#   REPS        --benchmark_repetitions; > 1 also reports mean/median/min
#               aggregates (default: 1). Use >= 5 on machines with frequency
#               scaling — single runs there are bimodal; compare medians.
set -euo pipefail

cd "$(dirname "$0")/.." || exit 1

BUILD_DIR=${BUILD_DIR:-build}
OUT=${1:-BENCH_micro.json}
MIN_TIME=${MIN_TIME:-0.2}
REPS=${REPS:-1}

if [ ! -x "$BUILD_DIR/bench_micro" ]; then
  echo "bench_micro not found in $BUILD_DIR; configuring with -DRSR_BUILD_BENCH=ON" >&2
  cmake -B "$BUILD_DIR" -S . -DRSR_BUILD_BENCH=ON
  cmake --build "$BUILD_DIR" -j --target bench_micro 2>/dev/null || {
    echo "bench_micro could not be built (google-benchmark missing?); skipping" >&2
    exit 0
  }
fi

# Array, not an unquoted ${FILTER:+...} expansion: a filter regex containing
# a space (e.g. FILTER='BM_Foo<1, 2>') must stay one argument.
FILTER_FLAGS=()
if [ -n "${FILTER:-}" ]; then
  FILTER_FLAGS=(--benchmark_filter="$FILTER")
fi

"$BUILD_DIR/bench_micro" \
  --benchmark_format=json \
  --benchmark_min_time="$MIN_TIME" \
  --benchmark_repetitions="$REPS" \
  ${FILTER_FLAGS[@]+"${FILTER_FLAGS[@]}"} \
  > "$OUT"

echo "wrote $OUT" >&2
