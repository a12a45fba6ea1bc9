#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources, then runs it with the
# given arguments, e.g.
#   bash bench/e2e/run.sh --workload dumbbell_red --seed 1 --seconds 12 --trace 0
#   bash bench/e2e/run.sh run --seed 1 --trace 1
# Build output goes to stderr and to $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
cd "$(dirname "$0")/../.."
build_dir="${CARGO_TARGET_DIR:-.bench_build}"
DUNE_CACHE=disabled dune build --root . --build-dir "$build_dir" --profile release \
  --display quiet bench/e2e/tfrc_bench.exe 1>&2
exec "$build_dir/default/bench/e2e/tfrc_bench.exe" "$@"
