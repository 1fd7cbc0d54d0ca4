#!/usr/bin/env bash
# Smoke-run the experiment benchmarks: build every bench/ target and execute
# bench_table1_throughput with a short minimum time. This is a build/run
# canary, not a performance gate — timings on shared CI machines are too
# noisy to assert on.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
targets=()
for src in bench/bench_*.cc; do targets+=("$(basename "$src" .cc)"); done
cmake --build build -j "$(nproc)" --target "${targets[@]}"
./build/bench/bench_table1_throughput --benchmark_min_time=0.05
