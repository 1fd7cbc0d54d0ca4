#!/usr/bin/env bash
# Smoke-run the experiment benchmarks: build every bench/ target and execute
# bench_table1_throughput with a short minimum time, then run each demo
# program in examples/ once. This is a build/run canary, not a performance
# gate — timings on shared CI machines are too noisy to assert on. A demo
# fails the script by exiting non-zero.
set -euo pipefail
cd "$(dirname "$0")/.."

demos=(quickstart fft_spectrum graph_bfs profile_and_dvfs compiler_explorer)

cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
targets=("${demos[@]}")
for src in bench/bench_*.cc; do targets+=("$(basename "$src" .cc)"); done
cmake --build build -j "$(nproc)" --target "${targets[@]}"
./build/bench/bench_table1_throughput --benchmark_min_time=0.05
for demo in "${demos[@]}"; do
  echo "== examples/$demo"
  "./build/examples/$demo" > /dev/null
done
