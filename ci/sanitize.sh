#!/usr/bin/env bash
# Build and run the full test suite under AddressSanitizer + UBSan, then the
# multi-threaded suites (thread pool, campaign runner, simulation server:
# result cache and its writer thread, coalescer, job queue, end to end)
# under ThreadSanitizer. Separate build trees so the normal build/ stays
# untouched.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== ASan + UBSan: full suite =="
cmake -B build-sanitize -S . -DXMT_SANITIZE=ON \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build-sanitize -j "$(nproc)"
ctest --test-dir build-sanitize --output-on-failure -j "$(nproc)"

echo "== ASan + UBSan: xmtmc sweep (DPOR replay machinery) =="
# The explorer snapshots/restores architectural state thousands of times
# per region; run the whole registry + mutant harness under the sanitized
# build so replay bookkeeping bugs surface as hard failures.
cmake --build build-sanitize -j "$(nproc)" --target xmtmc
./build-sanitize/examples/xmtmc --registry --mutants --quiet

echo "== TSan: thread pool + campaign + server =="
cmake -B build-tsan -S . -DXMT_TSAN=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build-tsan -j "$(nproc)" --target xmt_tests
./build-tsan/tests/xmt_tests \
  --gtest_filter='*ThreadPool*:Campaign.*:ResultCache.*:Coalescer.*:JobQueue.*:ServerE2E.*'
