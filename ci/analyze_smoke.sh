#!/usr/bin/env bash
# Smoke-run the value-range abstract interpreter (xmtai) end to end:
#   1. clean-baseline sweep — every registry workload and every corpus
#      program must lint silent under --analyze at -O0/1/2 (the lints are
#      only useful if real code does not drown in warnings);
#   2. seeded violations — a definite out-of-bounds store, a constant zero
#      divisor, and a non-positive ps increment must each be flagged with
#      its stable --diag-json tag, and --analyze must exit nonzero; a racy
#      program under --race-check --hotmem must print one race report;
#   3. self-validation gates — the in-tree mutation harness (>= 95% of
#      injected violations caught), the dynamic soundness replay, the
#      analysis-output golden (loop/spawn xmtsmith programs, registry,
#      corpus) and the rangeAt property test;
#   4. clang-tidy over src/compiler/analysis/ when the tool is installed
#      (skipped gracefully otherwise — the container does not ship it).
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
cmake --build build -j "$(nproc)" --target xmtcc xmt_tests

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# Wall seconds since $1 (a `date +%s.%N` stamp). The two clean-baseline
# sweeps run the widening fixpoint, which the compile benchmark never
# reaches, so their times are where a loop-analysis slowdown shows.
elapsed() {
  awk -v t0="$1" -v t1="$(date +%s.%N)" 'BEGIN { printf "%.2f", t1 - t0 }'
}

echo "== clean baseline: registry workloads x -O0/1/2 =="
t0=$(date +%s.%N)
while read -r name _; do
  for opt in -O0 -O1 -O2; do
    if ! ./build/examples/xmtcc --analyze "$opt" --workload "$name" \
        > "$out/lint.log" 2>&1; then
      echo "workload $name at $opt is not lint-clean:" >&2
      cat "$out/lint.log" >&2
      exit 1
    fi
  done
done < <(./build/examples/xmtcc --list-workloads)
echo "registry x -O0/1/2 --analyze sweep: $(elapsed "$t0") s wall"

echo "== clean baseline: differential-fuzzing corpus =="
t0=$(date +%s.%N)
for f in tests/corpus/*.xmtc; do
  if ! ./build/examples/xmtcc --analyze "$f" > "$out/lint.log" 2>&1; then
    echo "corpus program $f is not lint-clean:" >&2
    cat "$out/lint.log" >&2
    exit 1
  fi
done
echo "corpus --analyze sweep: $(elapsed "$t0") s wall"

echo "== seeded violations are flagged with stable tags =="
cat > "$out/oob.xc" <<'EOF'
int A[8];
int main() {
  A[9] = 1;
  return 0;
}
EOF
cat > "$out/div.xc" <<'EOF'
int G;
int main() {
  int z = 0;
  G = G / z;
  return 0;
}
EOF
cat > "$out/ps.xc" <<'EOF'
psBaseReg C = 0;
int main() {
  spawn(0, 7) { int c = 0; ps(c, C); }
  return 0;
}
EOF
check_seeded() {  # file tag
  if ./build/examples/xmtcc --analyze --diag-json "$out/d.json" "$1" \
      > /dev/null 2>&1; then
    echo "seeded violation $1 passed --analyze" >&2; exit 1
  fi
  grep -q "\"$2\"" "$out/d.json" || {
    echo "missing tag $2 for $1 in --diag-json output" >&2; exit 1; }
}
check_seeded "$out/oob.xc" xmt-bounds-oob
check_seeded "$out/div.xc" xmt-div-zero
check_seeded "$out/ps.xc" xmt-ps-discipline

echo "== dynamic race report is printed once =="
cat > "$out/race.xc" <<'EOF'
int A[4];
int main() {
  spawn(0, 7) { A[0] = $; }
  return 0;
}
EOF
headers=$(./build/examples/xmtcc --race-check --hotmem "$out/race.xc" \
  2>/dev/null | grep -c "^race check:" || true)
if [ "$headers" != 1 ]; then
  echo "expected one 'race check:' report, got $headers" >&2; exit 1
fi

echo "== mutation harness + dynamic soundness replay =="
./build/tests/xmt_tests \
  --gtest_filter='MutationHarness.*:SoundnessReplay.*:CleanBaseline.*'

echo "== analysis-output golden + rangeAt property =="
./build/tests/xmt_tests \
  --gtest_filter='AnalysisGolden.*:RangeAtProperty.*'

if command -v clang-tidy > /dev/null 2>&1; then
  echo "== clang-tidy over src/compiler/analysis/ =="
  clang-tidy -p build --quiet src/compiler/analysis/*.cc
else
  echo "== clang-tidy not installed; skipping tidy pass =="
fi

echo "analyze smoke OK"
