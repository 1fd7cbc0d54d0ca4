#!/usr/bin/env bash
# Smoke-run the campaign engine: build xmtdse, execute a tiny sweep on the
# thread pool, then re-invoke the same spec to prove the resume path skips
# every completed point. A build/run canary, not a performance gate:
# perfbench measures performance end to end.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build -j "$(nproc)" --target xmtdse

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
spec="$out/smoke.conf"
cat > "$spec" <<'EOF'
campaign = smoke
base = fpga64
sweep.clusters = 1,2
sweep.tcus_per_cluster = 2,4
workload = vadd
workload.n = 48
mode = cycle
baseline = clusters=1,tcus_per_cluster=2
EOF

echo "== fresh run =="
./build/examples/xmtdse --workers 4 --out "$out/run" "$spec"
for f in results.jsonl results.csv summary.txt manifest.jsonl; do
  test -s "$out/run/$f" || { echo "missing $f" >&2; exit 1; }
done
test "$(wc -l < "$out/run/results.jsonl")" -eq 4

echo "== resume run (must skip all 4 points) =="
./build/examples/xmtdse --workers 4 --out "$out/run" "$spec" \
  | tee "$out/resume.log"
grep -q "executed 0 (skipped 4" "$out/resume.log"

echo "campaign smoke OK"
