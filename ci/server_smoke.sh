#!/usr/bin/env bash
# Smoke-run the simulation service: build xmtserved/xmtq, start the daemon
# on a private socket, submit a small grid twice, and prove the second
# pass is served entirely from the content-addressed cache (zero new
# simulations, byte-identical records). A build/run canary, not a
# performance gate: perfbench's serve_sweep workload measures the daemon
# end to end.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build -j "$(nproc)" --target xmtserved xmtq

out=$(mktemp -d)
sock="$out/smoke.sock"
trap 'kill "$daemon_pid" 2>/dev/null || true; rm -rf "$out"' EXIT
spec="$out/smoke.conf"
cat > "$spec" <<'EOF'
campaign = smoke
base = fpga64
sweep.clusters = 1,2
sweep.tcus_per_cluster = 2,4
workload = vadd
workload.n = 48
mode = cycle
EOF

echo "== start daemon =="
./build/examples/xmtserved --socket "$sock" --cache-dir "$out/cache" \
  --workers 4 > "$out/daemon.log" &
daemon_pid=$!
for _ in $(seq 50); do
  [ -S "$sock" ] && break
  sleep 0.1
done
./build/examples/xmtq --socket "$sock" ping

sims() {
  ./build/examples/xmtq --socket "$sock" stats \
    | sed 's/.*"simulations":\([0-9]*\).*/\1/'
}

echo "== cold pass =="
./build/examples/xmtq --socket "$sock" submit --wait "$spec" > "$out/cold.jsonl"
test "$(wc -l < "$out/cold.jsonl")" -eq 4
cold_sims=$(sims)
test "$cold_sims" -eq 4

echo "== warm pass (must be all cache hits, byte-identical) =="
./build/examples/xmtq --socket "$sock" submit --wait "$spec" > "$out/warm.jsonl"
cmp "$out/cold.jsonl" "$out/warm.jsonl"
warm_sims=$(sims)
test "$warm_sims" -eq "$cold_sims"

echo "== stats report jobs, queue and hot tier =="
stats=$(./build/examples/xmtq --socket "$sock" stats)
for field in '"queued_points":' '"jobs":{' '"active":' '"retained":' \
    '"expired":' '"hit_ratio":' '"hot_entries":' '"hot_bytes":' \
    '"hot_hits":'; do
  grep -qF "$field" <<< "$stats" || { echo "stats lacks $field: $stats"; exit 1; }
done

echo "== clean shutdown =="
./build/examples/xmtq --socket "$sock" shutdown
wait "$daemon_pid"
grep -q "xmtserved: stopped" "$out/daemon.log"

echo "server smoke OK"
