#!/usr/bin/env bash
# Tier-1 gate: docs lint, configure, build (warnings are errors), re-run the docs gate with the
# built binaries (every --flag named in a fenced doc block must be accepted
# by its binary), run the full test suite, smoke the batching bench
# (--json output must parse with finite p98), smoke the admin plane
# (live_serving --admin-port: /metrics, /healthz and /statusz must answer
# with the expected shapes), smoke the cluster router (three real backends
# behind cluster_router --trace-sample=1, one SIGKILLed mid-load: zero loss,
# replies + no_node == accepted, the dead node's down_reason on /statusz,
# both survivors routed, GET /fleetz must merge the survivors' statusz, and
# the Chrome trace dump must nest per-stage spans under each traced
# request) and the cluster
# scaling bench, smoke the tracing bench (sampled dispatch p98 must stay
# within 10% of tracing-off), smoke the control plane (two frozen backends behind
# cluster_router --ctrl: the Runtime Scheduler must re-plan, apply at least
# one delta, and lose nothing) and the ctrl bench (scheduler-on p98 must
# not lose to the frozen fleet under a mid-run mix shift), smoke the
# generative bench (finite TTFT/ITL percentiles;
# continuous batching must not lose to the static baseline on ITL p98),
# smoke the tenant bench (weighted-fair cell must hold the interactive
# class within its SLO), then re-run the whole test suite under
# ThreadSanitizer and again under Address+UBSanitizer.  Both sanitizer
# builds treat warnings as errors, like the main build.
#
#   scripts/check.sh            # full gate
#   scripts/check.sh --no-tsan  # skip the TSan stage (fast local loop)
#   scripts/check.sh --no-asan  # skip the ASan stage
set -euo pipefail

cd "$(dirname "$0")/.."

run_tsan=1
run_asan=1
for arg in "$@"; do
  case "$arg" in
    --no-tsan) run_tsan=0 ;;
    --no-asan) run_asan=0 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

echo "== docs =="
scripts/check_docs.sh

echo "== configure + build (warnings are errors) =="
cmake -B build -S . -DARLO_WERROR=ON >/dev/null
cmake --build build -j "$(nproc)"

echo "== docs (flags vs built binaries) =="
scripts/check_docs.sh --require-flags

echo "== tests =="
ctest --test-dir build --output-on-failure

echo "== bench smoke (ext_batching --json) =="
./build/bench/ext_batching --duration=1 --json=build/BENCH_batching.json >/dev/null
python3 - <<'EOF'
import json, math
rows = json.load(open("build/BENCH_batching.json"))["rows"]
assert rows, "bench smoke: no rows in BENCH_batching.json"
for r in rows:
    p98 = r["p98_ms"]
    assert isinstance(p98, (int, float)) and math.isfinite(p98), r
print(f"bench smoke: {len(rows)} rows, p98 finite")
EOF

echo "== admin smoke (live_serving --admin-port) =="
rm -f build/admin_smoke.out
./build/examples/live_serving --seconds=8 --rate=100 --admin-port=0 \
  --dump-out=build/admin_smoke.trace.json > build/admin_smoke.out 2>&1 &
admin_pid=$!
admin_port=""
for _ in $(seq 1 100); do
  admin_port=$(sed -n 's/^admin plane on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
    build/admin_smoke.out)
  [[ -n "$admin_port" ]] && break
  sleep 0.1
done
if [[ -z "$admin_port" ]]; then
  kill "$admin_pid" 2>/dev/null || true
  echo "admin smoke: no admin-plane port line" >&2
  exit 1
fi
curl -sf "http://127.0.0.1:${admin_port}/metrics" > build/admin_smoke.prom
curl -sf "http://127.0.0.1:${admin_port}/healthz" > build/admin_smoke.health
curl -sf "http://127.0.0.1:${admin_port}/statusz" > build/admin_smoke.status
kill -INT "$admin_pid" 2>/dev/null || true
wait "$admin_pid"
python3 - <<'EOF'
import json
prom = open("build/admin_smoke.prom").read()
assert "# TYPE arlo_requests_enqueued_total counter" in prom, prom[:400]
for line in prom.splitlines():
    if line and not line.startswith("#"):
        name, _, value = line.rpartition(" ")
        assert name, line
        float(value)  # every sample value must be numeric
health = json.load(open("build/admin_smoke.health"))
assert health["ok"] is True, health
status = json.load(open("build/admin_smoke.status"))
assert status["live_workers"] > 0, status
assert "allocation" in status["scheme"], status
print(f"admin smoke: {len(prom.splitlines())} metric lines, "
      f"{status['live_workers']} live workers")
EOF

echo "== bench smoke (obs_overhead --json) =="
./build/bench/obs_overhead --duration=1 --json=build/BENCH_obs_smoke.json \
  >/dev/null
python3 - <<'EOF'
import json, math
rows = json.load(open("build/BENCH_obs_smoke.json"))["rows"]
assert [r["mode"] for r in rows] == \
    ["admin-off", "admin-idle", "admin-scrape-storm"], rows
for r in rows:
    assert math.isfinite(r["dispatch_p98_us"]), r
assert rows[2]["scrapes"] > 0, rows[2]
print(f"obs bench smoke: {len(rows)} rows, dispatch p98 finite")
EOF

echo "== cluster smoke (3 backends + cluster_router, one SIGKILLed) =="
rm -f build/cluster_smoke.node1.out build/cluster_smoke.node2.out \
  build/cluster_smoke.node3.out build/cluster_smoke.router.out \
  build/cluster_smoke.fleetz build/cluster_smoke.trace.json
./build/examples/live_serving --listen=0 --admin-port=0 --speed=4 --gpus=2 \
  > build/cluster_smoke.node1.out 2>&1 &
node1_pid=$!
./build/examples/live_serving --listen=0 --admin-port=0 --speed=4 --gpus=2 \
  > build/cluster_smoke.node2.out 2>&1 &
node2_pid=$!
./build/examples/live_serving --listen=0 --admin-port=0 --speed=4 --gpus=2 \
  > build/cluster_smoke.node3.out 2>&1 &
node3_pid=$!
cluster_port() {  # $1=log $2=line prefix
  sed -n "s/^$2 127\.0\.0\.1:\([0-9]*\).*/\1/p" "$1" | head -1
}
wait_port() {  # $1=log $2=line prefix — echoes the port
  local port=""
  for _ in $(seq 1 100); do
    port=$(cluster_port "$1" "$2")
    [[ -n "$port" ]] && break
    sleep 0.1
  done
  echo "$port"
}
node1_port=$(wait_port build/cluster_smoke.node1.out "listening on")
node1_admin=$(wait_port build/cluster_smoke.node1.out "admin plane on")
node2_port=$(wait_port build/cluster_smoke.node2.out "listening on")
node2_admin=$(wait_port build/cluster_smoke.node2.out "admin plane on")
node3_port=$(wait_port build/cluster_smoke.node3.out "listening on")
node3_admin=$(wait_port build/cluster_smoke.node3.out "admin plane on")
if [[ -z "$node1_port" || -z "$node1_admin" || -z "$node2_port" || \
      -z "$node2_admin" || -z "$node3_port" || -z "$node3_admin" ]]; then
  kill "$node1_pid" "$node2_pid" "$node3_pid" 2>/dev/null || true
  echo "cluster smoke: backends never announced their ports" >&2
  exit 1
fi
./build/examples/cluster_router \
  --nodes="${node1_port}:${node1_admin},${node2_port}:${node2_admin},${node3_port}:${node3_admin}" \
  --policy=queue-delay --trace-sample=1 \
  --trace-out=build/cluster_smoke.trace.json \
  > build/cluster_smoke.router.out 2>&1 &
router_pid=$!
router_port=$(wait_port build/cluster_smoke.router.out "router listening on")
router_admin=$(wait_port build/cluster_smoke.router.out "router admin on")
if [[ -z "$router_port" || -z "$router_admin" ]]; then
  kill "$router_pid" "$node1_pid" "$node2_pid" "$node3_pid" 2>/dev/null || true
  echo "cluster smoke: router never announced its ports" >&2
  exit 1
fi
# The third backend is SIGKILLed mid-load (once the router has accepted a
# quarter of the ~1600 requests): the router must re-route whatever was in
# flight on it to the survivors and lose nothing.
./build/examples/live_serving --connect="$router_port" --seconds=8 \
  --rate=200 --speed=4 > build/cluster_smoke.load.out &
load_pid=$!
for _ in $(seq 1 200); do
  accepted=$(curl -sf "http://127.0.0.1:${router_admin}/statusz" |
    python3 -c 'import json, sys; print(json.load(sys.stdin)["accepted"])' \
    2>/dev/null || echo 0)
  (( accepted >= 400 )) && break
  sleep 0.05
done
kill -KILL "$node3_pid"
wait "$node3_pid" 2>/dev/null || true
wait "$load_pid"
cat build/cluster_smoke.load.out
grep -q "(lost 0)" build/cluster_smoke.load.out || {
  echo "cluster smoke: load generator reported losses" >&2
  exit 1
}
curl -sf "http://127.0.0.1:${router_admin}/statusz" \
  > build/cluster_smoke.status
curl -sf "http://127.0.0.1:${router_admin}/fleetz" \
  > build/cluster_smoke.fleetz
kill -INT "$router_pid" "$node1_pid" "$node2_pid" 2>/dev/null || true
wait "$router_pid" "$node1_pid" "$node2_pid" 2>/dev/null || true
python3 - <<'EOF'
import json
status = json.load(open("build/cluster_smoke.status"))
assert status["healthy"] is True, status
nodes = status["nodes"]
assert len(nodes) == 3, nodes
for n in nodes[:2]:
    assert n["state"] == "healthy", n
    assert n["routed"] > 0, f"node {n['id']} never routed: {n}"
    assert n["down_reason"] == "", n
killed = nodes[2]
assert killed["state"] == "evicted", killed
assert killed["down_reason"], f"killed node has no down_reason: {killed}"
assert status["accepted"] > 0, status
assert status["replies"] + status["no_node"] == status["accepted"], status
assert status["inflight"] == 0, status
print(f"cluster smoke: {status['accepted']} requests over "
      f"{[n['routed'] for n in nodes]} per-node routes, zero loss, "
      f"{status['retries']} re-routed after node 2 died "
      f"({killed['down_reason']})")
EOF
python3 - <<'EOF'
import json
fleet = json.load(open("build/cluster_smoke.fleetz"))
assert fleet["router"]["healthy"] is True, fleet["router"]
nodes = [n for n in fleet["nodes"] if n["state"] == "healthy"]
assert len(nodes) == 2, fleet["nodes"]
for n in nodes:
    assert n["reachable"] is True, f"node {n['id']} unreachable: {n}"
    assert n["statusz"]["live_workers"] > 0, n
assert "stages" in fleet, list(fleet)  # --trace-sample=1 => stage summary
assert fleet["stages"].get("prefill", {}).get("count", 0) > 0, fleet["stages"]
print(f"fleetz smoke: router + {len(nodes)} reachable nodes, "
      f"{fleet['stages']['prefill']['count']} traced prefills")
EOF
python3 - <<'EOF'
import json
events = json.load(open("build/cluster_smoke.trace.json"))["traceEvents"]
parents = [e for e in events
           if e.get("name") == "request" and e.get("cat") == "trace"]
assert parents, "trace smoke: no 'request' parent spans in Chrome trace"
stages = [e for e in events
          if e.get("cat") == "trace" and e.get("name") != "request"]
nested = 0
for p in parents:
    kids = [s for s in stages
            if s["tid"] == p["tid"] and p["ts"] <= s["ts"] and
            s["ts"] + s["dur"] <= p["ts"] + p["dur"] + 1]
    if len(kids) >= 7:  # at least the seven node stages tile the parent
        nested += 1
assert nested > 0, "trace smoke: no parent span with nested stage children"
print(f"trace smoke: {len(parents)} request spans, "
      f"{nested} with fully nested stage children")
EOF

echo "== bench smoke (cluster_sweep --json) =="
./build/bench/cluster_sweep --duration=1 \
  --json=build/BENCH_cluster_smoke.json >/dev/null
python3 - <<'EOF'
import json
rows = json.load(open("build/BENCH_cluster_smoke.json"))["rows"]
assert rows, "cluster bench smoke: no rows"
for r in rows:
    assert r["lost"] == 0, f"lost requests in cell {r}"
scaling = {r["nodes"]: r["throughput_rps"] for r in rows
           if r["cell"] == "scaling"}
assert scaling[3] >= 2.0 * scaling[1], scaling
kill = [r for r in rows if r["cell"] == "kill"]
assert kill and kill[0]["killed"] == 1 and kill[0]["lost"] == 0, kill
print(f"cluster bench smoke: {len(rows)} cells, zero loss "
      f"(3-node scaling x{scaling[3] / scaling[1]:.2f})")
EOF

echo "== bench smoke (trace_overhead --json) =="
./build/bench/trace_overhead --duration=1 \
  --json=build/BENCH_trace_smoke.json >/dev/null
python3 - <<'EOF'
import json, math
rows = json.load(open("build/BENCH_trace_smoke.json"))["rows"]
assert [r["mode"] for r in rows] == \
    ["trace-off", "sample-1-in-64", "sample-full"], rows
for r in rows:
    assert math.isfinite(r["dispatch_p98_us"]), r
assert rows[0]["traced"] == 0, rows[0]
assert rows[2]["traced"] == rows[2]["ok"] > 0, rows[2]
print(f"trace bench smoke: {len(rows)} rows, dispatch p98 finite, "
      f"full sampling annexed {rows[2]['traced']}/{rows[2]['ok']}")
EOF

echo "== ctrl smoke (2 frozen backends + cluster_router --ctrl) =="
rm -f build/ctrl_smoke.node1.out build/ctrl_smoke.node2.out \
  build/ctrl_smoke.router.out
./build/examples/live_serving --listen=0 --admin-port=0 --speed=4 --gpus=2 \
  --freeze-alloc > build/ctrl_smoke.node1.out 2>&1 &
cnode1_pid=$!
./build/examples/live_serving --listen=0 --admin-port=0 --speed=4 --gpus=2 \
  --freeze-alloc > build/ctrl_smoke.node2.out 2>&1 &
cnode2_pid=$!
cnode1_port=$(wait_port build/ctrl_smoke.node1.out "listening on")
cnode1_admin=$(wait_port build/ctrl_smoke.node1.out "admin plane on")
cnode2_port=$(wait_port build/ctrl_smoke.node2.out "listening on")
cnode2_admin=$(wait_port build/ctrl_smoke.node2.out "admin plane on")
if [[ -z "$cnode1_port" || -z "$cnode1_admin" || -z "$cnode2_port" || \
      -z "$cnode2_admin" ]]; then
  kill "$cnode1_pid" "$cnode2_pid" 2>/dev/null || true
  echo "ctrl smoke: backends never announced their ports" >&2
  exit 1
fi
./build/examples/cluster_router \
  --nodes="${cnode1_port}:${cnode1_admin},${cnode2_port}:${cnode2_admin}" \
  --policy=length --ctrl --ctrl-period-ms=100 --ctrl-min-samples=50 \
  > build/ctrl_smoke.router.out 2>&1 &
crouter_pid=$!
crouter_port=$(wait_port build/ctrl_smoke.router.out "router listening on")
crouter_admin=$(wait_port build/ctrl_smoke.router.out "router admin on")
if [[ -z "$crouter_port" || -z "$crouter_admin" ]]; then
  kill "$crouter_pid" "$cnode1_pid" "$cnode2_pid" 2>/dev/null || true
  echo "ctrl smoke: router never announced its ports" >&2
  exit 1
fi
./build/examples/live_serving --connect="$crouter_port" --seconds=4 \
  --rate=200 --speed=4 | tee build/ctrl_smoke.load.out
grep -q "(lost 0)" build/ctrl_smoke.load.out || {
  echo "ctrl smoke: load generator reported losses" >&2
  exit 1
}
# The frozen backends boot all-largest; the short-heavy Twitter mix makes
# the bootstrap plan convert GPUs, so at least one delta must have applied.
ctrl_ok=""
for _ in $(seq 1 50); do
  curl -sf "http://127.0.0.1:${crouter_admin}/ctrl/statusz" \
    > build/ctrl_smoke.status || break
  ctrl_ok=$(python3 - <<'EOF'
import json
s = json.load(open("build/ctrl_smoke.status"))
print("ok" if s["replans"] >= 1 and s["deltas"]["applied"] >= 1 else "")
EOF
)
  [[ -n "$ctrl_ok" ]] && break
  sleep 0.2
done
kill -INT "$crouter_pid" "$cnode1_pid" "$cnode2_pid" 2>/dev/null || true
wait "$crouter_pid" "$cnode1_pid" "$cnode2_pid" 2>/dev/null || true
if [[ -z "$ctrl_ok" ]]; then
  echo "ctrl smoke: scheduler never applied a delta" >&2
  cat build/ctrl_smoke.status >&2 || true
  exit 1
fi
python3 - <<'EOF'
import json
s = json.load(open("build/ctrl_smoke.status"))
assert s["deltas"]["applied"] >= 1, s
assert s["incumbent"], s
print(f"ctrl smoke: {s['replans']} replans, "
      f"{s['deltas']['applied']} deltas applied, incumbent {s['incumbent']}")
EOF

echo "== bench smoke (ctrl_realloc_sweep --json) =="
# Full duration on purpose: the frozen row's tail grows with run length
# while the scheduler's transients stay fixed, so short cuts have no margin.
./build/bench/ctrl_realloc_sweep --json=build/BENCH_ctrl_smoke.json >/dev/null
python3 - <<'EOF'
import json
rows = json.load(open("build/BENCH_ctrl_smoke.json"))["rows"]
frozen = next(r for r in rows if r["mode"] == "frozen")
ctrl = next(r for r in rows if r["mode"] == "ctrl")
for r in (frozen, ctrl):
    assert r["lost"] == 0, f"lost requests: {r}"
assert ctrl["replans"] >= 1 and ctrl["deltas_applied"] >= 1, ctrl
assert ctrl["p98_ms"] <= frozen["p98_ms"], (ctrl["p98_ms"], frozen["p98_ms"])
print(f"ctrl bench smoke: ctrl p98 {ctrl['p98_ms']:.0f} ms vs frozen "
      f"{frozen['p98_ms']:.0f} ms, {ctrl['replans']} replans, zero loss")
EOF

echo "== bench smoke (generative_sweep --json) =="
./build/bench/generative_sweep --duration=1 \
  --json=build/BENCH_generative_smoke.json >/dev/null
python3 - <<'EOF'
import json, math
rows = json.load(open("build/BENCH_generative_smoke.json"))["rows"]
assert len(rows) == 6, rows  # 2 mixes x {continuous/prefill, continuous/decode, static}
for r in rows:
    for col in ("ttft_p50_ms", "ttft_p98_ms", "itl_p50_ms", "itl_p98_ms"):
        v = r[col]
        assert isinstance(v, (int, float)) and math.isfinite(v) and v > 0, r
for mix in ("short", "long"):
    cells = [r for r in rows if r["mix"] == mix]
    static = next(r for r in cells if r["batcher"] == "static")
    best_cont_itl = min(r["itl_p98_ms"] for r in cells
                        if r["batcher"] == "continuous")
    assert best_cont_itl <= static["itl_p98_ms"], (mix, cells)
    prefill = next(r for r in cells if r["admission"] == "prefill")
    assert prefill["ttft_p50_ms"] < static["ttft_p50_ms"], (mix, cells)
print(f"generative bench smoke: {len(rows)} cells, TTFT/ITL finite, "
      f"continuous holds its ITL-p98 and TTFT-p50 wins")
EOF

echo "== bench smoke (tenant_sweep --json) =="
# Default duration: the 1 s cut has too few interactive samples for a
# stable p98, and the full run is ~1 s wall anyway.
./build/bench/tenant_sweep --json=build/BENCH_tenant_smoke.json >/dev/null
python3 - <<'EOF'
import json, math
rows = json.load(open("build/BENCH_tenant_smoke.json"))["rows"]
assert len(rows) == 6, rows  # {fair, blind} x 3 classes
interactive = next(r for r in rows
                   if r["cell"] == "fair" and r["name"] == "interactive")
p98 = interactive["p98_ms"]
assert isinstance(p98, (int, float)) and math.isfinite(p98), interactive
assert p98 <= float(interactive["slo_ms"]), interactive
print(f"tenant bench smoke: {len(rows)} cells, fair interactive "
      f"p98 {p98} ms within its {interactive['slo_ms']} ms SLO")
EOF

if [[ "$run_tsan" == 1 ]]; then
  echo "== ThreadSanitizer (the whole suite) =="
  cmake -B build-tsan -S . -DARLO_TSAN=ON -DARLO_WERROR=ON >/dev/null
  cmake --build build-tsan -j "$(nproc)" --target arlo_tests
  # halt_on_error so a reported race fails the gate rather than scrolling by.
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/arlo_tests
fi

if [[ "$run_asan" == 1 ]]; then
  echo "== Address+UBSanitizer (the whole suite) =="
  cmake -B build-asan -S . -DARLO_ASAN=ON -DARLO_WERROR=ON >/dev/null
  cmake --build build-asan -j "$(nproc)" --target arlo_tests
  ./build-asan/tests/arlo_tests
fi

echo "== check.sh: all green =="
