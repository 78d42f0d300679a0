#!/usr/bin/env bash
# Determinism soak: one manifest, every way tdals can run it, one set
# of bytes. The reference is `serve-batch` at 4 worker slots; each leg
# below must `cmp` byte-identical to it:
#
#   1. serve-batch at 1 worker slot (scheduler interleavings);
#   2. serve-batch with --trace on (tracing is a pure observer), plus a
#      well-formedness check of the Chrome trace;
#   3. a `serve` daemon on a unix socket driven by `submit` from a
#      second process, with a `stats` query and a graceful shutdown;
#   4. shard-batch over 3 spawned daemons, over 3 running daemons
#      (--connect), and over 3 spawned daemons with shard 1's first
#      worker killed right after spawn (the restart path).
#
# Usage: ci/determinism-soak.sh [tdals-binary] [out-dir]
# Defaults: target/release/tdals and soak-out. Results files, the shard
# map, the stats reply and the trace are left in out-dir.
set -euo pipefail

tdals=$(realpath "${1:-target/release/tdals}")
out=${2:-soak-out}
mkdir -p "$out"
cd "$out"
rm -f ./*.sock
# Never leave a daemon behind, whichever step fails.
trap 'kill $(jobs -p) 2>/dev/null || true' EXIT

# Mixed methods, budgets and priorities; bench: circuits only, so the
# daemons can take it (they read no files), and no wall-clock budgets.
cat > soak_manifest.json <<'EOF'
{
  "jobs": [
    {"circuit": "bench:Int2float", "name": "i2f-dcgwo", "metric": "er",
     "bound": 0.05, "method": "dcgwo", "population": 6,
     "iterations": 3, "vectors": 512, "seed": 11},
    {"circuit": "bench:Int2float", "name": "i2f-hedals", "metric": "er",
     "bound": 0.05, "method": "hedals", "iterations": 1,
     "vectors": 512, "seed": 7, "priority": 5, "threads": 2},
    {"circuit": "bench:Max16", "name": "max-vaacs", "metric": "nmed",
     "bound": 0.0244, "method": "vaacs", "population": 6,
     "iterations": 2, "vectors": 512, "seed": 5,
     "max_evaluations": 60},
    {"circuit": "bench:Int2float", "name": "i2f-greedy", "metric": "er",
     "bound": 0.05, "method": "greedy", "iterations": 1,
     "vectors": 512, "seed": 3, "max_iterations": 4},
    {"circuit": "bench:Max16", "name": "max-gwo", "metric": "nmed",
     "bound": 0.0244, "method": "gwo", "population": 6,
     "iterations": 2, "vectors": 512, "seed": 9}
  ]
}
EOF

"$tdals" serve-batch --manifest soak_manifest.json \
  --total-threads 4 --out results_t4.json

# 1. Pool widths.
"$tdals" serve-batch --manifest soak_manifest.json \
  --total-threads 1 --out results_t1.json
cmp results_t1.json results_t4.json
echo "soak: results are byte-identical across pool widths"

# 2. Tracing on: same results, and a trace with every method's
# flow -> phase -> iteration hierarchy.
"$tdals" serve-batch --manifest soak_manifest.json \
  --total-threads 4 --trace trace.json --out results_obs.json
cmp results_obs.json results_t4.json
echo "soak: results are byte-identical with tracing on"
python3 -m json.tool trace.json > /dev/null
python3 - <<'EOF'
import json
doc = json.load(open("trace.json"))
events = doc["traceEvents"]
assert all(e["ph"] == "X" for e in events), "complete events only"
flows = [e for e in events if e["cat"] == "flow"]
assert len(flows) == 5, [e["name"] for e in flows]
phases = {e["name"] for e in events if e["cat"] == "phase"}
assert phases == {"setup", "optimize", "post-opt"}, phases
iters = [e for e in events if e["cat"] == "iteration"]
assert iters, "iteration spans present"
assert doc["otherData"]["dropped_spans"] == 0, doc["otherData"]
print("soak: trace has", len(events), "spans across", len(flows), "flows")
EOF

# 3. A daemon lifecycle from a second process: serve, submit with
# progress, query stats while the daemon is up, then a graceful
# shutdown (drain + exit) that removes the socket.
"$tdals" serve --listen ./tdals-soak.sock --total-threads 4 &
serve_pid=$!
"$tdals" submit --connect ./tdals-soak.sock \
  --manifest soak_manifest.json --progress --retry 100 \
  --out results_daemon.json
"$tdals" stats --connect ./tdals-soak.sock > stats.json
python3 - <<'EOF'
import json
stats = json.load(open("stats.json"))
assert stats["ok"] == "stats", stats
counters = stats["metrics"]["counters"]
assert counters["evaluations"] > 0, counters
assert counters["frames_read"] > 0, counters
assert counters["sessions_reaped"] >= 5, counters
print("soak: daemon stats report", counters["evaluations"],
      "evaluations over", counters["frames_read"], "frames")
EOF
cat > shutdown_manifest.json <<'EOF'
{"jobs": [{"circuit": "bench:Int2float", "name": "bye",
           "metric": "er", "bound": 0.05, "method": "greedy",
           "iterations": 1, "vectors": 64, "seed": 1}]}
EOF
"$tdals" submit --connect ./tdals-soak.sock \
  --manifest shutdown_manifest.json --out results_bye.json --shutdown
wait "$serve_pid"
test ! -e ./tdals-soak.sock  # graceful exit removed the socket
cmp results_daemon.json results_t4.json
echo "soak: wire results are byte-identical to serve-batch"

# 4. Shards: spawned daemons, running daemons, and a crash-restart.
"$tdals" shard-batch --manifest soak_manifest.json \
  --shards 3 --total-threads 2 --shard-map shard_map.json \
  --out results_spawned.json
cmp results_spawned.json results_t4.json
pids=()
for shard in a b c; do
  "$tdals" serve --listen "./shard-$shard.sock" --total-threads 2 &
  pids+=($!)
done
"$tdals" shard-batch --manifest soak_manifest.json \
  --connect ./shard-a.sock,./shard-b.sock,./shard-c.sock \
  --retry 100 --out results_connect.json
for shard in a b c; do
  "$tdals" submit --connect "./shard-$shard.sock" --shutdown
done
wait "${pids[@]}"
cmp results_connect.json results_t4.json
TDALS_CLUSTER_CRASH_SHARD=1 "$tdals" shard-batch \
  --manifest soak_manifest.json --shards 3 --total-threads 2 \
  --out results_crash.json
cmp results_crash.json results_t4.json
echo "soak: sharded runs (spawned, --connect, crash-restart) are byte-identical to serve-batch"
