#!/usr/bin/env bash
# Quick engine-performance smoke: builds the benchmark in Release, runs the
# core event-loop figures with a short budget, asserts the hot path is
# allocation-free (--assert-zero-alloc gates both the schedule_run engine
# figure and the wordcount_steady tuple-path figure at exactly 0 heap
# allocations per event after warm-up), and appends the JSON result to
# BENCH_history.jsonl so regressions are visible across commits. Fails
# when a full-mode recovery_bench or ablation_resource_aware run does not
# reproduce its committed baseline (bench/BENCH_recovery_baseline.json,
# bench/BENCH_resource_baseline.json; host time excepted), or when a
# seed-1 perfbench run of any workload misses its committed digest line
# in bench/perfbench_digests_seed1.txt. Also runs
# the trace_export example as an observability self-check: the Chrome
# trace must parse as JSON and carry at least one scheduling-decision
# record.
#
# Usage: scripts/bench_smoke.sh [label]
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
label="${1:-smoke-$(git -C "$repo" rev-parse --short HEAD 2>/dev/null || echo dev)}"
build="$repo/build-bench"
out="$(mktemp)"
trap 'rm -f "$out"' EXIT

cmake -B "$build" -S "$repo" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$build" -j "$(nproc)" \
  --target core_event_bench --target flow_bench \
  --target recovery_bench --target ablation_resource_aware \
  --target trace_export >/dev/null

"$build/bench/core_event_bench" \
  --quick --assert-zero-alloc --label "$label" --out "$out"

# One JSON object per line, append-only history.
tr -d '\n' < "$out" >> "$repo/BENCH_history.jsonl"
echo >> "$repo/BENCH_history.jsonl"

# Flow-control figures: same overloaded chain with and without flow
# control; the binary exits nonzero unless flow-off grows without bound
# and flow-on stays within capacity.
"$build/bench/flow_bench" --quick --label "$label" --out "$out"
tr -d '\n' < "$out" >> "$repo/BENCH_history.jsonl"
echo >> "$repo/BENCH_history.jsonl"

# Recovery figures: kill the worker hosting a stateful bolt and measure
# time-to-restore / time-to-consistent-state; the binary exits nonzero
# unless the cluster checkpointed before the kill and recovered within
# the budget.
"$build/bench/recovery_bench" --quick --label "$label" --out "$out"
tr -d '\n' < "$out" >> "$repo/BENCH_history.jsonl"
echo >> "$repo/BENCH_history.jsonl"

# Recovery outcome gate: the full-mode run is deterministic, so every
# results field except wall_s must equal the committed baseline as
# printed; a change to checkpoint size or restore timing fails here
# until bench/BENCH_recovery_baseline.json is regenerated on purpose.
"$build/bench/recovery_bench" --out "$out" >/dev/null
python3 "$repo/scripts/compare_bench_baseline.py" \
  "$repo/bench/BENCH_recovery_baseline.json" "$out"

# Placement gate: the full-mode heterogeneous-fleet run is deterministic,
# so every row of bench/BENCH_resource_baseline.json (keyed by algorithm,
# wall_s excepted) must be reproduced as printed.
"$build/bench/ablation_resource_aware" --out "$out" >/dev/null
python3 "$repo/scripts/compare_bench_baseline.py" \
  "$repo/bench/BENCH_resource_baseline.json" "$out"

# Simulated-outcome gate: each perfbench workload's digest line at seed 1
# must equal the committed one; a change that perturbs a simulated draw
# fails here until bench/perfbench_digests_seed1.txt is regenerated.
for w in wordcount_tstorm throughput_test stateful_failover sched_fleet; do
  python3 "$repo/perfbench/run.py" --workload "$w" --seed 1 --seconds 1 \
    --trace 0 > "$out"
  python3 "$repo/scripts/check_perfbench_digest.py" \
    "$repo/bench/perfbench_digests_seed1.txt" "$out"
done

# Resource-aware placement on a heterogeneous fleet: the binary exits
# nonzero unless rstorm beats round-robin on both inter-node traffic and
# completed tuples; the python check asserts the JSON is well-formed.
"$build/bench/ablation_resource_aware" --quick --label "$label" --out "$out"
python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$out"
tr -d '\n' < "$out" >> "$repo/BENCH_history.jsonl"
echo >> "$repo/BENCH_history.jsonl"
echo "appended '$label' to BENCH_history.jsonl"

# Observability self-check: the example exits nonzero when the run records
# no decisions or tuple traces; the python check asserts the Chrome export
# is well-formed JSON with >= 1 decision instant.
trace_dir="$(mktemp -d)"
trap 'rm -f "$out"; rm -rf "$trace_dir"' EXIT
"$build/examples/trace_export" \
  "$trace_dir/trace.json" "$trace_dir/trace.jsonl" >/dev/null
python3 - "$trace_dir/trace.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
decisions = [e for e in doc["traceEvents"]
             if e.get("ph") == "i" and e.get("name", "").startswith("decision")]
assert decisions, "no scheduling-decision instants in the Chrome trace"
print(f"trace_export OK: {len(doc['traceEvents'])} events, "
      f"{len(decisions)} decisions")
EOF
