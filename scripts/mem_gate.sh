#!/usr/bin/env bash
# Whole-step memory gate: builds bench_mem, runs the mem gate
# (bench/mem_gate.h) which drives full training loops (allreduce, qsgd8,
# 1-bit Adam), a compressor round-trip loop, and the embedding-serving
# replay to steady state on the shared subsystem arenas (base/arena.h),
# and writes BENCH_MEM.json with the per-subsystem byte-attribution table.
#
# Pass requires every one of (all correctness — no retries, no tolerance):
#   * train_arena_misses_steady   == 0 (past warm-up, a whole training step
#     allocates nothing: tensors, collective scratch, compressor state and
#     optimizer scratch are all served from recycled arena blocks)
#   * train_pool_misses_steady    == 0 (the transport pool holds the PR 5
#     discipline inside the full step, not just an isolated collective)
#   * serving_arena_misses_steady == 0 (a repeat serving replay is served
#     entirely from the free lists the first replay filled)
#   * pool_misses_steady          == 0 (the serving replay's own internal
#     steady-state pool counter)
#   * every refactored subsystem actually attributes bytes: the
#     memory_<tag>_peak_bytes gauges for tensor, comm, compress, algo,
#     transport, serve_cache and ps_embedding are all > 0.
#
# Usage: scripts/mem_gate.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
JOBS="$(nproc 2>/dev/null || echo 4)"
REPORT="BENCH_MEM.json"

echo "==> building bench_mem (${BUILD_DIR})"
cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build "$BUILD_DIR" -j "$JOBS" --target bench_mem >/dev/null

json_num() { grep -o "\"$1\": *-*[0-9.]*" "$REPORT" | grep -o '[0-9.-]*$'; }

echo "==> mem gate: whole-step zero-allocation + byte attribution"
"./$BUILD_DIR/bench/bench_mem" --mem-json="$REPORT" --quick

for key in train_arena_misses_steady train_pool_misses_steady \
           serving_arena_misses_steady pool_misses_steady; do
  VAL="$(json_num "$key")"
  if [ -z "$VAL" ]; then
    echo "FAIL: $REPORT is missing $key" >&2
    exit 1
  fi
  if [ "$VAL" != "0" ]; then
    echo "FAIL: $key = $VAL (want 0 — steady state must not allocate)" >&2
    exit 1
  fi
done

for tag in tensor comm compress algo transport serve_cache ps_embedding; do
  PEAK="$(json_num "memory_${tag}_peak_bytes")"
  if [ -z "$PEAK" ]; then
    echo "FAIL: $REPORT is missing memory_${tag}_peak_bytes" >&2
    exit 1
  fi
  if [ "$PEAK" = "0" ]; then
    echo "FAIL: memory_${tag}_peak_bytes = 0 (subsystem '${tag}' never" \
         "attributed a byte — is it still allocating off-arena?)" >&2
    exit 1
  fi
done

echo "OK: zero steady-state arena+pool misses across training, compressor" \
     "and serving regimes; all subsystems attributing (report: $REPORT)"
