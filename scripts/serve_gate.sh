#!/usr/bin/env bash
# Serving perf gate: builds bench_serving, runs the embedding-serving gate
# (bench/serving_gate.h) which replays the same seeded request stream
# through the full front end (dynamic batching + LRU hot-row cache) and
# degraded to batch=1 with the cache off, and writes BENCH_SERVING.json.
#
# Pass requires every one of:
#   * qps_speedup        >= MIN_SPEEDUP (batched+cached over batch=1
#     uncached — batching amortizes per-collective latency, the cache
#     keeps hot rows off the wire)
#   * bitwise_identical  == 1 (batch boundaries and cache hits change the
#     schedule, never the bytes: both replays produce identical logits)
#   * pool_misses_steady == 0 (past warm-up every AllToAll payload is
#     served from recycled transport buffers)
#
# Timing on a shared box is noisy, so the speedup check gets ATTEMPTS
# tries; the correctness checks (misses, bitwise) must pass on every try.
#
# Usage: scripts/serve_gate.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
JOBS="$(nproc 2>/dev/null || echo 4)"
MIN_SPEEDUP="1.5"
ATTEMPTS=3
REPORT="BENCH_SERVING.json"

echo "==> building bench_serving (${BUILD_DIR})"
cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build "$BUILD_DIR" -j "$JOBS" --target bench_serving >/dev/null

json_num() { grep -o "\"$1\": *-*[0-9.]*" "$REPORT" | grep -o '[0-9.-]*$'; }

for attempt in $(seq 1 "$ATTEMPTS"); do
  echo "==> serving gate: batched+cached vs batch=1 uncached (attempt ${attempt}/${ATTEMPTS})"
  "./$BUILD_DIR/bench/bench_serving" --serving-json="$REPORT" --quick

  SPEEDUP="$(json_num qps_speedup)"
  MISSES="$(json_num pool_misses_steady)"
  BITWISE="$(json_num bitwise_identical)"
  HIT="$(json_num cache_hit_rate)"
  if [ -z "$SPEEDUP" ] || [ -z "$MISSES" ] || [ -z "$BITWISE" ]; then
    echo "FAIL: $REPORT is missing gate keys" >&2
    exit 1
  fi

  # Correctness is not allowed to be flaky: fail immediately, no retry.
  if [ "$BITWISE" != "1" ]; then
    echo "FAIL: batched+cached logits differ from batch=1 uncached" >&2
    exit 1
  fi
  if [ "$MISSES" != "0" ]; then
    echo "FAIL: ${MISSES} steady-state pool misses (want 0 after warm-up)" >&2
    exit 1
  fi

  if awk -v s="$SPEEDUP" -v min="$MIN_SPEEDUP" 'BEGIN { exit !(s >= min) }'; then
    echo "OK: batched+cached serving ${SPEEDUP}x QPS over batch=1 uncached" \
         "(cache hit rate ${HIT}), 0 steady-state pool misses, bitwise" \
         "identical (gate: >= ${MIN_SPEEDUP}x, report: $REPORT)"
    exit 0
  fi
  echo "attempt ${attempt}: qps speedup ${SPEEDUP}x" \
       "(need >= ${MIN_SPEEDUP}x), retrying"
done

echo "FAIL: qps speedup below ${MIN_SPEEDUP}x after ${ATTEMPTS} attempts" \
     "(report: $REPORT)" >&2
exit 1
