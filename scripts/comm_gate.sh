#!/usr/bin/env bash
# Transport/collective perf gate: builds bench_micro_primitives, runs the
# comm gate (bench/comm_gate.h) which times the frozen seed transport
# (PoolMode::kUnpooled + collectives/seed.h blocking rings) against the
# zero-copy pooled transport + pipelined rings, and writes BENCH_COMM.json.
#
# Pass requires every one of:
#   * p2p_speedup        >= MIN_SPEEDUP (pooled p2p vs seed p2p)
#   * allreduce_speedup  >= MIN_SPEEDUP (pipelined ring vs seed ring, 8 ranks)
#   * pool_misses_steady == 0 (after warm-up, every payload is served from
#     recycled buffers — steady-state messaging does zero heap allocations)
#   * bitwise_identical  == 1 (the pipelined allreduce reproduces the seed
#     result byte for byte)
#
# Timing on a shared box is noisy, so the speedup check gets ATTEMPTS
# tries; the correctness checks (misses, bitwise) must pass on every try.
#
# Usage: scripts/comm_gate.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
JOBS="$(nproc 2>/dev/null || echo 4)"
MIN_SPEEDUP="1.5"
ATTEMPTS=3
REPORT="BENCH_COMM.json"

echo "==> building bench_micro_primitives (${BUILD_DIR})"
cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build "$BUILD_DIR" -j "$JOBS" --target bench_micro_primitives >/dev/null

json_num() { grep -o "\"$1\": *-*[0-9.]*" "$REPORT" | grep -o '[0-9.-]*$'; }

for attempt in $(seq 1 "$ATTEMPTS"); do
  echo "==> comm gate: seed vs pooled+pipelined (attempt ${attempt}/${ATTEMPTS})"
  "./$BUILD_DIR/bench/bench_micro_primitives" --comm-json="$REPORT" --quick

  P2P="$(json_num p2p_speedup)"
  AR="$(json_num allreduce_speedup)"
  MISSES="$(json_num pool_misses_steady)"
  BITWISE="$(json_num bitwise_identical)"
  if [ -z "$P2P" ] || [ -z "$AR" ] || [ -z "$MISSES" ] || [ -z "$BITWISE" ]; then
    echo "FAIL: $REPORT is missing gate keys" >&2
    exit 1
  fi

  # Correctness is not allowed to be flaky: fail immediately, no retry.
  if [ "$BITWISE" != "1" ]; then
    echo "FAIL: pipelined allreduce is not bitwise-identical to the seed" >&2
    exit 1
  fi
  if [ "$MISSES" != "0" ]; then
    echo "FAIL: ${MISSES} steady-state pool misses (want 0 after warm-up)" >&2
    exit 1
  fi

  if awk -v p="$P2P" -v a="$AR" -v min="$MIN_SPEEDUP" \
       'BEGIN { exit !(p >= min && a >= min) }'; then
    echo "OK: p2p ${P2P}x, 8-rank allreduce ${AR}x over the seed path," \
         "0 steady-state pool misses, bitwise identical" \
         "(gate: >= ${MIN_SPEEDUP}x, report: $REPORT)"
    exit 0
  fi
  echo "attempt ${attempt}: p2p ${P2P}x, allreduce ${AR}x" \
       "(need >= ${MIN_SPEEDUP}x on both), retrying"
done

echo "FAIL: speedups below ${MIN_SPEEDUP}x after ${ATTEMPTS} attempts" \
     "(report: $REPORT)" >&2
exit 1
