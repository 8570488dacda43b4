#!/usr/bin/env bash
# Federated round-reproducibility gate: builds bench_fl, runs the gate in
# bench/fl_gate.h — the acceptance config (1024 clients, 10% participation,
# 5% dropout, 20 rounds; 256/8 under --quick) executed four ways: windowed
# at 1 thread (records the dropout plan), windowed at 8 threads replaying
# it, full-broadcast with reverse member claiming, and a naive sequential
# baseline — and writes BENCH_FL.json.
#
# Pass requires every one of:
#   * bitwise_threads / bitwise_order / bitwise_naive == 1 (every replay
#     commits a bitwise-identical final server state: thread count, member
#     execution order, and the executor are schedule choices, never math)
#   * stats_identical    == 1 (per-round participation/dropout/straggler
#     counters match across executors)
#   * pool_misses_steady == 0 (the flow window keeps every size class
#     inside the transport pool; past warm-up no run touches malloc)
#   * throughput_ratio   >= MIN_RATIO (best windowed run over the naive
#     sequential unpooled baseline — a no-regression guard on the window/
#     pool machinery; this box has one core, so parity, not speedup)
#
# Timing on a shared box is noisy, so the ratio check gets ATTEMPTS tries;
# the correctness checks (bitwise, stats, misses) must pass on every try.
#
# Usage: scripts/fl_gate.sh [build-dir] [--quick]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="build"
QUICK=""
for arg in "$@"; do
  case "$arg" in
    --quick) QUICK="--quick" ;;
    *) BUILD_DIR="$arg" ;;
  esac
done
JOBS="$(nproc 2>/dev/null || echo 4)"
MIN_RATIO="0.75"
ATTEMPTS=3
REPORT="BENCH_FL.json"

echo "==> building bench_fl (${BUILD_DIR})"
cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build "$BUILD_DIR" -j "$JOBS" --target bench_fl >/dev/null

json_num() { grep -o "\"$1\": *-*[0-9.]*" "$REPORT" | grep -o '[0-9.-]*$'; }

for attempt in $(seq 1 "$ATTEMPTS"); do
  echo "==> fl gate: windowed rounds vs naive sequential (attempt ${attempt}/${ATTEMPTS})"
  "./$BUILD_DIR/bench/bench_fl" --fl-json="$REPORT" $QUICK

  RATIO="$(json_num throughput_ratio)"
  MISSES="$(json_num pool_misses_steady)"
  BW_THREADS="$(json_num bitwise_threads)"
  BW_ORDER="$(json_num bitwise_order)"
  BW_NAIVE="$(json_num bitwise_naive)"
  STATS="$(json_num stats_identical)"
  HASH="$(json_num model_hash)"
  if [ -z "$RATIO" ] || [ -z "$MISSES" ] || [ -z "$BW_THREADS" ] ||
     [ -z "$BW_ORDER" ] || [ -z "$BW_NAIVE" ] || [ -z "$STATS" ]; then
    echo "FAIL: $REPORT is missing gate keys" >&2
    exit 1
  fi

  # Correctness is not allowed to be flaky: fail immediately, no retry.
  if [ "$BW_THREADS" != "1" ]; then
    echo "FAIL: 8-thread replay committed a different final server state" >&2
    exit 1
  fi
  if [ "$BW_ORDER" != "1" ]; then
    echo "FAIL: reverse-claim replay committed a different final server state" >&2
    exit 1
  fi
  if [ "$BW_NAIVE" != "1" ]; then
    echo "FAIL: naive sequential replay committed a different final server state" >&2
    exit 1
  fi
  if [ "$STATS" != "1" ]; then
    echo "FAIL: per-round participation/dropout stats differ across executors" >&2
    exit 1
  fi
  if [ "$MISSES" != "0" ]; then
    echo "FAIL: ${MISSES} steady-state pool misses (want 0 after warm-up)" >&2
    exit 1
  fi

  if awk -v r="$RATIO" -v min="$MIN_RATIO" 'BEGIN { exit !(r >= min) }'; then
    echo "OK: federated rounds bitwise-identical across threads/order/executor" \
         "(state hash ${HASH}), 0 steady-state pool misses, windowed at" \
         "${RATIO}x naive throughput (gate: >= ${MIN_RATIO}x, report: $REPORT)"
    exit 0
  fi
  echo "attempt ${attempt}: throughput ratio ${RATIO}x" \
       "(need >= ${MIN_RATIO}x), retrying"
done

echo "FAIL: throughput ratio below ${MIN_RATIO}x after ${ATTEMPTS} attempts" \
     "(report: $REPORT)" >&2
exit 1
