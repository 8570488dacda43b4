#!/usr/bin/env bash
# Kernel perf-regression gate: builds the bench binaries, smoke-runs the
# Table 4 bench in quick mode, then runs the kernel gate
# (bench/kernel_gate.h) which times the frozen seed GEMM against the
# blocked kernel and writes BENCH_KERNELS.json. Fails if the blocked GEMM
# is not at least MIN_SPEEDUP x faster at 256^3 — the floor it must clear
# on a single core, with no help from the intra-op pool.
#
# Usage: scripts/perf_gate.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
JOBS="$(nproc 2>/dev/null || echo 4)"
MIN_SPEEDUP="2.0"
REPORT="BENCH_KERNELS.json"

echo "==> building bench binaries (${BUILD_DIR})"
cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build "$BUILD_DIR" -j "$JOBS" \
  --target bench_micro_primitives bench_table4_epoch_time >/dev/null

echo "==> table 4 smoke (quick)"
"./$BUILD_DIR/bench/bench_table4_epoch_time" --quick >/dev/null

echo "==> kernel gate: reference vs blocked GEMM"
"./$BUILD_DIR/bench/bench_micro_primitives" --kernels-json="$REPORT" --quick

SPEEDUP="$(grep -o '"speedup_256": *[0-9.]*' "$REPORT" | grep -o '[0-9.]*$')"
if [ -z "$SPEEDUP" ]; then
  echo "FAIL: no speedup_256 in $REPORT" >&2
  exit 1
fi

if awk -v s="$SPEEDUP" -v min="$MIN_SPEEDUP" 'BEGIN { exit !(s >= min) }'; then
  echo "OK: blocked GEMM ${SPEEDUP}x faster than the seed kernel at 256^3" \
       "(gate: >= ${MIN_SPEEDUP}x, report: $REPORT)"
else
  echo "FAIL: blocked GEMM only ${SPEEDUP}x at 256^3, gate is" \
       ">= ${MIN_SPEEDUP}x (report: $REPORT)" >&2
  exit 1
fi
