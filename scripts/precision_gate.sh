#!/usr/bin/env bash
# Mixed-precision perf gate: builds bench_micro_primitives, runs the
# precision gate (bench/precision_gate.h) and writes BENCH_PRECISION.json.
#
# Pass requires every one of:
#   * convert_bf16_speedup >= MIN_CONVERT and
#     convert_fp16_speedup >= MIN_CONVERT (the vectorized batch convert
#     kernels in tensor/convert.cc vs the frozen naive scalars in
#     tensor/reference.cc)
#   * convert_matches_reference == 1 (vectorized and scalar converts are
#     bitwise identical on the same inputs)
#   * wire_speedup >= MIN_WIRE (the bf16 allreduce — C_LP_S with the bf16
#     codec — vs the default fp32 C_FP_S on the same 4 ranks and inputs
#     under WireDelayTransport's per-byte charging: half the wire bytes
#     must show up as wall-clock)
#   * train_bitwise_identical == 1 (bf16 SGD + Adam with fp32 master
#     weights produce byte-identical parameters on every rank and at
#     1/2/8 intra-op threads, on a flat and on a 2x2 hierarchical
#     topology — bitwise within each topology)
#   * arena_misses_steady == 0 and pool_misses_steady == 0 (warm bf16
#     C_LP_S rounds allocate nothing)
#
# Timing on a shared box is noisy, so the speedup checks get ATTEMPTS
# tries; the correctness checks (bitwise, misses) must pass on every try.
#
# Usage: scripts/precision_gate.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
JOBS="$(nproc 2>/dev/null || echo 4)"
MIN_CONVERT="2.0"
MIN_WIRE="1.4"
ATTEMPTS=3
REPORT="BENCH_PRECISION.json"

echo "==> building bench_micro_primitives (${BUILD_DIR})"
cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build "$BUILD_DIR" -j "$JOBS" --target bench_micro_primitives >/dev/null

json_num() { grep -o "\"$1\": *-*[0-9.]*" "$REPORT" | grep -o '[0-9.-]*$'; }

for attempt in $(seq 1 "$ATTEMPTS"); do
  echo "==> precision gate: converts, bf16 vs fp32 allreduce, determinism (attempt ${attempt}/${ATTEMPTS})"
  "./$BUILD_DIR/bench/bench_micro_primitives" --precision-json="$REPORT" --quick

  CBF="$(json_num convert_bf16_speedup)"
  CFP="$(json_num convert_fp16_speedup)"
  CMATCH="$(json_num convert_matches_reference)"
  WIRE="$(json_num wire_speedup)"
  TRAIN="$(json_num train_bitwise_identical)"
  AMISS="$(json_num arena_misses_steady)"
  PMISS="$(json_num pool_misses_steady)"
  if [ -z "$CBF" ] || [ -z "$CFP" ] || [ -z "$CMATCH" ] || [ -z "$WIRE" ] ||
     [ -z "$TRAIN" ] || [ -z "$AMISS" ] || [ -z "$PMISS" ]; then
    echo "FAIL: $REPORT is missing gate keys" >&2
    exit 1
  fi

  # Correctness is not allowed to be flaky: fail immediately, no retry.
  if [ "$CMATCH" != "1" ]; then
    echo "FAIL: vectorized converts are not bitwise-identical to the naive scalars" >&2
    exit 1
  fi
  if [ "$TRAIN" != "1" ]; then
    echo "FAIL: bf16 training is not bitwise identical across ranks/threads" >&2
    exit 1
  fi
  if [ "$AMISS" != "0" ] || [ "$PMISS" != "0" ]; then
    echo "FAIL: steady-state misses (arena ${AMISS}, pool ${PMISS}; want 0)" >&2
    exit 1
  fi

  if awk -v b="$CBF" -v f="$CFP" -v w="$WIRE" \
       -v minc="$MIN_CONVERT" -v minw="$MIN_WIRE" \
       'BEGIN { exit !(b >= minc && f >= minc && w >= minw) }'; then
    echo "OK: converts bf16 ${CBF}x / fp16 ${CFP}x (gate: >= ${MIN_CONVERT}x)," \
         "bf16 allreduce ${WIRE}x over fp32 default (gate: >= ${MIN_WIRE}x)," \
         "training bitwise identical, 0 steady-state misses" \
         "(report: $REPORT)"
    exit 0
  fi
  echo "attempt ${attempt}: converts bf16 ${CBF}x / fp16 ${CFP}x" \
       "(need >= ${MIN_CONVERT}x), wire ${WIRE}x (need >= ${MIN_WIRE}x), retrying"
done

echo "FAIL: speedups below the gate after ${ATTEMPTS} attempts" \
     "(report: $REPORT)" >&2
exit 1
