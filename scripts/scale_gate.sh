#!/usr/bin/env bash
# Scalability gate: builds bench_scalability, runs the DES-priced
# collective crossover sweep (flat ring vs hierarchical vs binomial tree
# vs sharded parameter server, 16 -> 2048 simulated ranks on 8-device
# nodes), and writes BENCH_SCALE.json.
#
# Pass requires every one of:
#   * hier_speedup_16x8 >= MIN_HIER_SPEEDUP — on the paper's 16x8 testbed
#     the hierarchical allreduce must beat the flat ring on a 256 KiB
#     gradient bucket (the two-tier split relieves the NIC of the
#     per-device traffic);
#   * ps_crossover_ranks >= MIN_PS_RANKS — the sharded parameter server
#     may only overtake the leader ring at genuinely large scale, i.e.
#     the hierarchical ring must hold the 32 MiB exchange at least to
#     512 simulated ranks.
#
# The sweep is a deterministic closed-recurrence simulation (no worker
# threads, no timing), so there are no retries: one run, one verdict.
#
# Usage: scripts/scale_gate.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
JOBS="$(nproc 2>/dev/null || echo 4)"
MIN_HIER_SPEEDUP="1.3"
MIN_PS_RANKS="512"
REPORT="BENCH_SCALE.json"

echo "==> building bench_scalability (${BUILD_DIR})"
cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build "$BUILD_DIR" -j "$JOBS" --target bench_scalability >/dev/null

json_num() { grep -o "\"$1\": *-*[0-9.]*" "$REPORT" | grep -o '[0-9.-]*$'; }

echo "==> scale gate: flat/hier/tree/PS crossover sweep to 2048 ranks"
"./$BUILD_DIR/bench/bench_scalability" --scale-json="$REPORT" --quick \
  >/dev/null

HIER="$(json_num hier_speedup_16x8)"
TREE="$(json_num tree_speedup_16x8)"
PS_RANKS="$(json_num ps_crossover_ranks)"
CROSS="$(json_num flat_hier_crossover_ranks)"
ERR="$(json_num model_agreement_max_err)"
if [ -z "$HIER" ] || [ -z "$PS_RANKS" ] || [ -z "$CROSS" ]; then
  echo "FAIL: $REPORT is missing gate keys" >&2
  exit 1
fi

if ! awk -v s="$HIER" -v min="$MIN_HIER_SPEEDUP" 'BEGIN { exit !(s >= min) }'; then
  echo "FAIL: hierarchical allreduce only ${HIER}x over flat at 16x8" \
       "(need >= ${MIN_HIER_SPEEDUP}x, report: $REPORT)" >&2
  exit 1
fi
if ! awk -v r="$PS_RANKS" -v min="$MIN_PS_RANKS" 'BEGIN { exit !(r >= min) }'; then
  echo "FAIL: parameter server overtakes the leader ring at ${PS_RANKS}" \
       "ranks (need >= ${MIN_PS_RANKS}, report: $REPORT)" >&2
  exit 1
fi

echo "OK: hierarchical ${HIER}x over flat at 16x8 (gate >=" \
     "${MIN_HIER_SPEEDUP}x), tree ${TREE}x on small tensors, flat->hier" \
     "crossover at ${CROSS} ranks, PS crossover at ${PS_RANKS} ranks" \
     "(gate >= ${MIN_PS_RANKS}), closed-form vs DES max err ${ERR}" \
     "(report: $REPORT)"
