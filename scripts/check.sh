#!/usr/bin/env bash
# Tier-1 checks: a normal build + ctest, then the same suite under
# ThreadSanitizer (BAGUA_SANITIZE=thread) — the transport, fault injector
# and trainer are aggressively multi-threaded, so TSan is the gate that
# matters most here. BAGUA_SANITIZE=address is accepted as $1 to run under
# ASan instead.
set -euo pipefail
cd "$(dirname "$0")/.."

SANITIZER="${1:-thread}"
JOBS="$(nproc 2>/dev/null || echo 4)"

# Every configure names its build type, so a type cached in build/ from an
# earlier hand configure cannot change what the perf gates measure.
echo "==> plain build + tier-1 tests"
cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "==> tracing-enabled run + trace schema validation"
TRACE_JSON="$(mktemp /tmp/bagua_check_trace.XXXXXX.json)"
trap 'rm -f "$TRACE_JSON"' EXIT
./build/examples/trace_observability --trace-out="$TRACE_JSON" >/dev/null
./build/tools/trace_schema_check "$TRACE_JSON"
ctest --test-dir build --output-on-failure -j "$JOBS" -L trace

echo "==> kernel correctness (ctest -L kernels) + perf-regression gate"
ctest --test-dir build --output-on-failure -j "$JOBS" -L kernels
./scripts/perf_gate.sh build

echo "==> measured-overlap gate (async comm engine vs synchronous executor)"
./scripts/overlap_gate.sh build

echo "==> comm gate (zero-copy pooled transport + pipelined rings)"
./scripts/comm_gate.sh build

echo "==> serving gate (dynamic batching + hot-row cache over sharded embeddings)"
./scripts/serve_gate.sh build

echo "==> scale gate (flat vs hierarchical vs tree vs PS crossover sweep)"
./scripts/scale_gate.sh build

echo "==> fl gate (federated round reproducibility across executors)"
./scripts/fl_gate.sh build

echo "==> mem gate (whole-step zero-allocation + per-subsystem attribution)"
./scripts/mem_gate.sh build

echo "==> precision gate (vectorized converts + bf16 C_LP_S + mixed-precision determinism)"
./scripts/precision_gate.sh build

echo "==> mixed-precision tests (ctest -L precision)"
ctest --test-dir build --output-on-failure -j "$JOBS" -L precision

echo "==> arena allocator tests (ctest -L mem)"
ctest --test-dir build --output-on-failure -j "$JOBS" -L mem

# The kernel TUs lower their compiler vector types to whatever the target
# has; a build without -march=native (baseline x86-64: SSE2, no FMA) takes
# the narrow GEMM tile and the unfused multiply-add, and must still match
# the GEMM order oracle and the QSGD oracle bit for bit. Only the targets
# labelled "kernels" in tests/CMakeLists.txt are built.
echo "==> portable kernels (BAGUA_NATIVE_KERNELS=OFF, ctest -L kernels)"
cmake -B build-portable -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DBAGUA_NATIVE_KERNELS=OFF >/dev/null
cmake --build build-portable -j "$JOBS" --target parallel_test kernels_test \
  dtype_test compress_test codec_kernel_test determinism_test \
  bench_smoke_test
ctest --test-dir build-portable --output-on-failure -j "$JOBS" -L kernels

echo "==> ${SANITIZER} sanitizer build + tier-1 tests"
cmake -B "build-${SANITIZER}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DBAGUA_SANITIZE="${SANITIZER}" >/dev/null
cmake --build "build-${SANITIZER}" -j "$JOBS"
ctest --test-dir "build-${SANITIZER}" --output-on-failure -j "$JOBS"

echo "==> schedule IR / executor tests under ${SANITIZER} (ctest -L sched)"
ctest --test-dir "build-${SANITIZER}" --output-on-failure -j "$JOBS" -L sched

echo "==> transport/collective tests under ${SANITIZER} (ctest -L comm)"
ctest --test-dir "build-${SANITIZER}" --output-on-failure -j "$JOBS" -L comm

echo "==> AllToAll + serving front-end tests under ${SANITIZER} (ctest -L serving)"
ctest --test-dir "build-${SANITIZER}" --output-on-failure -j "$JOBS" -L serving

echo "==> hierarchical collectives + scale model under ${SANITIZER} (ctest -L hier)"
ctest --test-dir "build-${SANITIZER}" --output-on-failure -j "$JOBS" -L hier

echo "==> federated rounds + client lifecycle under ${SANITIZER} (ctest -L fl)"
ctest --test-dir "build-${SANITIZER}" --output-on-failure -j "$JOBS" -L fl

echo "==> arena allocator tests under ${SANITIZER} (ctest -L mem)"
ctest --test-dir "build-${SANITIZER}" --output-on-failure -j "$JOBS" -L mem

echo "==> dtype converts + 16-bit codecs under ${SANITIZER} (ctest -L precision)"
ctest --test-dir "build-${SANITIZER}" --output-on-failure -j "$JOBS" -L precision

if [ "${SANITIZER}" != "address" ]; then
  echo "==> ASan build + arena/precision tests (ctest -L mem, -L precision)"
  cmake -B build-address -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DBAGUA_SANITIZE=address >/dev/null
  cmake --build build-address -j "$JOBS" --target arena_test pool_test \
    dtype_test wire_codec_test
  ctest --test-dir build-address --output-on-failure -j "$JOBS" -L mem
  ctest --test-dir build-address --output-on-failure -j "$JOBS" -L precision
fi

echo "OK: plain + ${SANITIZER} suites passed"
