#ifndef BAGUA_BENCH_KERNEL_GATE_H_
#define BAGUA_BENCH_KERNEL_GATE_H_

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "base/parallel.h"
#include "base/rng.h"
#include "tensor/ops.h"
#include "tensor/reference.h"

namespace bagua {

/// \brief The kernel perf gate behind `--kernels-json=PATH`.
///
/// Times the frozen seed GEMM (tensor/reference.h, default build flags)
/// against the blocked kernel (tensor/gemm.cc) at a few square sizes,
/// plus the blocked kernel alone at the trainers' layer shapes
/// (report-only `gflops_*` rows), and writes a flat JSON report.
/// scripts/perf_gate.sh greps `"speedup_256"` out of that file and fails
/// the build below 2.0 — the floor the blocked kernel must clear on one
/// core, with no help from the thread pool.
///
/// Timing is min-of-reps (the least-noisy point estimate for a hot,
/// deterministic kernel); correctness rides along as the max absolute
/// difference between the two kernels' outputs at each size.

struct KernelGateRow {
  size_t size = 0;
  double ref_ms = 0.0;
  double blocked_ms = 0.0;
  double speedup = 0.0;
  double max_abs_diff = 0.0;
};

namespace internal {

inline double MinOfRepsMs(int reps, const std::function<void()>& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (ms < best) best = ms;
  }
  return best;
}

}  // namespace internal

inline KernelGateRow RunKernelGateSize(size_t s, int reps) {
  const size_t n = s * s;
  std::vector<float> a(n), b(n), c_ref(n, 0.0f), c_blk(n, 0.0f);
  Rng rng(MixSeed(0x6a7eu, s));
  for (auto& x : a) x = static_cast<float>(rng.Normal());
  for (auto& x : b) x = static_cast<float>(rng.Normal());

  KernelGateRow row;
  row.size = s;
  row.ref_ms = internal::MinOfRepsMs(
      reps, [&] { reference::Gemm(a.data(), b.data(), c_ref.data(), s, s, s); });
  row.blocked_ms = internal::MinOfRepsMs(
      reps, [&] { Gemm(a.data(), b.data(), c_blk.data(), s, s, s); });
  row.speedup = row.blocked_ms > 0.0 ? row.ref_ms / row.blocked_ms : 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double d = std::fabs(static_cast<double>(c_ref[i]) - c_blk[i]);
    if (d > row.max_abs_diff) row.max_abs_diff = d;
  }
  return row;
}

/// One report-only row: the blocked kernel's rate on a GEMM the trainers
/// run, at its real shape and transpose.
struct KernelShapeRow {
  const char* key = "";  // e.g. "gemm_tb_16x512x512"
  double ms = 0.0;
  double gflops = 0.0;
};

/// The dense layers' GEMMs: the 1024-wide MLP at batch 128 (forward,
/// weight gradient, input gradient — the qsgd compute workload's fc1) and
/// the 512-wide MLP's input gradient at batch 16 (the dense-wire
/// workload's fc1). accumulate follows how DenseLayer calls each.
inline std::vector<KernelShapeRow> RunKernelShapeRows(int reps) {
  using GemmFn = void (*)(const float*, const float*, float*, size_t, size_t,
                          size_t, bool);
  struct Shape {
    const char* key;
    GemmFn fn;
    size_t m, k, n;
    bool accumulate;
  };
  const Shape shapes[] = {
      {"gemm_128x1024x1024", &Gemm, 128, 1024, 1024, false},
      {"gemm_ta_1024x128x1024", &GemmTransA, 1024, 128, 1024, true},
      {"gemm_tb_128x1024x1024", &GemmTransB, 128, 1024, 1024, false},
      {"gemm_tb_16x512x512", &GemmTransB, 16, 512, 512, false},
  };
  std::vector<KernelShapeRow> rows;
  for (const Shape& s : shapes) {
    std::vector<float> a(s.m * s.k), b(s.k * s.n), c(s.m * s.n, 0.0f);
    Rng rng(MixSeed(0x5a9eu, s.m * s.k * s.n));
    for (auto& x : a) x = static_cast<float>(rng.Normal());
    for (auto& x : b) x = static_cast<float>(rng.Normal());
    KernelShapeRow row;
    row.key = s.key;
    row.ms = internal::MinOfRepsMs(reps, [&] {
      s.fn(a.data(), b.data(), c.data(), s.m, s.k, s.n, s.accumulate);
    });
    row.gflops = row.ms > 0.0 ? 2.0 * static_cast<double>(s.m * s.k * s.n) /
                                    (row.ms * 1e6)
                              : 0.0;
    rows.push_back(row);
  }
  return rows;
}

/// Runs the gate and writes the JSON report to `path`. Returns 0 on
/// success, 1 if the report could not be written. The pass/fail decision
/// (speedup_256 >= 2.0) is left to scripts/perf_gate.sh so a plain bench
/// run can still inspect a slow build.
inline int RunKernelGate(const std::string& path, bool quick) {
  std::vector<size_t> sizes = {64, 128, 256};
  if (!quick) sizes.push_back(512);
  const int reps = quick ? 3 : 5;

  std::fprintf(stdout, "kernel gate: reference vs blocked GEMM, %d threads\n",
               IntraOpThreads());
  std::vector<KernelGateRow> rows;
  for (const size_t s : sizes) {
    const KernelGateRow row = RunKernelGateSize(s, reps);
    std::fprintf(stdout,
                 "  %4zu^3  ref %8.3f ms  blocked %8.3f ms  speedup %5.2fx"
                 "  max|diff| %.3g\n",
                 row.size, row.ref_ms, row.blocked_ms, row.speedup,
                 row.max_abs_diff);
    rows.push_back(row);
  }
  // Report-only: no gate reads these, they track the trainers' shapes.
  const std::vector<KernelShapeRow> shape_rows =
      RunKernelShapeRows(quick ? 5 : 20);
  for (const KernelShapeRow& row : shape_rows) {
    std::fprintf(stdout, "  %-24s blocked %8.3f ms  %6.1f GFLOP/s\n",
                 row.key, row.ms, row.gflops);
  }

  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "kernel gate: cannot write %s\n", path.c_str());
    return 1;
  }
  // Flat keys on purpose: the perf gate script greps "speedup_256" out of
  // this file without a JSON parser.
  out << "{\n";
  out << "  \"bench\": \"kernel_gate\",\n";
  out << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
  out << "  \"threads\": " << IntraOpThreads() << ",\n";
  out << "  \"reps\": " << reps << ",\n";
  char buf[256];
  for (const KernelGateRow& row : rows) {
    std::snprintf(buf, sizeof(buf),
                  "  \"ref_ms_%zu\": %.6f,\n"
                  "  \"blocked_ms_%zu\": %.6f,\n"
                  "  \"speedup_%zu\": %.4f,\n"
                  "  \"max_abs_diff_%zu\": %.9g,\n",
                  row.size, row.ref_ms, row.size, row.blocked_ms, row.size,
                  row.speedup, row.size, row.max_abs_diff);
    out << buf;
  }
  for (const KernelShapeRow& row : shape_rows) {
    std::snprintf(buf, sizeof(buf),
                  "  \"ms_%s\": %.6f,\n"
                  "  \"gflops_%s\": %.2f,\n",
                  row.key, row.ms, row.key, row.gflops);
    out << buf;
  }
  out << "  \"sizes\": " << rows.size() << "\n";
  out << "}\n";
  out.close();
  std::fprintf(stdout, "kernel gate report written to %s\n", path.c_str());
  return 0;
}

}  // namespace bagua

#endif  // BAGUA_BENCH_KERNEL_GATE_H_
