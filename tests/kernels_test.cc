// Differential property suite for the blocked compute kernels
// (tensor/gemm.cc, tensor/ops.cc) against the frozen seed implementations
// (tensor/reference.h), plus the byte-determinism guarantee: the same
// inputs produce the same bits at 1, 2 and 8 intra-op threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <vector>

#include "base/parallel.h"
#include "base/rng.h"
#include "tensor/ops.h"
#include "tensor/reference.h"

namespace bagua {
namespace {

class ScopedThreads {
 public:
  explicit ScopedThreads(int n) { SetIntraOpThreads(n); }
  ~ScopedThreads() { SetIntraOpThreads(0); }
};

std::vector<float> RandomVec(size_t n, uint64_t seed) {
  std::vector<float> v(n);
  Rng rng(seed);
  for (auto& x : v) x = static_cast<float>(rng.Normal());
  return v;
}

using GemmFn = void (*)(const float*, const float*, float*, size_t, size_t,
                        size_t, bool);

struct Variant {
  const char* name;
  GemmFn blocked;
  GemmFn reference;
};

const Variant kVariants[] = {
    {"gemm", &Gemm, &reference::Gemm},
    {"gemm_ta", &GemmTransA, &reference::GemmTransA},
    {"gemm_tb", &GemmTransB, &reference::GemmTransB},
};

// Shapes that straddle every tiling edge: empty, single row/col, the
// micro-tile (8x32) and its half-width variant (8x16), the MC row tile
// (96), the KC panel (256), and ragged values adjacent to each.
struct Shape {
  size_t m, k, n;
};
const Shape kShapes[] = {
    {0, 3, 4},    {3, 0, 4},     {3, 4, 0},    {1, 1, 1},    {1, 7, 1},
    {5, 3, 2},    {6, 8, 16},    {7, 9, 17},   {8, 16, 32},  {9, 31, 33},
    {16, 17, 15}, {17, 31, 47},  {95, 13, 7},  {96, 257, 5}, {97, 11, 48},
    {33, 300, 21},
};

// The blocked kernel accumulates each C element's k terms in a different
// (but fixed) order than the reference, so compare with a k-scaled
// float-roundoff tolerance rather than exactly.
void ExpectClose(const std::vector<float>& got, const std::vector<float>& want,
                 size_t k, const char* label) {
  ASSERT_EQ(got.size(), want.size());
  const double tol = 1e-5 * (1.0 + std::sqrt(static_cast<double>(k)));
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_NEAR(got[i], want[i], tol) << label << " element " << i;
  }
}

TEST(KernelsTest, GemmMatchesReferenceAcrossShapes) {
  for (const Variant& v : kVariants) {
    for (const Shape& s : kShapes) {
      for (const bool accumulate : {false, true}) {
        const auto a = RandomVec(s.m * s.k, MixSeed(1, s.m * 1000 + s.k));
        const auto b = RandomVec(s.k * s.n, MixSeed(2, s.k * 1000 + s.n));
        const auto c0 = RandomVec(s.m * s.n, MixSeed(3, s.m * 1000 + s.n));
        std::vector<float> got = c0, want = c0;
        v.blocked(a.data(), b.data(), got.data(), s.m, s.k, s.n, accumulate);
        v.reference(a.data(), b.data(), want.data(), s.m, s.k, s.n,
                    accumulate);
        ExpectClose(got, want, s.k, v.name);
      }
    }
  }
}

TEST(KernelsTest, GemmRandomizedShapes) {
  Rng rng(99);
  for (int trial = 0; trial < 30; ++trial) {
    const size_t m = rng.Next() % 70;
    const size_t k = rng.Next() % 300;
    const size_t n = rng.Next() % 70;
    const bool accumulate = (rng.Next() & 1) != 0;
    const Variant& v = kVariants[rng.Next() % 3];
    const auto a = RandomVec(m * k, rng.Next());
    const auto b = RandomVec(k * n, rng.Next());
    const auto c0 = RandomVec(m * n, rng.Next());
    std::vector<float> got = c0, want = c0;
    v.blocked(a.data(), b.data(), got.data(), m, k, n, accumulate);
    v.reference(a.data(), b.data(), want.data(), m, k, n, accumulate);
    ExpectClose(got, want, k, v.name);
  }
}

TEST(KernelsTest, GemmBitsIdenticalAtAnyThreadCount) {
  // Determinism is exact, not approximate: byte-compare the full output
  // across thread counts, including shapes with many row tiles so the
  // pool actually distributes work.
  const Shape shapes[] = {{97, 33, 17}, {200, 64, 50}, {300, 5, 96}};
  for (const Variant& v : kVariants) {
    for (const Shape& s : shapes) {
      const auto a = RandomVec(s.m * s.k, 11);
      const auto b = RandomVec(s.k * s.n, 12);
      const auto c0 = RandomVec(s.m * s.n, 13);
      std::vector<float> base;
      {
        ScopedThreads scope(1);
        base = c0;
        v.blocked(a.data(), b.data(), base.data(), s.m, s.k, s.n, true);
      }
      for (const int threads : {2, 8}) {
        ScopedThreads scope(threads);
        for (int rep = 0; rep < 3; ++rep) {
          std::vector<float> got = c0;
          v.blocked(a.data(), b.data(), got.data(), s.m, s.k, s.n, true);
          ASSERT_EQ(std::memcmp(got.data(), base.data(),
                                got.size() * sizeof(float)),
                    0)
              << v.name << " threads=" << threads;
        }
      }
    }
  }
}

TEST(KernelsTest, ElementwiseBitsIdenticalAtAnyThreadCount) {
  // Spans larger than the parallel grain so the pool path actually runs.
  const size_t n = 100003;
  const auto x = RandomVec(n, 21);
  const auto y0 = RandomVec(n, 22);

  std::vector<float> axpy1, scale1, add1, sub1;
  {
    ScopedThreads scope(1);
    axpy1 = y0;
    Axpy(0.37f, x.data(), axpy1.data(), n);
    scale1 = y0;
    Scale(scale1.data(), -1.25f, n);
    add1.assign(n, 0.0f);
    Add(x.data(), y0.data(), add1.data(), n);
    sub1.assign(n, 0.0f);
    Sub(x.data(), y0.data(), sub1.data(), n);
  }
  for (const int threads : {2, 8}) {
    ScopedThreads scope(threads);
    std::vector<float> out = y0;
    Axpy(0.37f, x.data(), out.data(), n);
    EXPECT_EQ(std::memcmp(out.data(), axpy1.data(), n * sizeof(float)), 0);
    out = y0;
    Scale(out.data(), -1.25f, n);
    EXPECT_EQ(std::memcmp(out.data(), scale1.data(), n * sizeof(float)), 0);
    out.assign(n, 0.0f);
    Add(x.data(), y0.data(), out.data(), n);
    EXPECT_EQ(std::memcmp(out.data(), add1.data(), n * sizeof(float)), 0);
    out.assign(n, 0.0f);
    Sub(x.data(), y0.data(), out.data(), n);
    EXPECT_EQ(std::memcmp(out.data(), sub1.data(), n * sizeof(float)), 0);
  }
}

TEST(KernelsTest, ReductionsMatchReferenceApproximately) {
  // The fixed tree changes the accumulation order, so agree with the
  // left-to-right reference only up to roundoff — and the double-lane
  // tree should be at least as accurate.
  const size_t n = 50000;
  const auto a = RandomVec(n, 31);
  const auto b = RandomVec(n, 32);
  EXPECT_NEAR(Sum(a.data(), n), reference::Sum(a.data(), n), 1e-3);
  EXPECT_NEAR(Dot(a.data(), b.data(), n), reference::Dot(a.data(), b.data(), n),
              1e-3);
}

TEST(KernelsTest, ReductionDerivedKernelsThreadInvariant) {
  const size_t n = 70001;
  const auto x = RandomVec(n, 41);
  double l2_1;
  float amax1, amean1;
  {
    ScopedThreads scope(1);
    l2_1 = L2Norm(x.data(), n);
    amax1 = AbsMax(x.data(), n);
    amean1 = AbsMean(x.data(), n);
  }
  for (const int threads : {2, 8}) {
    ScopedThreads scope(threads);
    EXPECT_EQ(L2Norm(x.data(), n), l2_1) << "threads=" << threads;
    EXPECT_EQ(AbsMax(x.data(), n), amax1) << "threads=" << threads;
    EXPECT_EQ(AbsMean(x.data(), n), amean1) << "threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// Frozen order oracle. A scalar re-implementation of the blocked kernel's
// summation order (tensor/gemm.cc): for each C element, one multiply-add
// chain per 256-deep k panel that starts from +0.0f and runs in ascending
// p, the panel sums then added to C in panel order — onto C's old value
// when accumulating, onto +0.0f otherwise. The tile shape, the packing and
// the thread count must not move a bit of it. This TU is compiled with
// -ffp-contract=off (tests/CMakeLists.txt), so the oracle rounds exactly
// as written.

constexpr size_t kOraclePanel = 256;

enum class Layout { kNone, kTransA, kTransB };

float OracleMulAdd(float a, float b, float acc, bool fused) {
  if (fused) return std::fma(a, b, acc);
  const float prod = a * b;
  return acc + prod;
}

void OracleGemm(Layout layout, const float* a, const float* b, float* c,
                size_t m, size_t k, size_t n, bool accumulate, bool fused) {
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      float cv = accumulate ? c[i * n + j] : 0.0f;
      for (size_t p0 = 0; p0 < k; p0 += kOraclePanel) {
        const size_t pe = std::min(k, p0 + kOraclePanel);
        float sum = 0.0f;
        for (size_t p = p0; p < pe; ++p) {
          const float av = layout == Layout::kTransA ? a[p * m + i]
                                                     : a[i * k + p];
          const float bv = layout == Layout::kTransB ? b[j * k + p]
                                                     : b[p * n + j];
          sum = OracleMulAdd(av, bv, sum, fused);
        }
        cv = cv + sum;
      }
      c[i * n + j] = cv;
    }
  }
}

// Whether the kernel's multiply-add is fused (an FMA) or rounds the
// product first; the two differ on 1*(-1) + (1+2^-12)^2, whose square
// needs 25 significant bits. Targets with FMA contract the kernel's
// multiply-add into one; portable builds (BAGUA_NATIVE_KERNELS=OFF on
// x86-64) round twice.
bool KernelFusesMultiplyAdd() {
  const float e = 1.0f + std::ldexp(1.0f, -12);
  const float a[2] = {1.0f, e};
  const float b[2] = {-1.0f, e};
  float c = 0.0f;
  Gemm(a, b, &c, 1, 2, 1);
  const float fused = std::ldexp(1.0f, -11) + std::ldexp(1.0f, -24);
  const float unfused = std::ldexp(1.0f, -11);
  EXPECT_TRUE(c == fused || c == unfused) << c;
  return c == fused;
}

// Normal values with signed zeros (about 1 in 5) and, in a few rows and
// columns, magnitudes small enough that products underflow to -0.0 or
// +0.0 — the case where "+0.0f + sum" and "sum" differ.
std::vector<float> OracleInput(size_t n, uint64_t seed) {
  std::vector<float> v(n);
  Rng rng(seed);
  for (auto& x : v) {
    const uint64_t r = rng.Next();
    if (r % 5 == 0) {
      x = (r >> 8) & 1 ? -0.0f : 0.0f;
    } else if (r % 11 == 0) {
      x = static_cast<float>(rng.Normal()) * 1e-30f;
    } else {
      x = static_cast<float>(rng.Normal());
    }
  }
  return v;
}

GemmFn BlockedFor(Layout layout) {
  return layout == Layout::kNone     ? &Gemm
         : layout == Layout::kTransA ? &GemmTransA
                                     : &GemmTransB;
}

::testing::AssertionResult MatchesOracle(Layout layout, const Shape& s,
                                         bool accumulate, bool fused,
                                         uint64_t seed,
                                         std::initializer_list<int> threads) {
  const auto a = OracleInput(s.m * s.k, MixSeed(seed, 1));
  const auto b = OracleInput(s.k * s.n, MixSeed(seed, 2));
  const auto c0 = OracleInput(s.m * s.n, MixSeed(seed, 3));
  std::vector<float> want = c0;
  OracleGemm(layout, a.data(), b.data(), want.data(), s.m, s.k, s.n,
             accumulate, fused);
  for (const int t : threads) {
    ScopedThreads scope(t);
    std::vector<float> got = c0;
    BlockedFor(layout)(a.data(), b.data(), got.data(), s.m, s.k, s.n,
                       accumulate);
    if (std::memcmp(got.data(), want.data(), got.size() * sizeof(float)) !=
        0) {
      size_t i = 0;
      while (std::memcmp(&got[i], &want[i], sizeof(float)) == 0) ++i;
      return ::testing::AssertionFailure()
             << "layout " << static_cast<int>(layout) << " shape " << s.m
             << "x" << s.k << "x" << s.n << " accumulate " << accumulate
             << " threads " << t << ": element " << i << " is " << got[i]
             << ", oracle " << want[i];
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(GemmOrderOracleTest, MultiplyAddMatchesTheBuild) {
  const bool fused = KernelFusesMultiplyAdd();
#if BAGUA_KERNELS_MARCH_NATIVE && (defined(__x86_64__) || defined(__i386__))
  // The kernel TU is built for this host: where it has FMA, the kernel
  // must use it.
  if (__builtin_cpu_supports("fma")) {
    EXPECT_TRUE(fused);
  }
#endif
  (void)fused;
}

TEST(GemmOrderOracleTest, EdgeShapesBitwiseAtAnyThreadCount) {
  const bool fused = KernelFusesMultiplyAdd();
  // Edges of the 8x32 tile, its 16-wide half, the transposed packs'
  // 16x16 blocks, the 96-row MC tile and the 256-deep panel. The k = 1
  // and k = 2 shapes make many one- and two-term sums that land on -0.0,
  // where a first store of the bare sum would differ from +0.0f + sum.
  const Shape shapes[] = {
      {1, 1, 1},     {33, 1, 40},   {9, 2, 35},    {3, 0, 5},
      {7, 9, 17},    {8, 256, 32},
      {9, 257, 33},  {16, 255, 16}, {15, 256, 31}, {17, 257, 47},
      {24, 100, 64}, {32, 513, 65}, {95, 13, 7},   {96, 257, 5},
      {97, 11, 48},  {33, 300, 21}, {200, 64, 50}, {40, 255, 8},
  };
  uint64_t seed = 1;
  for (const Layout layout :
       {Layout::kNone, Layout::kTransA, Layout::kTransB}) {
    for (const Shape& s : shapes) {
      for (const bool accumulate : {false, true}) {
        EXPECT_TRUE(
            MatchesOracle(layout, s, accumulate, fused, seed++, {1, 2, 8}));
      }
    }
  }
}

TEST(GemmOrderOracleTest, WorkloadShapesBitwiseAtAnyThreadCount) {
  const bool fused = KernelFusesMultiplyAdd();
  // The trainers' layers: the 1024-wide MLP at batch 128 (forward,
  // weight gradient, input gradient), its 8-wide head, and the 512-wide
  // MLP at batch 16. accumulate follows how DenseLayer calls each.
  struct Case {
    Layout layout;
    Shape shape;
    bool accumulate;
  };
  const Case cases[] = {
      {Layout::kNone, {128, 1024, 1024}, false},
      {Layout::kTransA, {1024, 128, 1024}, true},
      {Layout::kTransB, {128, 1024, 1024}, false},
      {Layout::kTransB, {16, 512, 512}, false},
      {Layout::kNone, {16, 512, 512}, false},
      {Layout::kTransA, {512, 16, 512}, true},
      {Layout::kNone, {128, 1024, 8}, false},
      {Layout::kTransA, {1024, 128, 8}, true},
      {Layout::kTransB, {128, 8, 1024}, false},
  };
  uint64_t seed = 100;
  for (const Case& c : cases) {
    EXPECT_TRUE(
        MatchesOracle(c.layout, c.shape, c.accumulate, fused, seed++,
                      {1, 2, 8}));
  }
}

// The loops DenseLayer ran before its epilogue moved into tensor/ops.
void OldBiasRelu(float* y, const float* bias, size_t rows, size_t cols,
                 bool relu) {
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) y[r * cols + c] += bias[c];
  }
  if (!relu) return;
  for (size_t i = 0; i < rows * cols; ++i) {
    if (y[i] < 0.0f) y[i] = 0.0f;
  }
}

void OldReluMask(const float* out, float* g, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (out[i] <= 0.0f) g[i] = 0.0f;
  }
}

void OldAddRows(const float* g, size_t rows, size_t cols, float* acc) {
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) acc[c] += g[r * cols + c];
  }
}

// Random values seeded with the cases the branch-free forms must keep:
// NaN (both signs), infinities, signed zeros and values whose sum with
// the bias is exactly zero.
std::vector<float> SpecialInput(size_t n, uint64_t seed) {
  const float specials[] = {std::nanf(""),
                            -std::nanf(""),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            0.0f,
                            -0.0f,
                            1e-45f,
                            -1e-45f};
  std::vector<float> v = RandomVec(n, seed);
  Rng rng(seed + 7);
  for (auto& x : v) {
    const uint64_t r = rng.Next();
    if (r % 4 == 0) x = specials[(r >> 8) % 8];
  }
  return v;
}

// Bitwise equality, except that any NaN matches any NaN: when both
// operands of an add are NaN, which one's sign and payload survive is
// left to the compiler's operand order (IEEE 754 does not fix it), and the
// old and new loops may order them differently.
::testing::AssertionResult SameBitsOrBothNan(const std::vector<float>& got,
                                             const std::vector<float>& want) {
  for (size_t i = 0; i < got.size(); ++i) {
    if (std::isnan(got[i]) && std::isnan(want[i])) continue;
    if (std::memcmp(&got[i], &want[i], sizeof(float)) != 0) {
      return ::testing::AssertionFailure()
             << "element " << i << ": " << got[i] << " vs " << want[i];
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(KernelsTest, DenseEpiloguesMatchThePlainLoopsBitwise) {
  for (const size_t rows : {1, 7, 128}) {
    for (const size_t cols : {1, 15, 16, 33, 1024}) {
      const size_t n = rows * cols;
      const auto y0 = SpecialInput(n, rows * 100 + cols);
      auto bias = SpecialInput(cols, rows * 100 + cols + 1);
      // Some bias entries cancel their column exactly, so sums land on
      // +0.0 and -0.0 as well.
      for (size_t c = 0; c < cols; c += 3) bias[c] = -y0[c];
      for (const bool relu : {false, true}) {
        std::vector<float> got = y0, want = y0;
        AddBias(got.data(), bias.data(), rows, cols, relu);
        OldBiasRelu(want.data(), bias.data(), rows, cols, relu);
        ASSERT_TRUE(SameBitsOrBothNan(got, want))
            << rows << "x" << cols << " relu " << relu;
      }
      const auto out = SpecialInput(n, rows * 100 + cols + 2);
      std::vector<float> got = y0, want = y0;
      ReluMask(out.data(), got.data(), n);
      OldReluMask(out.data(), want.data(), n);
      ASSERT_EQ(std::memcmp(got.data(), want.data(), n * sizeof(float)), 0)
          << rows << "x" << cols << " mask";

      std::vector<float> acc_got = bias, acc_want = bias;
      AddRows(y0.data(), rows, cols, acc_got.data());
      OldAddRows(y0.data(), rows, cols, acc_want.data());
      ASSERT_TRUE(SameBitsOrBothNan(acc_got, acc_want))
          << rows << "x" << cols << " rows";
    }
  }
}

TEST(KernelsTest, ReluEpilogueKeepsNegativeZeroAndNan) {
  // Spelled out: the forward keeps -0.0 (it is not < 0) and NaN; the
  // backward zeroes where out <= 0 holds, so -0.0 masks and NaN passes.
  float y[4] = {-0.0f, std::nanf(""), -1.0f, 2.0f};
  const float zero_bias[4] = {-0.0f, -0.0f, -0.0f, -0.0f};
  AddBias(y, zero_bias, 1, 4, /*relu=*/true);
  EXPECT_TRUE(std::signbit(y[0]) && y[0] == 0.0f);
  EXPECT_TRUE(std::isnan(y[1]));
  EXPECT_EQ(y[2], 0.0f);
  EXPECT_FALSE(std::signbit(y[2]));
  EXPECT_EQ(y[3], 2.0f);

  const float out[4] = {-0.0f, std::nanf(""), 0.5f, -3.0f};
  float g[4] = {1.0f, 2.0f, 3.0f, 4.0f};
  ReluMask(out, g, 4);
  EXPECT_EQ(g[0], 0.0f);
  EXPECT_EQ(g[1], 2.0f);
  EXPECT_EQ(g[2], 3.0f);
  EXPECT_EQ(g[3], 0.0f);
}

TEST(KernelsTest, GemmZeroSizeDoesNotTouchC) {
  // k == 0 with accumulate=false must still clear C (C = A*B is all
  // zeros); with accumulate=true it must leave C alone.
  std::vector<float> c(12, 7.0f);
  Gemm(nullptr, nullptr, c.data(), 3, 0, 4, /*accumulate=*/true);
  for (float v : c) EXPECT_EQ(v, 7.0f);
  Gemm(nullptr, nullptr, c.data(), 3, 0, 4, /*accumulate=*/false);
  for (float v : c) EXPECT_EQ(v, 0.0f);
}

}  // namespace
}  // namespace bagua
