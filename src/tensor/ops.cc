// Elementwise and reduction kernels. Two properties are load-bearing:
//
// 1. Vectorizable bodies: flat loops over __restrict__ spans with no
//    cross-iteration dependence, split over the intra-op pool in
//    fixed-size blocks (base/parallel.h) for large spans.
//
// 2. Fixed-tree reductions: Sum/Dot/AbsMean accumulate in a documented
//    order that is a pure function of n — never of the thread count.
//    Each 4096-element block is reduced into 8 interleaved double lanes
//    (lane j takes elements with index ≡ j mod 8 inside its group of 8;
//    the tail feeds lanes 0..r-1), the lanes fold pairwise
//    ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)), and the per-block partials
//    fold in a left-packed pairwise tree over ascending block index.
//    tests/determinism_test.cc re-implements this spec independently and
//    checks bit-equality at 1, 2 and 8 threads.
//
// The seed's naive kernels live on verbatim in tensor/reference.{h,cc}
// as the differential/perf baseline.

#include "tensor/ops.h"

#include <cmath>
#include <vector>

#include "base/parallel.h"
#include "base/strings.h"

namespace bagua {

namespace {

// Elementwise spans shorter than this run serially on the caller; the
// cutoff doubles as the parallel block size, so the split points are
// identical at every thread count.
constexpr size_t kGrain = kElementwiseGrain;

inline bool RunSerial(size_t n) {
  return n <= kGrain || IntraOpThreads() <= 1 ||
         ThreadPool::InParallelRegion();
}

constexpr size_t kReduceBlock = 4096;
constexpr size_t kLanes = 8;

// Folds the 8 lane accumulators in the fixed shape.
inline double FoldLanes(const double lane[kLanes]) {
  return ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
         ((lane[4] + lane[5]) + (lane[6] + lane[7]));
}

double BlockSum(const float* __restrict__ x, size_t count) {
  double lane[kLanes] = {};
  size_t i = 0;
  for (; i + kLanes <= count; i += kLanes) {
    for (size_t l = 0; l < kLanes; ++l) lane[l] += x[i + l];
  }
  for (size_t l = 0; i + l < count; ++l) lane[l] += x[i + l];
  return FoldLanes(lane);
}

double BlockDot(const float* __restrict__ a, const float* __restrict__ b,
                size_t count) {
  double lane[kLanes] = {};
  size_t i = 0;
  for (; i + kLanes <= count; i += kLanes) {
    for (size_t l = 0; l < kLanes; ++l) {
      lane[l] += static_cast<double>(a[i + l]) * b[i + l];
    }
  }
  for (size_t l = 0; i + l < count; ++l) {
    lane[l] += static_cast<double>(a[i + l]) * b[i + l];
  }
  return FoldLanes(lane);
}

double BlockAbsSum(const float* __restrict__ x, size_t count) {
  double lane[kLanes] = {};
  size_t i = 0;
  for (; i + kLanes <= count; i += kLanes) {
    for (size_t l = 0; l < kLanes; ++l) lane[l] += std::fabs(x[i + l]);
  }
  for (size_t l = 0; i + l < count; ++l) lane[l] += std::fabs(x[i + l]);
  return FoldLanes(lane);
}

// Left-packed pairwise tree over the block partials (ascending block
// index): combine (0,1), (2,3), ... repeatedly until one value remains.
double PairwiseTree(std::vector<double>* partials) {
  std::vector<double>& p = *partials;
  size_t len = p.size();
  if (len == 0) return 0.0;
  while (len > 1) {
    size_t out = 0;
    for (size_t i = 0; i + 1 < len; i += 2) p[out++] = p[i] + p[i + 1];
    if (len % 2 == 1) p[out++] = p[len - 1];
    len = out;
  }
  return p[0];
}

// Shared skeleton: block partials (possibly on the pool) + fixed tree.
template <typename BlockFn>
double FixedTreeReduce(size_t n, const BlockFn& block_fn) {
  if (n == 0) return 0.0;
  const size_t num_blocks = ThreadPool::NumBlocks(n, kReduceBlock);
  if (num_blocks == 1) return block_fn(0, n);
  std::vector<double> partials(num_blocks, 0.0);
  IntraOpBlocks(n, kReduceBlock, [&](size_t b, size_t begin, size_t end) {
    partials[b] = block_fn(begin, end);
  });
  return PairwiseTree(&partials);
}

}  // namespace

void Axpy(float alpha, const float* x, float* y, size_t n) {
  if (RunSerial(n)) {
    for (size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
    return;
  }
  IntraOpFor(n, kGrain, [&](size_t begin, size_t end) {
    const float* __restrict__ xp = x + begin;
    float* __restrict__ yp = y + begin;
    const size_t count = end - begin;
    for (size_t i = 0; i < count; ++i) yp[i] += alpha * xp[i];
  });
}

void Scale(float* x, float alpha, size_t n) {
  if (RunSerial(n)) {
    for (size_t i = 0; i < n; ++i) x[i] *= alpha;
    return;
  }
  IntraOpFor(n, kGrain, [&](size_t begin, size_t end) {
    float* __restrict__ xp = x + begin;
    const size_t count = end - begin;
    for (size_t i = 0; i < count; ++i) xp[i] *= alpha;
  });
}

void Add(const float* a, const float* b, float* out, size_t n) {
  if (RunSerial(n)) {
    for (size_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
    return;
  }
  IntraOpFor(n, kGrain, [&](size_t begin, size_t end) {
    const float* __restrict__ ap = a + begin;
    const float* __restrict__ bp = b + begin;
    float* __restrict__ op = out + begin;
    const size_t count = end - begin;
    for (size_t i = 0; i < count; ++i) op[i] = ap[i] + bp[i];
  });
}

void Sub(const float* a, const float* b, float* out, size_t n) {
  if (RunSerial(n)) {
    for (size_t i = 0; i < n; ++i) out[i] = a[i] - b[i];
    return;
  }
  IntraOpFor(n, kGrain, [&](size_t begin, size_t end) {
    const float* __restrict__ ap = a + begin;
    const float* __restrict__ bp = b + begin;
    float* __restrict__ op = out + begin;
    const size_t count = end - begin;
    for (size_t i = 0; i < count; ++i) op[i] = ap[i] - bp[i];
  });
}

double Sum(const float* x, size_t n) {
  return FixedTreeReduce(
      n, [&](size_t begin, size_t end) { return BlockSum(x + begin, end - begin); });
}

double Dot(const float* a, const float* b, size_t n) {
  return FixedTreeReduce(n, [&](size_t begin, size_t end) {
    return BlockDot(a + begin, b + begin, end - begin);
  });
}

double L2Norm(const float* x, size_t n) { return std::sqrt(Dot(x, x, n)); }

float AbsMax(const float* x, size_t n) {
  if (n == 0) return 0.0f;
  const size_t num_blocks = ThreadPool::NumBlocks(n, kReduceBlock);
  auto block_max = [&](size_t begin, size_t end) {
    float m = 0.0f;
    for (size_t i = begin; i < end; ++i) {
      const float a = std::fabs(x[i]);
      if (a > m) m = a;
    }
    return m;
  };
  if (num_blocks == 1) return block_max(0, n);
  std::vector<float> partials(num_blocks, 0.0f);
  IntraOpBlocks(n, kReduceBlock, [&](size_t b, size_t begin, size_t end) {
    partials[b] = block_max(begin, end);
  });
  float m = 0.0f;
  for (float p : partials) {
    if (p > m) m = p;
  }
  return m;
}

float AbsMean(const float* x, size_t n) {
  if (n == 0) return 0.0f;
  const double s = FixedTreeReduce(n, [&](size_t begin, size_t end) {
    return BlockAbsSum(x + begin, end - begin);
  });
  return static_cast<float>(s / static_cast<double>(n));
}

void AddBias(float* y, const float* bias, size_t rows, size_t cols,
             bool relu) {
  const float* __restrict__ bp = bias;
  for (size_t r = 0; r < rows; ++r) {
    float* __restrict__ row = y + r * cols;
    if (relu) {
      for (size_t c = 0; c < cols; ++c) {
        const float v = row[c] + bp[c];
        row[c] = v < 0.0f ? 0.0f : v;
      }
    } else {
      for (size_t c = 0; c < cols; ++c) row[c] += bp[c];
    }
  }
}

void ReluMask(const float* out, float* g, size_t n) {
  const float* __restrict__ op = out;
  float* __restrict__ gp = g;
  for (size_t i = 0; i < n; ++i) gp[i] = op[i] <= 0.0f ? 0.0f : gp[i];
}

void AddRows(const float* g, size_t rows, size_t cols, float* acc) {
  float* __restrict__ ap = acc;
  for (size_t r = 0; r < rows; ++r) {
    const float* __restrict__ row = g + r * cols;
    for (size_t c = 0; c < cols; ++c) ap[c] += row[c];
  }
}

Status AxpyTensor(float alpha, const Tensor& x, Tensor* y) {
  if (x.numel() != y->numel()) {
    return Status::InvalidArgument(StrFormat("Axpy size mismatch: %zu vs %zu",
                                             x.numel(), y->numel()));
  }
  Axpy(alpha, x.data(), y->data(), x.numel());
  return Status::OK();
}

Status AddTensor(const Tensor& a, const Tensor& b, Tensor* out) {
  if (a.numel() != b.numel() || a.numel() != out->numel()) {
    return Status::InvalidArgument("Add size mismatch");
  }
  Add(a.data(), b.data(), out->data(), a.numel());
  return Status::OK();
}

double L2NormTensor(const Tensor& x) { return L2Norm(x.data(), x.numel()); }

}  // namespace bagua
