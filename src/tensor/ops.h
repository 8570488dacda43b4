#ifndef BAGUA_TENSOR_OPS_H_
#define BAGUA_TENSOR_OPS_H_

#include <cstddef>

#include "tensor/tensor.h"

namespace bagua {

/// Elementwise kernels over flat float spans. These are the compute
/// building blocks used by reductions, optimizers and compressors.
///
/// All kernels here (and the GEMM family below) may split work over the
/// shared intra-op pool (base/parallel.h, BAGUA_INTRA_OP_THREADS) and are
/// **byte-deterministic at any thread count**: partitions and reduction
/// orders are pure functions of the input size. The seed's naive
/// single-threaded kernels are preserved in tensor/reference.h as the
/// differential and perf-regression baseline (scripts/perf_gate.sh).

/// y += alpha * x
void Axpy(float alpha, const float* x, float* y, size_t n);

/// x *= alpha
void Scale(float* x, float alpha, size_t n);

/// out = a + b
void Add(const float* a, const float* b, float* out, size_t n);

/// out = a - b
void Sub(const float* a, const float* b, float* out, size_t n);

/// Sum of elements, in the fixed-tree order: 4096-element blocks are
/// each reduced into 8 interleaved double lanes folded pairwise, and the
/// block partials fold in a left-packed pairwise tree over ascending
/// block index. The order depends only on n — never on the thread count
/// — so the result is bitwise reproducible (see ops.cc for the full
/// spec; determinism_test re-implements it independently).
double Sum(const float* x, size_t n);

/// Dot product, same fixed-tree order as Sum.
double Dot(const float* a, const float* b, size_t n);

/// L2 norm.
double L2Norm(const float* x, size_t n);

/// Max |x_i|; 0 for empty spans.
float AbsMax(const float* x, size_t n);

/// Mean of |x_i|; 0 for empty spans.
float AbsMean(const float* x, size_t n);

/// Tensor-level conveniences (sizes must match; checked).
Status AxpyTensor(float alpha, const Tensor& x, Tensor* y);
Status AddTensor(const Tensor& a, const Tensor& b, Tensor* out);
double L2NormTensor(const Tensor& x);

/// Dense-layer epilogues, branch-free and bitwise equal to the plain
/// loops they replace (the comparisons below keep NaN and -0.0 intact).
/// Their spans must not overlap.
///
/// y[r, c] += bias[c] over a [rows, cols] row-major y; with `relu`, each
/// sum then becomes `sum < 0 ? 0 : sum` in the same pass.
void AddBias(float* y, const float* bias, size_t rows, size_t cols,
             bool relu);

/// ReLU backward: g[i] = 0 where out[i] <= 0 holds, else unchanged.
void ReluMask(const float* out, float* g, size_t n);

/// acc[c] += g[r, c] for r = 0, 1, ... in order, over a [rows, cols]
/// row-major g (the bias gradient).
void AddRows(const float* g, size_t rows, size_t cols, float* acc);

/// Row-major GEMM: C[m,n] = A[m,k] * B[k,n] (+ C if accumulate).
/// Cache-blocked and register-tiled (tensor/gemm.cc); every C element
/// accumulates its k terms in ascending order regardless of tiling or
/// thread count. Wall time is recorded in the kernel metrics
/// (trace/metrics.h) as kernel.gemm.{calls,ns,flops}.
void Gemm(const float* a, const float* b, float* c, size_t m, size_t k,
          size_t n, bool accumulate = false);

/// Row-major GEMM with A transposed: C[m,n] = A^T[m,k] * B[k,n], where A is
/// stored as [k,m].
void GemmTransA(const float* a, const float* b, float* c, size_t m, size_t k,
                size_t n, bool accumulate = false);

/// Row-major GEMM with B transposed: C[m,n] = A[m,k] * B^T[k,n], where B is
/// stored as [n,k].
void GemmTransB(const float* a, const float* b, float* c, size_t m, size_t k,
                size_t n, bool accumulate = false);

}  // namespace bagua

#endif  // BAGUA_TENSOR_OPS_H_
