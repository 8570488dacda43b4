// Cache-blocked, register-tiled GEMM — the compute hot path behind every
// Dense/Conv/LSTM layer. Classic three-level blocking (BLIS-style): the k
// dimension is cut into KC panels, B is packed once per panel into
// NR-wide column strips, and MC-row tiles of A are packed into MR-tall
// row strips and multiplied by an MR x NR register-resident micro-kernel.
//
// Determinism contract (enforced by tests/kernels_test.cc, whose scalar
// oracle re-implements it, and tests/determinism_test.cc): inside each
// KC = 256 panel every C element accumulates its terms with one fused
// multiply-add chain that starts from zero and runs in ascending p; the
// panel sums are then added to C in panel order, the first one onto
// +0.0f when accumulate is false. Nothing in that order depends on MR, NR,
// MC or the thread count — parallelism distributes whole MC-row tiles
// over the intra-op pool — so results are byte-identical for any
// BAGUA_INTRA_OP_THREADS value, and the tile may change without moving a
// bit. Zero-padding in the packed buffers keeps the micro-kernel
// branch-free without perturbing valid lanes.

#include <algorithm>
#include <chrono>
#include <cstring>
#include <utility>
#include <vector>

#include "base/parallel.h"
#include "tensor/ops.h"
#include "trace/metrics.h"

namespace bagua {

namespace {

// Micro-tile: MR rows x NR columns of C held in registers across a KC
// panel, NR = two native vectors. Under AVX-512 that is 8 x 32: sixteen
// independent accumulator chains in flight, enough to cover the FMA
// latency on two FMA ports (the 6 x 16 tile it replaced kept six and was
// latency-bound), and MR = 8 divides the batch sizes the trainers use.
// Narrower targets (AVX, or baseline SSE2 when BAGUA_NATIVE_KERNELS=OFF)
// have 16 vector registers, so they take 6 rows: twelve accumulators plus
// the two B vectors. The tile shape never changes a result (see above).
#if defined(__AVX512F__)
constexpr size_t NV = 16;  // floats per native vector
constexpr size_t MR = 8;
#elif defined(__AVX__)
constexpr size_t NV = 8;
constexpr size_t MR = 6;
#else
constexpr size_t NV = 4;
constexpr size_t MR = 6;
#endif
constexpr size_t NR = 2 * NV;
constexpr size_t MC = 96;   // rows per parallel tile (multiple of MR)
constexpr size_t KC = 256;  // k panel depth; fixes the rounding, see above
constexpr size_t kPackRows = 16;  // B rows per streaming pack block

static_assert(MC % MR == 0, "row tiles must align with the micro-kernel");

enum class Trans { kNone, kA, kB };

size_t RoundUp(size_t v, size_t to) { return (v + to - 1) / to * to; }

// One native vector as a compiler vector type, so the same source lowers
// to zmm, ymm or xmm registers. The auto-vectorizer alone picks a
// broadcast scheme here that runs slower than the naive loop.
typedef float Vec __attribute__((vector_size(NV * sizeof(float))));

inline Vec LoadVec(const float* p) {
  Vec v;
  std::memcpy(&v, p, sizeof(v));  // unaligned vector load
  return v;
}

inline void StoreVec(float* p, const Vec& v) { std::memcpy(p, &v, sizeof(v)); }

// lo/hi = the low/high halves of a and b interleaved lane by lane:
// lo = {a0, b0, a1, b1, ...}, hi = {a[NV/2], b[NV/2], ...}.
template <size_t... I>
inline void Interleave(const Vec& a, const Vec& b, Vec* lo, Vec* hi,
                       std::index_sequence<I...>) {
  *lo = __builtin_shufflevector(a, b, (I % 2 ? NV + I / 2 : I / 2)...);
  *hi = __builtin_shufflevector(
      a, b, (I % 2 ? NV + NV / 2 + I / 2 : NV / 2 + I / 2)...);
}

// In-place transpose of an NV x NV block held as NV row vectors. Each
// round interleaves row i with row i + NV/2 into rows 2i and 2i + 1,
// which rotates the (row, column) index bits by one; log2(NV) rounds
// rotate by half their width, which swaps row and column.
void Transpose(Vec v[NV]) {
  for (size_t round = 1; round < NV; round *= 2) {
    Vec t[NV];
    for (size_t i = 0; i < NV / 2; ++i) {
      Interleave(v[i], v[i + NV / 2], &t[2 * i], &t[2 * i + 1],
                 std::make_index_sequence<NV>{});
    }
    std::memcpy(v, t, sizeof(t));
  }
}

// Packs B[p0:p0+kc, 0:n] (logical [k, n] layout) into NR-wide strips:
// dst[(j0/NR)*(kc*NR) + p*NR + c] = B[p0+p, j0+c], zero-padded to NR.
void PackB(Trans trans, const float* b, size_t k, size_t n, size_t p0,
           size_t kc, float* dst) {
  const size_t strips = RoundUp(n, NR) / NR;
  if (trans == Trans::kB) {
    // B stored [n, k]: logical column j is the contiguous row j. Full
    // NV x NV blocks go through the register transpose; ragged edges
    // (and zero padding) take the scalar gather.
    for (size_t s = 0; s < strips; ++s) {
      float* strip = dst + s * kc * NR;
      for (size_t h = 0; h < NR; h += NV) {
        const size_t j0 = s * NR + h;
        const size_t jn = j0 < n ? std::min(NV, n - j0) : 0;
        size_t p = 0;
        if (jn == NV) {
          for (; p + NV <= kc; p += NV) {
            Vec blk[NV];
            for (size_t c = 0; c < NV; ++c) {
              blk[c] = LoadVec(b + (j0 + c) * k + p0 + p);
            }
            Transpose(blk);
            for (size_t q = 0; q < NV; ++q) {
              StoreVec(strip + (p + q) * NR + h, blk[q]);
            }
          }
        }
        for (; p < kc; ++p) {
          float* row = strip + p * NR + h;
          for (size_t c = 0; c < jn; ++c) row[c] = b[(j0 + c) * k + p0 + p];
          for (size_t c = jn; c < NV; ++c) row[c] = 0.0f;
        }
      }
    }
    return;
  }
  // B stored [k, n]: stream kPackRows rows at a time across every strip,
  // so reads walk each source row forward and writes fill each strip in
  // contiguous runs.
  const size_t full = n / NR;
  const size_t tail = n - full * NR;
  for (size_t pb = 0; pb < kc; pb += kPackRows) {
    const size_t pe = std::min(kc, pb + kPackRows);
    for (size_t s = 0; s < full; ++s) {
      float* strip = dst + s * kc * NR;
      for (size_t p = pb; p < pe; ++p) {
        std::memcpy(strip + p * NR, b + (p0 + p) * n + s * NR,
                    NR * sizeof(float));
      }
    }
    if (tail != 0) {
      float* strip = dst + full * kc * NR;
      for (size_t p = pb; p < pe; ++p) {
        const float* src = b + (p0 + p) * n + full * NR;
        float* row = strip + p * NR;
        for (size_t c = 0; c < tail; ++c) row[c] = src[c];
        for (size_t c = tail; c < NR; ++c) row[c] = 0.0f;
      }
    }
  }
}

// Packs A[i0:i0+mc, p0:p0+kc] (logical [m, k] layout) into MR-tall
// strips: dst[(ii/MR)*(kc*MR) + p*MR + r] = A[i0+ii+r, p0+p], zero-padded
// to MR.
void PackA(Trans trans, const float* a, size_t m, size_t k, size_t i0,
           size_t mc, size_t p0, size_t kc, float* dst) {
  const size_t strips = RoundUp(mc, MR) / MR;
  if (trans == Trans::kA) {
    // A stored [k, m]: logical row i is column i, so each source row
    // p holds MR consecutive values of every strip.
    for (size_t p = 0; p < kc; ++p) {
      const float* src = a + (p0 + p) * m + i0;
      for (size_t s = 0; s < strips; ++s) {
        const size_t rn = std::min(MR, mc - s * MR);
        float* row = dst + s * kc * MR + p * MR;
        if (rn == MR) {
          std::memcpy(row, src + s * MR, MR * sizeof(float));
          continue;
        }
        for (size_t r = 0; r < rn; ++r) row[r] = src[s * MR + r];
        for (size_t r = rn; r < MR; ++r) row[r] = 0.0f;
      }
    }
    return;
  }
  // A stored [m, k]: rows are contiguous in p. Where NV = 2 * MR (the
  // AVX-512 tile), pairs of full strips go through the register transpose
  // in NV x NV blocks; a ragged strip, the tail of a panel and the other
  // tiles take the scalar gather.
  size_t s = 0;
  for (; NV == 2 * MR && s + 2 <= strips && (s + 2) * MR <= mc; s += 2) {
    const float* src = a + (i0 + s * MR) * k + p0;
    float* lo = dst + s * kc * MR;
    float* hi = lo + kc * MR;
    size_t p = 0;
    for (; p + NV <= kc; p += NV) {
      Vec blk[NV];
      for (size_t r = 0; r < NV; ++r) blk[r] = LoadVec(src + r * k + p);
      Transpose(blk);
      for (size_t q = 0; q < NV; ++q) {
        std::memcpy(lo + (p + q) * MR, &blk[q], MR * sizeof(float));
        std::memcpy(hi + (p + q) * MR, reinterpret_cast<float*>(&blk[q]) + MR,
                    MR * sizeof(float));
      }
    }
    for (; p < kc; ++p) {
      for (size_t r = 0; r < MR; ++r) {
        lo[p * MR + r] = src[r * k + p];
        hi[p * MR + r] = src[(MR + r) * k + p];
      }
    }
  }
  for (; s < strips; ++s) {
    const size_t ii = s * MR;
    const size_t rn = std::min(MR, mc - ii);
    float* strip = dst + s * kc * MR;
    for (size_t p = 0; p < kc; ++p) {
      float* row = strip + p * MR;
      for (size_t r = 0; r < rn; ++r) {
        row[r] = a[(i0 + ii + r) * k + p0 + p];
      }
      for (size_t r = rn; r < MR; ++r) row[r] = 0.0f;
    }
  }
}

// One KC panel of an MR x (kVecs * NV) tile of C:
//   C[r][c] = (load ? C[r][c] : +0.0f) + sum_p ap[p*MR+r] * bp[p*NR+c],
// the sum a zero-start FMA chain in ascending p (the multiply-add below
// is contracted to an FMA on targets that have one). Full tiles store
// straight to C; a ragged tile (rn < MR or jn < kVecs * NV) spills each
// row to scratch and writes only its valid lanes.
template <size_t kVecs>
void MicroKernel(const float* __restrict__ ap, const float* __restrict__ bp,
                 size_t kc, float* c, size_t ldc, size_t rn, size_t jn,
                 bool load) {
  Vec acc[MR][kVecs] = {};
  for (size_t p = 0; p < kc; ++p) {
    Vec bv[kVecs];
    for (size_t v = 0; v < kVecs; ++v) bv[v] = LoadVec(bp + p * NR + v * NV);
    const float* __restrict__ arow = ap + p * MR;
    for (size_t r = 0; r < MR; ++r) {
      for (size_t v = 0; v < kVecs; ++v) acc[r][v] += arow[r] * bv[v];
    }
  }
  if (rn == MR && jn == kVecs * NV) {
    for (size_t r = 0; r < MR; ++r) {
      float* crow = c + r * ldc;
      for (size_t v = 0; v < kVecs; ++v) {
        const Vec base = load ? LoadVec(crow + v * NV) : Vec{};
        StoreVec(crow + v * NV, base + acc[r][v]);
      }
    }
    return;
  }
  for (size_t r = 0; r < rn; ++r) {
    float lanes[kVecs * NV];
    for (size_t v = 0; v < kVecs; ++v) StoreVec(lanes + v * NV, acc[r][v]);
    float* crow = c + r * ldc;
    for (size_t j = 0; j < jn; ++j) {
      crow[j] = (load ? crow[j] : 0.0f) + lanes[j];
    }
  }
}

void GemmBlocked(Trans trans, const float* a, const float* b, float* c,
                 size_t m, size_t k, size_t n, bool accumulate) {
  if (m == 0 || n == 0) return;
  if (k == 0) {
    if (!accumulate) std::memset(c, 0, m * n * sizeof(float));
    return;
  }

  const size_t n_strips = RoundUp(n, NR) / NR;
  const size_t row_tiles = (m + MC - 1) / MC;

  // Panel-packed B is shared read-only by every row tile; A tiles are
  // packed into per-thread scratch. thread_local keeps both allocations
  // out of the steady-state path (worker ranks and pool threads each
  // reuse their own buffers), and packing one KC panel at a time bounds
  // the B scratch at KC * n floats.
  thread_local std::vector<float> bpack;
  for (size_t p0 = 0; p0 < k; p0 += KC) {
    const size_t kc = std::min(KC, k - p0);
    const bool load = accumulate || p0 != 0;
    bpack.resize(n_strips * kc * NR);
    PackB(trans, b, k, n, p0, kc, bpack.data());
    const float* bp = bpack.data();

    IntraOpBlocks(row_tiles, 1, [&](size_t tile, size_t, size_t) {
      const size_t i0 = tile * MC;
      const size_t mc = std::min(MC, m - i0);
      const size_t m_strips = RoundUp(mc, MR) / MR;
      thread_local std::vector<float> apack;
      apack.resize(m_strips * kc * MR);
      PackA(trans, a, m, k, i0, mc, p0, kc, apack.data());

      for (size_t s = 0; s < n_strips; ++s) {
        const size_t j0 = s * NR;
        const size_t jn = std::min(NR, n - j0);
        const float* bstrip = bp + s * kc * NR;
        for (size_t ms = 0; ms < m_strips; ++ms) {
          const size_t ii = ms * MR;
          const size_t rn = std::min(MR, mc - ii);
          const float* astrip = apack.data() + ms * kc * MR;
          float* ctile = c + (i0 + ii) * n + j0;
          if (jn <= NV) {
            MicroKernel<1>(astrip, bstrip, kc, ctile, n, rn, jn, load);
          } else {
            MicroKernel<2>(astrip, bstrip, kc, ctile, n, rn, jn, load);
          }
        }
      }
    });
  }
}

// RAII wall-time recorder for the kernel metrics (trace/metrics.h).
class KernelTimer {
 public:
  KernelTimer(const char* name, uint64_t flops)
      : name_(name), flops_(flops),
        start_(std::chrono::steady_clock::now()) {}
  ~KernelTimer() {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
    RecordKernelTime(name_, static_cast<uint64_t>(ns), flops_);
  }

 private:
  const char* name_;
  uint64_t flops_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace

void Gemm(const float* a, const float* b, float* c, size_t m, size_t k,
          size_t n, bool accumulate) {
  KernelTimer timer("gemm", 2ull * m * k * n);
  GemmBlocked(Trans::kNone, a, b, c, m, k, n, accumulate);
}

void GemmTransA(const float* a, const float* b, float* c, size_t m, size_t k,
                size_t n, bool accumulate) {
  KernelTimer timer("gemm_ta", 2ull * m * k * n);
  GemmBlocked(Trans::kA, a, b, c, m, k, n, accumulate);
}

void GemmTransB(const float* a, const float* b, float* c, size_t m, size_t k,
                size_t n, bool accumulate) {
  KernelTimer timer("gemm_tb", 2ull * m * k * n);
  GemmBlocked(Trans::kB, a, b, c, m, k, n, accumulate);
}

}  // namespace bagua
