// Batch dtype conversion kernels (tensor/dtype.h). Compiled with the
// kernel TU options (-O3 -march=native, see CMakeLists.txt), so the
// branch-free bodies below vectorize: every conditional is a two-sided
// select over values both of whose sides are safe to compute, which the
// compiler turns into compares + blends.
//
// Bitwise contracts (tests/dtype_test.cc):
//   * FloatToBf16N  ≡ scalar FloatToBf16 (dtype.h) elementwise;
//   * FloatToHalfN  ≡ the frozen scalar reference::FloatToHalfN
//     (tensor/reference.h) elementwise — both are IEEE
//     round-to-nearest-even with NaN → sign | 0x7E00;
//   * HalfToFloatN  ≡ reference::HalfToFloatN elementwise (exact);
//   * all four are bitwise identical at any intra-op thread count
//     (fixed-grain blocks, elementwise-independent bodies).
//
// The fp16 direction uses the magic-number formulation (Giesen's
// float_to_half_fast3_rtne): normals round via one integer add whose
// mantissa carry overflows into the exponent (so [65520, 65536) lands on
// inf exactly like the scalar's mantissa-overflow bump), and subnormals
// round by letting the FPU do the shift — adding 0.5f (the magic constant
// with exponent (127-15)+(23-10)+1) aligns the half-subnormal ulp with
// the float ulp, so the float add itself performs the RNE truncation.

#include "tensor/dtype.h"

#include <chrono>

#include "base/parallel.h"
#include "trace/metrics.h"

namespace bagua {

namespace {

constexpr size_t kGrain = kElementwiseGrain;

inline bool RunSerial(size_t n) {
  return n <= kGrain || IntraOpThreads() <= 1 ||
         ThreadPool::InParallelRegion();
}

// RAII wall-time recorder: every batch conversion lands in
// kernel.convert.{calls,ns,flops} (flops = elements converted).
class ConvertTimer {
 public:
  explicit ConvertTimer(uint64_t elems)
      : elems_(elems), start_(std::chrono::steady_clock::now()) {}
  ~ConvertTimer() {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
    RecordKernelTime("convert", static_cast<uint64_t>(ns), elems_);
  }
  ConvertTimer(const ConvertTimer&) = delete;
  ConvertTimer& operator=(const ConvertTimer&) = delete;

 private:
  uint64_t elems_;
  std::chrono::steady_clock::time_point start_;
};

inline uint16_t Bf16Bits(uint32_t x) {
  // RNE add-trick; branch is a select (NaN canonicalization).
  const uint16_t rounded =
      static_cast<uint16_t>((x + 0x7FFFu + ((x >> 16) & 1u)) >> 16);
  const uint16_t nan =
      static_cast<uint16_t>(((x >> 16) & 0x8000u) | 0x7FC0u);
  return (x & 0x7FFFFFFFu) > 0x7F800000u ? nan : rounded;
}

// 0.5f: biased exponent (127-15)+(23-10)+1 = 126, zero mantissa.
constexpr uint32_t kF16DenormMagic = 126u << 23;
// Smallest float that is normal in half: 2^-14.
constexpr uint32_t kF16NormCutoff = 113u << 23;
// 2^16 — everything at or above rounds/overflows to half inf.
constexpr uint32_t kF16InfCutoff = 143u << 23;

inline uint16_t HalfBits(uint32_t u) {
  const uint32_t sign = (u >> 16) & 0x8000u;
  const uint32_t f = u & 0x7FFFFFFFu;

  // Normal path: rebias exponent by (15-127) and RNE-shift the mantissa
  // by 13 bits in one add: +0xFFF rounds up everything above the halfway
  // point, +mant_odd breaks ties toward even.
  const uint32_t mant_odd = (f >> 13) & 1u;
  const uint32_t norm = (f + 0xC8000FFFu /* ((15-127)<<23) + 0xFFF */ +
                         mant_odd) >> 13;

  // Subnormal/zero path: FPU-assisted RNE shift.
  const float sub_f = std::bit_cast<float>(f) +
                      std::bit_cast<float>(kF16DenormMagic);
  const uint32_t sub = std::bit_cast<uint32_t>(sub_f) - kF16DenormMagic;

  uint32_t h = f < kF16NormCutoff ? sub : norm;
  if (f >= kF16InfCutoff) h = f > 0x7F800000u ? 0x7E00u : 0x7C00u;
  return static_cast<uint16_t>(sign | h);
}

inline uint32_t FloatBits(uint16_t h) {
  constexpr uint32_t kShiftedExp = 0x7C00u << 13;
  // 2^-14: the value the denormal path's bit pattern is offset by.
  constexpr uint32_t kMagic = 113u << 23;

  const uint32_t sign = (static_cast<uint32_t>(h) & 0x8000u) << 16;
  uint32_t o = (static_cast<uint32_t>(h) & 0x7FFFu) << 13;
  const uint32_t exp = o & kShiftedExp;
  o += (127u - 15u) << 23;  // rebias

  // inf/NaN: push the exponent to 0xFF (payload bits ride along shifted,
  // matching the scalar's mant << 13).
  const uint32_t infnan = o + ((128u - 16u) << 23);
  // Subnormal: reinterpret as a small normal and subtract the offset —
  // exact, the unique float value of the half subnormal.
  const uint32_t sub = std::bit_cast<uint32_t>(
      std::bit_cast<float>(o + (1u << 23)) - std::bit_cast<float>(kMagic));

  if (exp == kShiftedExp) o = infnan;
  else if (exp == 0) o = sub;
  return o | sign;
}

// Shared skeleton: fixed-grain blocks over the intra-op pool; the body
// converts [begin, end) with restrict-qualified spans.
template <typename Fn>
inline void ForBlocks(size_t n, const Fn& fn) {
  if (RunSerial(n)) {
    fn(0, n);
    return;
  }
  IntraOpFor(n, kGrain, fn);
}

}  // namespace

void FloatToBf16N(const float* in, uint16_t* out, size_t n) {
  ConvertTimer timer(n);
  ForBlocks(n, [&](size_t begin, size_t end) {
    const float* __restrict__ ip = in + begin;
    uint16_t* __restrict__ op = out + begin;
    const size_t count = end - begin;
    for (size_t i = 0; i < count; ++i) {
      op[i] = Bf16Bits(std::bit_cast<uint32_t>(ip[i]));
    }
  });
}

void Bf16ToFloatN(const uint16_t* in, float* out, size_t n) {
  ConvertTimer timer(n);
  ForBlocks(n, [&](size_t begin, size_t end) {
    const uint16_t* __restrict__ ip = in + begin;
    float* __restrict__ op = out + begin;
    const size_t count = end - begin;
    for (size_t i = 0; i < count; ++i) {
      op[i] = std::bit_cast<float>(static_cast<uint32_t>(ip[i]) << 16);
    }
  });
}

void FloatToHalfN(const float* in, uint16_t* out, size_t n) {
  ConvertTimer timer(n);
  ForBlocks(n, [&](size_t begin, size_t end) {
    const float* __restrict__ ip = in + begin;
    uint16_t* __restrict__ op = out + begin;
    const size_t count = end - begin;
    for (size_t i = 0; i < count; ++i) {
      op[i] = HalfBits(std::bit_cast<uint32_t>(ip[i]));
    }
  });
}

void HalfToFloatN(const uint16_t* in, float* out, size_t n) {
  ConvertTimer timer(n);
  ForBlocks(n, [&](size_t begin, size_t end) {
    const uint16_t* __restrict__ ip = in + begin;
    float* __restrict__ op = out + begin;
    const size_t count = end - begin;
    for (size_t i = 0; i < count; ++i) {
      op[i] = std::bit_cast<float>(FloatBits(ip[i]));
    }
  });
}

void PackWire(WireDtype d, const float* in, void* wire, size_t n) {
  switch (d) {
    case WireDtype::kBf16:
      FloatToBf16N(in, static_cast<uint16_t*>(wire), n);
      return;
    case WireDtype::kFp16:
      FloatToHalfN(in, static_cast<uint16_t*>(wire), n);
      return;
  }
}

void UnpackWire(WireDtype d, const void* wire, float* out, size_t n) {
  switch (d) {
    case WireDtype::kBf16:
      Bf16ToFloatN(static_cast<const uint16_t*>(wire), out, n);
      return;
    case WireDtype::kFp16:
      HalfToFloatN(static_cast<const uint16_t*>(wire), out, n);
      return;
  }
}

}  // namespace bagua
