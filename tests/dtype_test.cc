// bf16/fp16 storage dtypes (tensor/dtype.h): exact semantics of the
// scalar conversions, bitwise equivalence of the vectorized batch kernels
// against the frozen naive reference (tensor/reference.h), round-trip
// error bounds, and the wire-pack helpers the 16-bit codecs
// (compress/half.h) are built on.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "base/parallel.h"
#include "base/rng.h"
#include "compress/half.h"
#include "tensor/dtype.h"
#include "tensor/reference.h"

namespace bagua {
namespace {

float FromBits(uint32_t x) { return std::bit_cast<float>(x); }
uint32_t Bits(float f) { return std::bit_cast<uint32_t>(f); }

// Scalar fp16 conversions through the frozen naive reference.
uint16_t FloatToHalf(float f) {
  uint16_t h;
  reference::FloatToHalfN(&f, &h, 1);
  return h;
}
float HalfToFloat(uint16_t h) {
  float f;
  reference::HalfToFloatN(&h, &f, 1);
  return f;
}

/// What one trip through the 16-bit wire dtype `d` leaves of x.
float RoundTrip16(WireDtype d, float x) {
  return d == WireDtype::kBf16 ? Bf16ToFloat(FloatToBf16(x))
                               : HalfToFloat(FloatToHalf(x));
}

// ------------------------------------------------------------- bf16 scalar

TEST(Bf16, ExactValuesSurvive) {
  // Values with <= 8 mantissa bits are exactly representable.
  for (float f : {0.0f, -0.0f, 1.0f, -1.0f, 2.0f, 0.5f, -3.25f, 256.0f,
                  std::ldexp(1.0f, 127), -std::ldexp(1.0f, -126)}) {
    EXPECT_EQ(Bf16ToFloat(FloatToBf16(f)), f) << f;
  }
}

TEST(Bf16, RoundToNearestEvenTies) {
  // 0x3F808000 = 1.00390625: exactly halfway between bf16 neighbors
  // 0x3F80 (1.0) and 0x3F81; even mantissa (0x80) wins.
  EXPECT_EQ(FloatToBf16(FromBits(0x3F808000u)), 0x3F80u);
  // 0x3F818000: halfway with odd low bit -> rounds up to 0x3F82.
  EXPECT_EQ(FloatToBf16(FromBits(0x3F818000u)), 0x3F82u);
  // Just above halfway always rounds up.
  EXPECT_EQ(FloatToBf16(FromBits(0x3F808001u)), 0x3F81u);
  // Just below halfway always rounds down.
  EXPECT_EQ(FloatToBf16(FromBits(0x3F80FFFFu)), 0x3F81u);
  EXPECT_EQ(FloatToBf16(FromBits(0x3F807FFFu)), 0x3F80u);
}

TEST(Bf16, InfinityAndOverflow) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(FloatToBf16(inf), 0x7F80u);
  EXPECT_EQ(FloatToBf16(-inf), 0xFF80u);
  EXPECT_EQ(Bf16ToFloat(0x7F80u), inf);
  EXPECT_EQ(Bf16ToFloat(0xFF80u), -inf);
  // Finite floats above the largest bf16 round up to inf (RNE carries the
  // exponent past 0xFE).
  EXPECT_EQ(FloatToBf16(FromBits(0x7F7FFFFFu)), 0x7F80u);  // float max
  // Largest float that rounds DOWN to bf16 max 0x7F7F.
  EXPECT_EQ(FloatToBf16(FromBits(0x7F7F7FFFu)), 0x7F7Fu);
}

TEST(Bf16, NanCanonicalizesPreservingSign) {
  // Any NaN payload maps to the canonical quiet NaN, sign preserved.
  for (uint32_t payload : {0x7F800001u, 0x7FC00000u, 0x7FABCDEFu,
                           0x7F801000u}) {
    EXPECT_EQ(FloatToBf16(FromBits(payload)), 0x7FC0u) << std::hex << payload;
    EXPECT_EQ(FloatToBf16(FromBits(payload | 0x80000000u)), 0xFFC0u);
  }
  EXPECT_TRUE(std::isnan(Bf16ToFloat(0x7FC0u)));
  EXPECT_TRUE(std::isnan(Bf16ToFloat(0xFFC1u)));
}

TEST(Bf16, SubnormalsRoundLikeAnyOtherValue) {
  // bf16 subnormals are just float subnormals with a truncated mantissa —
  // the add-trick needs no special casing. Smallest positive float:
  EXPECT_EQ(FloatToBf16(FromBits(0x00000001u)), 0x0000u);  // rounds to +0
  // A subnormal with its top mantissa bit set survives.
  const uint16_t h = FloatToBf16(FromBits(0x00400000u));
  EXPECT_EQ(h, 0x0040u);
  EXPECT_EQ(Bits(Bf16ToFloat(h)), 0x00400000u);
}

TEST(Bf16, RoundTripErrorBound) {
  // |x - F(W(x))| <= 2^-8 * |x| for normal x (8 mantissa bits).
  Rng rng(7);
  for (int i = 0; i < 20000; ++i) {
    const float x = static_cast<float>(rng.Normal() * 100.0);
    const float back = Bf16ToFloat(FloatToBf16(x));
    EXPECT_LE(std::abs(back - x), std::ldexp(std::abs(x), -8) + 1e-38f) << x;
  }
}

// ------------------------------------------------------------- fp16 scalar

TEST(Fp16, MatchesCompressScalarEverywhere) {
  // The vectorized kernel family and the scalar reference (the seed's
  // compress/fp16.cc scalars, verbatim) must agree bit for bit.
  // half->float: exhaustive over all 2^16.
  for (uint32_t h = 0; h <= 0xFFFFu; ++h) {
    const uint16_t hh = static_cast<uint16_t>(h);
    float a, b;
    HalfToFloatN(&hh, &a, 1);
    b = HalfToFloat(hh);
    EXPECT_EQ(Bits(a), Bits(b)) << std::hex << h;
  }
}

TEST(Fp16, FloatToHalfEdgeCases) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(FloatToHalf(inf), 0x7C00u);
  EXPECT_EQ(FloatToHalf(-inf), 0xFC00u);
  // 65504 = fp16 max; 65520 is the first float that rounds to inf.
  EXPECT_EQ(FloatToHalf(65504.0f), 0x7BFFu);
  EXPECT_EQ(FloatToHalf(65520.0f), 0x7C00u);
  EXPECT_EQ(FloatToHalf(65519.996f), 0x7BFFu);
  // NaN payloads canonicalize with sign.
  EXPECT_EQ(FloatToHalf(FromBits(0x7FABCDEFu)), 0x7E00u);
  EXPECT_EQ(FloatToHalf(FromBits(0xFF800001u)), 0xFE00u);
  // Subnormal halves: smallest positive half is 2^-24.
  EXPECT_EQ(FloatToHalf(std::ldexp(1.0f, -24)), 0x0001u);
  // Halfway between 0 and 2^-24 rounds to even (zero).
  EXPECT_EQ(FloatToHalf(std::ldexp(1.0f, -25)), 0x0000u);
  // 1.5 * 2^-25 rounds up to the smallest subnormal.
  EXPECT_EQ(FloatToHalf(std::ldexp(1.5f, -25)), 0x0001u);
  // Below half the smallest subnormal: flush to signed zero.
  EXPECT_EQ(FloatToHalf(-std::ldexp(1.0f, -26)), 0x8000u);
  EXPECT_EQ(FloatToHalf(-0.0f), 0x8000u);
}

TEST(Fp16, SubnormalRoundTripIsExact) {
  // Every fp16 subnormal widens and converts back to itself (the
  // FPU-assisted denormal path must not double-round).
  for (uint16_t h = 1; h < 0x400u; ++h) {
    EXPECT_EQ(FloatToHalf(HalfToFloat(h)), h) << std::hex << h;
    const uint16_t neg = static_cast<uint16_t>(h | 0x8000u);
    EXPECT_EQ(FloatToHalf(HalfToFloat(neg)), neg);
  }
}

// ------------------------------------- vectorized vs reference equivalence

TEST(ConvertKernels, BitIdenticalToReferenceOnStratifiedSweep) {
  // Stride through the whole float bit space plus adversarial patterns.
  std::vector<float> xs;
  for (uint64_t x = 0; x <= 0xFFFFFFFFull; x += 8191) {
    xs.push_back(FromBits(static_cast<uint32_t>(x)));
  }
  for (uint32_t x : {0x3F808000u, 0x3F818000u, 0x477FF000u, 0x477FEFFFu,
                     0x00000001u, 0x00400000u, 0x7F800000u, 0xFF800000u,
                     0x7FC00000u, 0x7F800001u, 0xFFABCDEFu, 0x387FE000u,
                     0x33000000u, 0x33000001u, 0x38800000u, 0x7F7F7FFFu}) {
    xs.push_back(FromBits(x));
  }
  const size_t n = xs.size();
  std::vector<uint16_t> opt16(n), ref16(n);
  std::vector<float> opt32(n), ref32(n);

  FloatToBf16N(xs.data(), opt16.data(), n);
  reference::FloatToBf16N(xs.data(), ref16.data(), n);
  ASSERT_EQ(opt16, ref16);
  Bf16ToFloatN(opt16.data(), opt32.data(), n);
  reference::Bf16ToFloatN(ref16.data(), ref32.data(), n);
  ASSERT_EQ(0, std::memcmp(opt32.data(), ref32.data(), n * 4));

  FloatToHalfN(xs.data(), opt16.data(), n);
  reference::FloatToHalfN(xs.data(), ref16.data(), n);
  ASSERT_EQ(opt16, ref16);
  HalfToFloatN(opt16.data(), opt32.data(), n);
  reference::HalfToFloatN(ref16.data(), ref32.data(), n);
  ASSERT_EQ(0, std::memcmp(opt32.data(), ref32.data(), n * 4));
}

TEST(ConvertKernels, DeterministicAcrossThreadCounts) {
  Rng rng(21);
  const size_t n = 1 << 17;  // above the parallel grain
  std::vector<float> xs(n);
  for (auto& x : xs) x = static_cast<float>(rng.Normal());
  std::vector<uint16_t> h1(n), h8(n);
  std::vector<float> f1(n), f8(n);

  SetIntraOpThreads(1);
  FloatToBf16N(xs.data(), h1.data(), n);
  Bf16ToFloatN(h1.data(), f1.data(), n);
  SetIntraOpThreads(8);
  FloatToBf16N(xs.data(), h8.data(), n);
  Bf16ToFloatN(h8.data(), f8.data(), n);
  SetIntraOpThreads(1);

  EXPECT_EQ(h1, h8);
  EXPECT_EQ(0, std::memcmp(f1.data(), f8.data(), n * 4));
}

TEST(ConvertKernels, FuzzRoundTripBound) {
  Rng rng(33);
  const size_t n = 4096;
  std::vector<float> xs(n), back(n);
  std::vector<uint16_t> h(n);
  for (auto& x : xs) {
    x = static_cast<float>(rng.Normal() * std::pow(10.0, rng.Uniform(-3, 3)));
  }
  FloatToBf16N(xs.data(), h.data(), n);
  Bf16ToFloatN(h.data(), back.data(), n);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_LE(std::abs(back[i] - xs[i]), std::ldexp(std::abs(xs[i]), -8));
  }
  FloatToHalfN(xs.data(), h.data(), n);
  HalfToFloatN(h.data(), back.data(), n);
  for (size_t i = 0; i < n; ++i) {
    // fp16: half-ulp relative error for normals, absolute 2^-25 once the
    // small tail of the sweep dips into the subnormal range.
    EXPECT_LE(std::abs(back[i] - xs[i]),
              std::max(std::ldexp(std::abs(xs[i]), -10),
                       std::ldexp(1.0f, -25)));
  }
}

// -------------------------------------------------- compressor integration

TEST(HalfCompressor, VectorizedRoundTripMatchesScalars) {
  Rng rng(5);
  const size_t n = 1000;
  std::vector<float> xs(n);
  for (auto& x : xs) x = static_cast<float>(rng.Normal());
  xs[0] = std::numeric_limits<float>::infinity();
  xs[1] = -std::numeric_limits<float>::infinity();
  xs[2] = FromBits(0x7FABCDEFu);  // NaN payload
  xs[3] = 65520.0f;               // rounds to inf in fp16
  xs[4] = std::ldexp(1.0f, -24);  // smallest subnormal half

  for (WireDtype d : {WireDtype::kFp16, WireDtype::kBf16}) {
    HalfCompressor codec(d);
    std::vector<uint8_t> wire;
    ASSERT_TRUE(codec.Compress(xs.data(), n, nullptr, &wire).ok());
    ASSERT_EQ(wire.size(), n * 2);
    std::vector<float> out(n);
    ASSERT_TRUE(
        codec.Decompress(wire.data(), wire.size(), n, out.data()).ok());
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(Bits(out[i]), Bits(RoundTrip16(d, xs[i])))
          << codec.name() << " " << i;
    }
    EXPECT_FALSE(codec.Decompress(wire.data(), wire.size() - 2, n, out.data())
                     .ok());
  }
}

TEST(HalfCompressor, DecompressHandlesUnalignedPayload) {
  const float xs[4] = {1.0f, -2.5f, 1e-8f, 7.75f};
  for (WireDtype d : {WireDtype::kFp16, WireDtype::kBf16}) {
    HalfCompressor codec(d);
    std::vector<uint8_t> wire;
    ASSERT_TRUE(codec.Compress(xs, 4, nullptr, &wire).ok());
    // Shift the payload to an odd offset, as framed transports do.
    std::vector<uint8_t> framed(wire.size() + 1);
    framed[0] = 0xAB;
    std::memcpy(framed.data() + 1, wire.data(), wire.size());
    float out[4];
    ASSERT_TRUE(
        codec.Decompress(framed.data() + 1, wire.size(), 4, out).ok());
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(Bits(out[i]), Bits(RoundTrip16(d, xs[i]))) << codec.name();
    }
  }
}

// ------------------------------------------------------------ wire helpers

TEST(WireHelpers, DtypeMetadata) {
  EXPECT_STREQ(WireDtypeName(WireDtype::kBf16), "bf16");
  EXPECT_STREQ(WireDtypeName(WireDtype::kFp16), "fp16");
}

}  // namespace
}  // namespace bagua
