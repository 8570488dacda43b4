#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "base/parallel.h"
#include "base/rng.h"
#include "compress/compressor.h"
#include "compress/factory.h"
#include "compress/half.h"
#include "compress/onebit.h"
#include "compress/qsgd.h"
#include "compress/sketch.h"
#include "compress/topk.h"
#include "tensor/ops.h"
#include "tensor/reference.h"

namespace bagua {
namespace {

std::vector<float> RandomVec(size_t n, uint64_t seed, double scale = 1.0) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.Normal() * scale);
  return v;
}

// ---------------------------------------------------------------- identity

TEST(IdentityCompressorTest, LosslessRoundTrip) {
  IdentityCompressor codec;
  auto v = RandomVec(257, 1);
  std::vector<float> out(v.size());
  size_t bytes = 0;
  ASSERT_TRUE(RoundTrip(codec, v.data(), v.size(), nullptr, out.data(),
                        &bytes).ok());
  EXPECT_EQ(bytes, v.size() * 4);
  EXPECT_EQ(v, out);
}

TEST(IdentityCompressorTest, RejectsWrongPayloadSize) {
  IdentityCompressor codec;
  std::vector<uint8_t> payload(12);
  std::vector<float> out(4);
  EXPECT_FALSE(codec.Decompress(payload.data(), 12, 4, out.data()).ok());
}

// -------------------------------------------------------------------- qsgd

class QsgdParamTest : public ::testing::TestWithParam<int> {};

TEST_P(QsgdParamTest, PayloadSizeIsExact) {
  QsgdCompressor codec(GetParam(), 128);
  Rng rng(2);
  for (size_t n : {1u, 127u, 128u, 129u, 1000u, 4096u}) {
    auto v = RandomVec(n, n);
    std::vector<uint8_t> payload;
    ASSERT_TRUE(codec.Compress(v.data(), n, &rng, &payload).ok());
    EXPECT_EQ(payload.size(), codec.CompressedBytes(n));
  }
}

TEST_P(QsgdParamTest, ErrorBoundedByStep) {
  const int bits = GetParam();
  QsgdCompressor codec(bits, 256);
  Rng rng(3);
  auto v = RandomVec(1000, 4);
  std::vector<float> out(v.size());
  ASSERT_TRUE(RoundTrip(codec, v.data(), v.size(), &rng, out.data()).ok());
  const int levels = (1 << (bits - 1)) - 1;
  // Per block, error of each element < scale / levels (one step of
  // stochastic rounding).
  for (size_t block = 0; block < v.size(); block += 256) {
    const size_t end = std::min(v.size(), block + 256);
    const float scale = AbsMax(v.data() + block, end - block);
    for (size_t i = block; i < end; ++i) {
      EXPECT_LE(std::fabs(out[i] - v[i]), scale / levels + 1e-6)
          << "bits=" << bits << " i=" << i;
    }
  }
}

TEST(QsgdCompressorTest, TinyScaleBlockErrorBoundedByStep) {
  // A block whose max |x| is below levels / FLT_MAX (about 3.7e-37 at
  // 8 bits): levels / scale overflows, and without the power-of-two
  // prescale every nonzero element decoded to ±scale. With it, each
  // element stays within one step of its input, at every rng draw and
  // without one.
  const QsgdCompressor codec(8, 512);
  const int levels = 127;
  std::vector<float> v(512, 0.0f);
  v[0] = 1e-42f;
  v[1] = 4e-43f;
  v[2] = 1e-43f;
  v[5] = -4e-43f;
  const float scale = AbsMax(v.data(), v.size());
  ASSERT_TRUE(std::isinf(static_cast<float>(levels) / scale));
  std::vector<float> out(v.size());
  for (uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(seed);
    ASSERT_TRUE(
        RoundTrip(codec, v.data(), v.size(), seed == 0 ? nullptr : &rng,
                  out.data())
            .ok());
    for (size_t i = 0; i < v.size(); ++i) {
      EXPECT_LE(std::fabs(out[i] - v[i]), scale / levels)
          << "seed=" << seed << " i=" << i << " got " << out[i];
    }
  }
}

TEST_P(QsgdParamTest, UnbiasedUnderStochasticRounding) {
  // Property: averaging many independent quantizations converges to the
  // input (QSGD's key guarantee, what makes it work without error
  // compensation).
  QsgdCompressor codec(GetParam(), 64);
  auto v = RandomVec(64, 5);
  std::vector<double> acc(v.size(), 0.0);
  std::vector<float> out(v.size());
  Rng rng(6);
  const int kTrials = 3000;
  for (int t = 0; t < kTrials; ++t) {
    ASSERT_TRUE(RoundTrip(codec, v.data(), v.size(), &rng, out.data()).ok());
    for (size_t i = 0; i < v.size(); ++i) acc[i] += out[i];
  }
  const float scale = AbsMax(v.data(), v.size());
  const int levels = (1 << (GetParam() - 1)) - 1;
  const double step = scale / levels;
  for (size_t i = 0; i < v.size(); ++i) {
    EXPECT_NEAR(acc[i] / kTrials, v[i], 5 * step / std::sqrt(kTrials) + 1e-4);
  }
}

INSTANTIATE_TEST_SUITE_P(AllWidths, QsgdParamTest, ::testing::Values(2, 4, 8));

TEST(QsgdTest, DeterministicWithoutRng) {
  QsgdCompressor codec(8);
  auto v = RandomVec(500, 7);
  std::vector<uint8_t> p1, p2;
  ASSERT_TRUE(codec.Compress(v.data(), v.size(), nullptr, &p1).ok());
  ASSERT_TRUE(codec.Compress(v.data(), v.size(), nullptr, &p2).ok());
  EXPECT_EQ(p1, p2);
}

TEST(QsgdTest, ZeroInputRoundTripsToZero) {
  QsgdCompressor codec(8);
  std::vector<float> v(100, 0.0f), out(100, 1.0f);
  Rng rng(8);
  ASSERT_TRUE(RoundTrip(codec, v.data(), v.size(), &rng, out.data()).ok());
  for (float x : out) EXPECT_EQ(x, 0.0f);
}

TEST(QsgdTest, EightBitQuartersPayload) {
  QsgdCompressor codec(8, 512);
  // 4 bytes/elem -> ~1 byte/elem plus one scale per 512 elements.
  EXPECT_EQ(codec.CompressedBytes(5120), 5120u + 10 * 4);
}

TEST(QsgdTest, RejectsWrongPayloadSize) {
  QsgdCompressor codec(8);
  std::vector<uint8_t> payload(10);
  std::vector<float> out(100);
  EXPECT_FALSE(codec.Decompress(payload.data(), 10, 100, out.data()).ok());
}

// ------------------------------------------------------------------ onebit

TEST(OneBitTest, PayloadIsOneBitPerElementPlusScales) {
  OneBitCompressor codec(2048);
  EXPECT_EQ(codec.CompressedBytes(2048), 8u + 256u);
  EXPECT_EQ(codec.CompressedBytes(16), 8u + 2u);
}

TEST(OneBitTest, SignsPreserved) {
  OneBitCompressor codec(64);
  auto v = RandomVec(300, 9);
  std::vector<float> out(v.size());
  ASSERT_TRUE(RoundTrip(codec, v.data(), v.size(), nullptr, out.data()).ok());
  for (size_t i = 0; i < v.size(); ++i) {
    if (v[i] > 0) {
      EXPECT_GE(out[i], 0.0f) << i;
    }
    if (v[i] < 0) {
      EXPECT_LE(out[i], 0.0f) << i;
    }
  }
}

TEST(OneBitTest, BlockMeanMagnitudePreserved) {
  // decode magnitudes equal the mean magnitude of same-signed elements, so
  // the *average* of a block survives compression.
  OneBitCompressor codec(128);
  auto v = RandomVec(128, 10);
  std::vector<float> out(v.size());
  ASSERT_TRUE(RoundTrip(codec, v.data(), v.size(), nullptr, out.data()).ok());
  EXPECT_NEAR(Sum(out.data(), out.size()), Sum(v.data(), v.size()),
              1e-3 * v.size());
}

TEST(OneBitTest, AllPositiveBlock) {
  OneBitCompressor codec(32);
  std::vector<float> v(32, 2.5f), out(32);
  ASSERT_TRUE(RoundTrip(codec, v.data(), v.size(), nullptr, out.data()).ok());
  for (float x : out) EXPECT_FLOAT_EQ(x, 2.5f);
}

// -------------------------------------------------------------------- topk

TEST(TopKTest, KeepsLargestMagnitudes) {
  TopKCompressor codec(0.25);
  std::vector<float> v{0.1f, -5.0f, 0.2f, 3.0f, -0.05f, 0.3f, 4.0f, -0.2f};
  std::vector<float> out(v.size());
  ASSERT_TRUE(RoundTrip(codec, v.data(), v.size(), nullptr, out.data()).ok());
  // k = 2 of 8.
  EXPECT_FLOAT_EQ(out[1], -5.0f);
  EXPECT_FLOAT_EQ(out[6], 4.0f);
  for (size_t i : {0u, 2u, 3u, 4u, 5u, 7u}) EXPECT_EQ(out[i], 0.0f);
}

TEST(TopKTest, KeptCountRounding) {
  TopKCompressor codec(0.01);
  EXPECT_EQ(codec.KeptCount(1000), 10u);
  EXPECT_EQ(codec.KeptCount(50), 1u);   // ceil(0.5) -> at least one
  EXPECT_EQ(codec.KeptCount(0), 0u);
}

TEST(TopKTest, PayloadSizeMatches) {
  TopKCompressor codec(0.1);
  EXPECT_EQ(codec.CompressedBytes(1000), 100u * 8);
}

TEST(TopKTest, RejectsCorruptIndices) {
  TopKCompressor codec(1.0);
  std::vector<float> v{1.0f, 2.0f}, out(2);
  std::vector<uint8_t> payload;
  ASSERT_TRUE(codec.Compress(v.data(), 2, nullptr, &payload).ok());
  // Corrupt an index beyond n.
  reinterpret_cast<uint32_t*>(payload.data())[0] = 99;
  EXPECT_FALSE(codec.Decompress(payload.data(), payload.size(), 2,
                                out.data()).ok());
}

// -------------------------------------------------------------------- fp16

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

TEST(Fp16Test, ExactForSmallIntegers) {
  for (float f : {0.0f, 1.0f, -1.0f, 2.0f, 1024.0f, -0.5f, 0.25f}) {
    EXPECT_EQ(HalfToFloat(FloatToHalf(f)), f) << f;
  }
}

TEST(Fp16Test, RelativeErrorWithinHalfPrecision) {
  auto v = RandomVec(10000, 11, 100.0);
  for (float f : v) {
    const float back = HalfToFloat(FloatToHalf(f));
    EXPECT_NEAR(back, f, std::fabs(f) * 1e-3 + 1e-6);
  }
}

TEST(Fp16Test, HandlesOverflowToInf) {
  const float huge = 1e30f;
  EXPECT_TRUE(std::isinf(HalfToFloat(FloatToHalf(huge))));
  EXPECT_TRUE(std::isinf(HalfToFloat(FloatToHalf(-huge))));
  EXPECT_LT(HalfToFloat(FloatToHalf(-huge)), 0.0f);
}

TEST(Fp16Test, SubnormalsRoundTripApproximately) {
  const float tiny = 3e-7f;
  const float back = HalfToFloat(FloatToHalf(tiny));
  EXPECT_NEAR(back, tiny, 1e-7);
}

TEST(Fp16Test, CodecHalvesPayload) {
  HalfCompressor codec(WireDtype::kFp16);
  EXPECT_EQ(codec.CompressedBytes(100), 200u);
  auto v = RandomVec(100, 12);
  std::vector<float> out(v.size());
  ASSERT_TRUE(RoundTrip(codec, v.data(), v.size(), nullptr, out.data()).ok());
  for (size_t i = 0; i < v.size(); ++i) {
    EXPECT_NEAR(out[i], v[i], std::fabs(v[i]) * 1e-3 + 1e-6);
  }
}

// ------------------------------------------------------------------ sketch

TEST(SketchTest, PayloadMatchesCompressionRatio) {
  CountSketchCompressor codec(10.0, 3);
  const size_t n = 10000;
  // rows * width floats, ~ n/10 counters.
  EXPECT_NEAR(codec.CompressedBytes(n), n * 4 / 10.0, 3 * 4.0 * 4);
}

TEST(SketchTest, HeavyHittersRecovered) {
  // A sparse vector with a few large coordinates: Count-Sketch's use case.
  CountSketchCompressor codec(8.0, 5);
  const size_t n = 4096;
  std::vector<float> v(n, 0.0f);
  v[17] = 10.0f;
  v[1000] = -8.0f;
  v[3000] = 6.0f;
  std::vector<float> out(n);
  ASSERT_TRUE(RoundTrip(codec, v.data(), n, nullptr, out.data()).ok());
  EXPECT_NEAR(out[17], 10.0f, 1.0f);
  EXPECT_NEAR(out[1000], -8.0f, 1.0f);
  EXPECT_NEAR(out[3000], 6.0f, 1.0f);
}

TEST(SketchTest, SketchesAreMergeable) {
  // sketch(x) + sketch(y) decodes like sketch(x + y): the property that
  // lets sketched gradients be summed server-side without decoding.
  CountSketchCompressor codec(8.0, 5);
  const size_t n = 2048;
  auto x = RandomVec(n, 31, 0.01);
  auto y = RandomVec(n, 32, 0.01);
  x[100] = 5.0f;  // heavy hitters survive merging
  y[100] = 3.0f;
  std::vector<uint8_t> px, py;
  ASSERT_TRUE(codec.Compress(x.data(), n, nullptr, &px).ok());
  ASSERT_TRUE(codec.Compress(y.data(), n, nullptr, &py).ok());
  ASSERT_EQ(px.size(), py.size());
  std::vector<uint8_t> merged(px.size());
  float* mf = reinterpret_cast<float*>(merged.data());
  const float* xf = reinterpret_cast<const float*>(px.data());
  const float* yf = reinterpret_cast<const float*>(py.data());
  for (size_t i = 0; i < px.size() / 4; ++i) mf[i] = xf[i] + yf[i];
  std::vector<float> decoded(n);
  ASSERT_TRUE(
      codec.Decompress(merged.data(), merged.size(), n, decoded.data()).ok());
  EXPECT_NEAR(decoded[100], 8.0f, 1.0f);
}

TEST(SketchTest, DeterministicHashing) {
  CountSketchCompressor codec(4.0, 3);
  auto v = RandomVec(500, 33);
  std::vector<uint8_t> p1, p2;
  ASSERT_TRUE(codec.Compress(v.data(), v.size(), nullptr, &p1).ok());
  ASSERT_TRUE(codec.Compress(v.data(), v.size(), nullptr, &p2).ok());
  EXPECT_EQ(p1, p2);
}

TEST(SketchTest, RejectsWrongPayloadSize) {
  CountSketchCompressor codec(4.0);
  std::vector<uint8_t> payload(10);
  std::vector<float> out(100);
  EXPECT_FALSE(codec.Decompress(payload.data(), 10, 100, out.data()).ok());
}

// ----------------------------------------------------------------- factory

TEST(FactoryTest, CreatesAllKnownSpecs) {
  for (const char* spec :
       {"identity", "fp16", "bf16", "onebit", "qsgd8", "qsgd4", "qsgd2",
        "topk:0.01", "sketch:10"}) {
    auto codec = MakeCompressor(spec);
    ASSERT_TRUE(codec.ok()) << spec;
    EXPECT_NE(*codec, nullptr);
  }
}

TEST(FactoryTest, RejectsUnknownAndMalformed) {
  EXPECT_FALSE(MakeCompressor("zstd").ok());
  EXPECT_FALSE(MakeCompressor("topk:0").ok());
  EXPECT_FALSE(MakeCompressor("topk:1.5").ok());
  EXPECT_FALSE(MakeCompressor("sketch:0.5").ok());
}

TEST(FactoryTest, CompressionRatiosOrdered) {
  auto fp16 = std::move(MakeCompressor("fp16")).value();
  auto qsgd = std::move(MakeCompressor("qsgd8")).value();
  auto onebit = std::move(MakeCompressor("onebit")).value();
  const size_t n = 1 << 20;
  EXPECT_LT(onebit->CompressedBytes(n), qsgd->CompressedBytes(n));
  EXPECT_LT(qsgd->CompressedBytes(n), fp16->CompressedBytes(n));
  EXPECT_LT(fp16->CompressedBytes(n), n * 4);
}

// ----------------------------------------------- intra-op thread invariance

// Every codec may split its work over the intra-op pool
// (base/parallel.h); the payload AND the decompressed output must be
// byte-identical whether that pool has 1, 2 or 8 threads — including the
// stochastic QSGD path, where each element's rounding draw is a counter
// hash of (the call's one rng draw, the element's index), so no split of
// the payload or execution order can move it.
TEST(CompressorThreadInvarianceTest, RoundTripFuzzAcrossThreadCounts) {
  const char* specs[] = {"onebit", "qsgd8", "qsgd4",     "qsgd2",
                         "fp16",   "bf16",  "topk:0.05", "sketch:8"};
  const size_t sizes[] = {1,    37,    511,   512,   513,  2047, 2048,
                          2049, 12289, 100000};
  for (const char* spec : specs) {
    auto codec = std::move(MakeCompressor(spec)).value();
    for (const size_t n : sizes) {
      for (const uint64_t seed : {7u, 1234u}) {
        const auto v = RandomVec(n, MixSeed(seed, n));
        std::vector<uint8_t> payload1;
        std::vector<float> out1(n);
        {
          SetIntraOpThreads(1);
          // A fresh Rng per run: thread invariance must hold for the
          // same rng state at entry, not merely the same seed lineage.
          Rng rng(seed);
          ASSERT_TRUE(codec->Compress(v.data(), n, &rng, &payload1).ok());
          ASSERT_TRUE(codec->Decompress(payload1.data(), payload1.size(), n,
                                        out1.data())
                          .ok());
        }
        for (const int threads : {2, 8}) {
          SetIntraOpThreads(threads);
          Rng rng(seed);
          std::vector<uint8_t> payload;
          std::vector<float> out(n);
          ASSERT_TRUE(codec->Compress(v.data(), n, &rng, &payload).ok());
          ASSERT_EQ(payload, payload1)
              << spec << " n=" << n << " threads=" << threads;
          ASSERT_TRUE(
              codec->Decompress(payload.data(), payload.size(), n, out.data())
                  .ok());
          ASSERT_EQ(std::memcmp(out.data(), out1.data(), n * sizeof(float)),
                    0)
              << spec << " n=" << n << " threads=" << threads;
        }
        SetIntraOpThreads(0);
      }
    }
  }
}

}  // namespace
}  // namespace bagua
