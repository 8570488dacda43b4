// Bitwise and statistical contracts of the vectorized codec kernels
// (compress/qsgd.cc, compress/onebit.cc, compress/compressor.cc).
//
// The QSGD oracle below is a frozen scalar encoder: it spells out the
// payload format element by element (std::floor, a division and a modulo
// per element) and is compiled at the project's default flags, while the
// kernel is compiled at -O3 with the host ISA. The kernel must match it bit
// for bit at every width, block size, length and intra-op thread count.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "base/parallel.h"
#include "base/rng.h"
#include "compress/factory.h"
#include "compress/qsgd.h"
#include "tensor/ops.h"

namespace bagua {
namespace {

// ------------------------------------------------------------- the oracle

/// The rounding draw's hash: a Weyl step keyed by (k0, k1), then murmur3's
/// fmix32 finalizer.
uint32_t OracleHash(uint32_t i, uint32_t k0, uint32_t k1) {
  uint32_t h = ((i + k0) * 0x9E3779B1u) ^ k1;
  h ^= h >> 16;
  h *= 0x85EBCA6Bu;
  h ^= h >> 13;
  h *= 0xC2B2AE35u;
  h ^= h >> 16;
  return h;
}

/// Scalar QSGD encoder: scales[num_blocks] (max |x| of each block), then
/// one (level + levels) code per element, packed little-end first. Element
/// i rounds up when u_i < frac(v_i), u_i = (hash(i) >> 8) / 2^24 under the
/// key of one rng draw; without an rng u_i = 1/2.
std::vector<uint8_t> OracleEncode(const float* in, size_t n, int bits,
                                  size_t block_size, Rng* rng) {
  const int levels = (1 << (bits - 1)) - 1;
  const size_t num_blocks = (n + block_size - 1) / block_size;
  const size_t per_byte = 8 / static_cast<size_t>(bits);
  std::vector<uint8_t> out(num_blocks * 4 + (n * bits + 7) / 8, 0);
  uint32_t k0 = 0, k1 = 0;
  if (rng != nullptr) {
    const uint64_t key = rng->Next();
    k0 = static_cast<uint32_t>(key);
    k1 = static_cast<uint32_t>(key >> 32);
  }
  for (size_t b = 0; b < num_blocks; ++b) {
    const size_t begin = b * block_size;
    const size_t end = std::min(n, begin + block_size);
    float scale = 0.0f;
    for (size_t i = begin; i < end; ++i) {
      const float a = std::fabs(in[i]);
      if (a > scale) scale = a;
    }
    std::memcpy(out.data() + b * 4, &scale, 4);
    // A block whose levels / scale overflows is coded against
    // scale * 2^64, its elements scaled by 2^64 first (both exact).
    const bool tiny =
        scale > 0.0f && std::isinf(static_cast<float>(levels) / scale);
    const float pre = tiny ? 0x1p64f : 1.0f;
    const float inv =
        scale > 0.0f ? static_cast<float>(levels) / (scale * pre) : 0.0f;
    for (size_t i = begin; i < end; ++i) {
      float v = (in[i] * pre) * inv;
      // inf * 0 or a NaN input: level 0. |v| can exceed levels by a
      // rounding of inv; the level is clamped to ±levels either way.
      if (std::isnan(v)) v = 0.0f;
      v = std::min(std::max(v, -static_cast<float>(levels)),
                   static_cast<float>(levels));
      const float lo = std::floor(v);
      const float frac = v - lo;
      float u = 0.5f;
      if (rng != nullptr) {
        const uint32_t h = OracleHash(static_cast<uint32_t>(i), k0, k1);
        u = static_cast<float>(h >> 8) / 16777216.0f;
      }
      const int level = static_cast<int>(lo) + (u < frac ? 1 : 0);
      const size_t slot = num_blocks * 4 + i / per_byte;
      const int shift = static_cast<int>(i % per_byte) * bits;
      out[slot] |= static_cast<uint8_t>((level + levels) << shift);
    }
  }
  return out;
}

// ---------------------------------------------------------------- helpers

std::vector<float> Gradient(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.Normal() * 0.01);
  // Values the rounding must get right: zeros of both signs, subnormals,
  // exact level boundaries and an all-zero block at the front.
  for (size_t i = 0; i < std::min<size_t>(n, 70); ++i) v[i] = 0.0f;
  if (n > 80) {
    v[71] = -0.0f;
    v[72] = 1e-41f;
    v[73] = -3e-39f;
    v[74] = 0.5f;
    v[75] = -0.25f;
    v[76] = 1.0f;
  }
  return v;
}

/// Gradient plus blocks no training step should produce but the encoder
/// must still treat alike in kernel and oracle: an inf, a NaN, and a run
/// of subnormals whose levels / scale overflows (a tiny block).
std::vector<float> GradientWithSpecials(size_t n, uint64_t seed) {
  auto v = Gradient(n, seed);
  if (n > 5000) {
    v[1500] = std::numeric_limits<float>::infinity();
    v[1600] = std::numeric_limits<float>::quiet_NaN();
    v[2700] = -std::numeric_limits<float>::infinity();
    // Magnitudes between 0 and the block max, so the tiny-block prescale
    // decides levels (±max and 0 code the same either way).
    for (size_t i = 4096; i < 5000; ++i) {
      v[i] = static_cast<float>(static_cast<int>(i % 7) - 3) * 1e-43f;
    }
  }
  return v;
}

class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(int threads) { SetIntraOpThreads(threads); }
  ~ThreadCountGuard() { SetIntraOpThreads(0); }
};

// ------------------------------------------------------ kernel vs oracle

TEST(QsgdKernelTest, MatchesScalarOracleBitwise) {
  for (const int threads : {1, 2, 8}) {
    ThreadCountGuard guard(threads);
    for (const int bits : {2, 4, 8}) {
      for (const size_t block : {64u, 63u, 512u}) {
        const QsgdCompressor codec(bits, block);
        for (const size_t n : {1u, 7u, 1000u, 544772u}) {
          const auto v =
              GradientWithSpecials(n, MixSeed(bits * 1000 + block, n));
          for (const bool stochastic : {true, false}) {
            Rng kernel_rng(99), oracle_rng(99);
            std::vector<uint8_t> payload;
            ASSERT_TRUE(codec
                            .Compress(v.data(), n,
                                      stochastic ? &kernel_rng : nullptr,
                                      &payload)
                            .ok());
            const auto want = OracleEncode(v.data(), n, bits, block,
                                           stochastic ? &oracle_rng : nullptr);
            ASSERT_EQ(payload, want)
                << "bits=" << bits << " block=" << block << " n=" << n
                << " threads=" << threads << " stochastic=" << stochastic;
            // The call takes exactly one rng draw.
            EXPECT_EQ(kernel_rng.Next(), oracle_rng.Next());
          }
        }
      }
    }
  }
}

// ------------------------------------------------ DecompressAdd contract

TEST(DecompressAddTest, EqualsDecompressThenAddForEveryCodec) {
  const char* specs[] = {"identity", "fp16",     "bf16",    "onebit", "qsgd8",
                         "qsgd4",    "qsgd2",    "topk:0.05", "sketch:8"};
  for (const int threads : {1, 4}) {
    ThreadCountGuard guard(threads);
    for (const char* spec : specs) {
      auto codec = std::move(MakeCompressor(spec)).value();
      for (const size_t n : {1u, 37u, 513u, 2049u, 100000u}) {
        const auto v = Gradient(n, MixSeed(7, n));
        Rng rng(11);
        std::vector<uint8_t> payload;
        ASSERT_TRUE(codec->Compress(v.data(), n, &rng, &payload).ok());
        const auto acc0 = Gradient(n, MixSeed(8, n));
        std::vector<float> decoded(n), want(n), got = acc0;
        ASSERT_TRUE(
            codec->Decompress(payload.data(), payload.size(), n, decoded.data())
                .ok());
        Add(acc0.data(), decoded.data(), want.data(), n);
        ASSERT_TRUE(
            codec->DecompressAdd(payload.data(), payload.size(), n, got.data())
                .ok());
        ASSERT_EQ(std::memcmp(got.data(), want.data(), n * sizeof(float)), 0)
            << spec << " n=" << n << " threads=" << threads;
        EXPECT_FALSE(codec
                         ->DecompressAdd(payload.data(), payload.size() - 1,
                                         n, got.data())
                         .ok())
            << spec;
      }
    }
  }
}

// -------------------------------------------------- rounding statistics

// Unbiasedness across many blocks and many consecutive calls on one rng:
// every element's mean decode over K calls lies within a CLT bound of x
// (a stochastic rounding has variance at most step^2 / 4), and the mean
// signed error over all elements, which would expose a small systematic
// bias no single element shows, lies within its own CLT bound.
TEST(QsgdStatisticsTest, UnbiasedAcrossBlocksAndCalls) {
  constexpr size_t kBlock = 64, kBlocks = 64, kN = kBlock * kBlocks;
  constexpr int kCalls = 400;
  Rng data_rng(21);
  std::vector<float> v(kN);
  for (auto& x : v) x = static_cast<float>(data_rng.Normal());
  for (const int bits : {2, 4, 8}) {
    const QsgdCompressor codec(bits, kBlock);
    const int levels = (1 << (bits - 1)) - 1;
    std::vector<double> sum(kN, 0.0);
    std::vector<float> out(kN);
    Rng rng(22);
    for (int c = 0; c < kCalls; ++c) {
      ASSERT_TRUE(RoundTrip(codec, v.data(), kN, &rng, out.data()).ok());
      for (size_t i = 0; i < kN; ++i) sum[i] += out[i];
    }
    double total_z = 0.0;
    for (size_t b = 0; b < kBlocks; ++b) {
      const double step =
          AbsMax(v.data() + b * kBlock, kBlock) / static_cast<double>(levels);
      const double sd = 0.5 * step / std::sqrt(static_cast<double>(kCalls));
      for (size_t i = b * kBlock; i < (b + 1) * kBlock; ++i) {
        const double err = sum[i] / kCalls - v[i];
        EXPECT_LE(std::fabs(err), 6.0 * sd + 1e-6)
            << "bits=" << bits << " i=" << i;
        total_z += err / step;
      }
    }
    const double total_sd =
        0.5 * std::sqrt(static_cast<double>(kN) / static_cast<double>(kCalls));
    EXPECT_LE(std::fabs(total_z), 6.0 * total_sd) << "bits=" << bits;
  }
}

// Rounding decisions of neighbouring elements, and of the same element in
// consecutive calls, are uncorrelated. Every element sits exactly halfway
// between two levels, so each decision is a fair coin; over N pairs an
// independent sequence gives |r| < 5 / sqrt(N) all but a 6e-7 fraction of
// the time.
TEST(QsgdStatisticsTest, RoundingDecisionsUncorrelated) {
  constexpr size_t kBlock = 512, kN = kBlock * 256;
  constexpr int kCalls = 4;
  // Scale 127 per block makes the 8-bit step exactly 1, so decode returns
  // the level itself; the other elements are k + 1/2.
  std::vector<float> v(kN);
  for (size_t i = 0; i < kN; ++i) {
    v[i] = i % kBlock == 0 ? 127.0f
                           : static_cast<float>(static_cast<int>(i % 200) - 100) +
                                 0.5f;
  }
  const QsgdCompressor codec(8, kBlock);
  Rng rng(31);
  std::vector<std::vector<int>> up(kCalls, std::vector<int>(kN));
  std::vector<float> out(kN);
  for (int c = 0; c < kCalls; ++c) {
    ASSERT_TRUE(RoundTrip(codec, v.data(), kN, &rng, out.data()).ok());
    for (size_t i = 0; i < kN; ++i) {
      up[c][i] = static_cast<int>(out[i] - std::floor(v[i]));
      ASSERT_TRUE(up[c][i] == 0 || up[c][i] == 1 || i % kBlock == 0) << i;
    }
  }
  auto correlation = [](const std::vector<int>& a, const std::vector<int>& b) {
    double ma = 0, mb = 0;
    for (size_t i = 0; i < a.size(); ++i) ma += a[i], mb += b[i];
    ma /= a.size();
    mb /= b.size();
    double sab = 0, saa = 0, sbb = 0;
    for (size_t i = 0; i < a.size(); ++i) {
      sab += (a[i] - ma) * (b[i] - mb);
      saa += (a[i] - ma) * (a[i] - ma);
      sbb += (b[i] - mb) * (b[i] - mb);
    }
    return sab / std::sqrt(saa * sbb);
  };
  for (int c = 0; c < kCalls; ++c) {
    // Halfway elements only (block starts round exactly).
    std::vector<int> cur, next;
    for (size_t i = 0; i + 1 < kN; ++i) {
      if (i % kBlock == 0 || (i + 1) % kBlock == 0) continue;
      cur.push_back(up[c][i]);
      next.push_back(up[c][i + 1]);
    }
    const double bound = 5.0 / std::sqrt(static_cast<double>(cur.size()));
    double mean = 0;
    for (int d : cur) mean += d;
    mean /= cur.size();
    EXPECT_NEAR(mean, 0.5, bound) << "call " << c;
    EXPECT_LT(std::fabs(correlation(cur, next)), bound) << "lag-1, call " << c;
    if (c + 1 < kCalls) {
      EXPECT_LT(std::fabs(correlation(up[c], up[c + 1])),
                5.0 / std::sqrt(static_cast<double>(kN)))
          << "calls " << c << " and " << c + 1;
    }
  }
}

}  // namespace
}  // namespace bagua
