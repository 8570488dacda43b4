// QSGD encode/decode kernels. Compiled with the kernel TU options (-O3,
// -march=native when available, see src/CMakeLists.txt) plus
// -ffp-contract=off: the rounding fraction `v - floor(v)` and the fused
// decode-add `acc + level * step` must round exactly as written, or an FMA
// would move a stochastic-rounding decision or an accumulated bit.
//
// Bitwise contracts (tests/codec_kernel_test.cc):
//   * Compress ≡ a frozen scalar encoder (the test's oracle) for every
//     width, block size, n and intra-op thread count;
//   * DecompressAdd ≡ Decompress followed by Add.
//
// Every element's stochastic-rounding draw is 24 bits of a counter hash of
// (one rng draw per call, the element's index in the call), so an element's
// level depends only on its value, its block's scale and its index. The
// kernels therefore split the payload by packed byte, like onebit's sign
// pass, whatever the block size: no element order, thread count or block
// geometry can change a byte.

#include "compress/qsgd.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <type_traits>

#include "base/logging.h"
#include "base/parallel.h"
#include "base/rng.h"
#include "base/strings.h"

namespace bagua {

namespace {

/// Elements per staging tile of the sub-byte widths (levels are computed
/// into a tile of one-byte codes, then packed or unpacked).
constexpr size_t kTile = 2048;

/// 32-bit counter hash of element index `i` under the per-call key
/// (k0, k1): a Weyl step keyed by k0 and k1, then murmur3's fmix32
/// finalizer. k1 breaks the sequence alignment two calls would share if
/// only k0 differed. Indices are taken mod 2^32.
inline uint32_t CounterHash(uint32_t i, uint32_t k0, uint32_t k1) {
  uint32_t h = ((i + k0) * 0x9E3779B1u) ^ k1;
  h ^= h >> 16;
  h *= 0x85EBCA6Bu;
  h ^= h >> 13;
  h *= 0xC2B2AE35u;
  h ^= h >> 16;
  return h;
}

/// A block whose max |x| is below levels / FLT_MAX would get
/// inv = levels / scale = +inf, and every nonzero element would code as
/// ±levels. Such a tiny block is coded against scale * 2^64 instead (exact,
/// a power of two): the encoder quantizes x * 2^64 and the decoder scales
/// its values back by 2^-64. The stored scale stays the block's max |x|,
/// and every other block codes and decodes as before.
constexpr float kTinyUp = 0x1p64f;
constexpr float kTinyDown = 0x1p-64f;

inline bool IsTinyScale(float scale, int32_t levels) {
  return scale > 0.0f && std::isinf(static_cast<float>(levels) / scale);
}

/// max |x[k]| over the block, exactly as the scalar `if (a > s) s = a`
/// scan from 0: for non-NaN floats, |x| orders like its bit pattern, so the
/// max is an unsigned-integer reduction (which vectorizes). A NaN, whose
/// pattern exceeds +inf's, never wins the scalar compare, so a block with
/// one takes the scalar scan.
float BlockAbsMax(const float* __restrict__ x, size_t count) {
  uint32_t m = 0;
  for (size_t k = 0; k < count; ++k) {
    uint32_t bits;
    std::memcpy(&bits, x + k, sizeof(bits));
    m = std::max(m, bits & 0x7FFFFFFFu);
  }
  if (m > 0x7F800000u) {
    float s = 0.0f;
    for (size_t k = 0; k < count; ++k) {
      const float a = std::fabs(x[k]);
      if (a > s) s = a;
    }
    return s;
  }
  float s;
  std::memcpy(&s, &m, sizeof(s));
  return s;
}

/// Stored codes (level + levels, in [0, 2*levels]) of x[0, count) scaled
/// by `pre` (1, or kTinyUp in a tiny block), whose first element has index
/// `first` in the call. Branch-free so it vectorizes; the floor comes
/// from a truncating convert (std::floor would block vectorization under
/// the default trapping-math). v is clamped to
/// [-levels, levels] first, which keeps the convert defined and gives the
/// same level as clamping the rounded level; a NaN (an inf or NaN input)
/// encodes as level 0. Without an rng the draw is a constant 1/2: round to
/// nearest, ties toward -inf.
template <bool kStochastic>
void Quantize(const float* __restrict__ x, size_t count, float pre,
              float inv, int32_t levels, uint32_t first, uint32_t k0,
              uint32_t k1, uint8_t* __restrict__ codes) {
  const float top = static_cast<float>(levels);
  for (size_t k = 0; k < count; ++k) {
    const float raw = (x[k] * pre) * inv;
    // (This order of the NaN select and the clamp is one gcc vectorizes.)
    const float v = std::min(std::max(raw == raw ? raw : 0.0f, -top), top);
    const int32_t t = static_cast<int32_t>(v);
    const int32_t lo = t - static_cast<int32_t>(v < static_cast<float>(t));
    const float frac = v - static_cast<float>(lo);
    float u = 0.5f;
    if constexpr (kStochastic) {
      const uint32_t h = CounterHash(first + static_cast<uint32_t>(k), k0, k1);
      u = static_cast<float>(h >> 8) * 0x1p-24f;
    }
    const int32_t level = lo + static_cast<int32_t>(u < frac);
    codes[k] = static_cast<uint8_t>(level + levels);
  }
}

/// Packs codes[0, 8/kBits * nbytes) into nbytes bytes, element k of a byte
/// in bits [k*kBits, (k+1)*kBits).
template <int kBits>
void PackCodes(const uint8_t* __restrict__ codes, size_t nbytes,
               uint8_t* __restrict__ out) {
  constexpr int kPer = 8 / kBits;
  for (size_t j = 0; j < nbytes; ++j) {
    unsigned byte = 0;
    for (int k = 0; k < kPer; ++k) {
      byte |= static_cast<unsigned>(codes[j * kPer + k]) << (k * kBits);
    }
    out[j] = static_cast<uint8_t>(byte);
  }
}

template <int kBits>
void UnpackCodes(const uint8_t* __restrict__ in, size_t nbytes,
                 uint8_t* __restrict__ codes) {
  constexpr int kPer = 8 / kBits;
  constexpr unsigned kMask = (1u << kBits) - 1;
  for (size_t j = 0; j < nbytes; ++j) {
    for (int k = 0; k < kPer; ++k) {
      codes[j * kPer + k] =
          static_cast<uint8_t>((in[j] >> (k * kBits)) & kMask);
    }
  }
}

/// The packed layout of one call: scales[num_blocks], then the codes.
struct Layout {
  size_t n;
  size_t block_size;
  int32_t levels;
};

/// Encodes elements [lo, hi) — lo on a packed-byte boundary — into
/// packed bytes [lo / kPer, ceil(hi / kPer)), and writes the scale of every
/// block that starts in the range.
template <int kBits, bool kStochastic>
void EncodeChunk(const Layout& l, const float* in, size_t lo, size_t hi,
                 uint32_t k0, uint32_t k1, float* scales, uint8_t* packed) {
  constexpr size_t kPer = 8 / kBits;
  uint8_t tile[kTile];
  size_t cur_block = SIZE_MAX;
  float pre = 1.0f;
  float inv = 0.0f;
  for (size_t t0 = lo; t0 < hi; t0 += kTile) {
    const size_t t1 = std::min(hi, t0 + kTile);
    uint8_t* codes = kBits == 8 ? packed + t0 : tile;
    for (size_t s = t0; s < t1;) {
      const size_t b = s / l.block_size;
      const size_t bbegin = b * l.block_size;
      const size_t bend = std::min(l.n, bbegin + l.block_size);
      if (b != cur_block) {
        const float scale = BlockAbsMax(in + bbegin, bend - bbegin);
        if (bbegin >= lo) scales[b] = scale;
        pre = IsTinyScale(scale, l.levels) ? kTinyUp : 1.0f;
        inv = scale > 0.0f ? static_cast<float>(l.levels) / (scale * pre)
                           : 0.0f;
        cur_block = b;
      }
      const size_t e = std::min(t1, bend);
      Quantize<kStochastic>(in + s, e - s, pre, inv, l.levels,
                            static_cast<uint32_t>(s), k0, k1,
                            codes + (s - t0));
      s = e;
    }
    if constexpr (kBits < 8) {
      const size_t nbytes = (t1 - t0 + kPer - 1) / kPer;
      // The last byte of the payload may be partly unused: its spare
      // fields stay zero.
      std::fill(tile + (t1 - t0), tile + nbytes * kPer, uint8_t{0});
      PackCodes<kBits>(tile, nbytes, packed + t0 / kPer);
    }
  }
}

/// Decodes elements [lo, hi) — lo on a packed-byte boundary — into out
/// (kAdd: out[i] += value).
template <int kBits, bool kAdd>
void DecodeChunk(const Layout& l, const float* scales, const uint8_t* packed,
                 size_t lo, size_t hi, float* __restrict__ out) {
  constexpr size_t kPer = 8 / kBits;
  uint8_t tile[kTile];
  for (size_t t0 = lo; t0 < hi; t0 += kTile) {
    const size_t t1 = std::min(hi, t0 + kTile);
    if constexpr (kBits < 8) {
      UnpackCodes<kBits>(packed + t0 / kPer, (t1 - t0 + kPer - 1) / kPer,
                         tile);
    }
    for (size_t s = t0; s < t1;) {
      const size_t b = s / l.block_size;
      const size_t e = std::min(t1, (b + 1) * l.block_size);
      const bool tiny = IsTinyScale(scales[b], l.levels);
      const float post = tiny ? kTinyDown : 1.0f;
      const float step = (tiny ? scales[b] * kTinyUp : scales[b]) /
                         static_cast<float>(l.levels);
      const uint8_t* __restrict__ c =
          kBits == 8 ? packed + s : tile + (s - t0);
      float* __restrict__ o = out + s;
      for (size_t k = 0; k < e - s; ++k) {
        const float value =
            (static_cast<float>(static_cast<int32_t>(c[k]) - l.levels) *
             step) *
            post;
        if constexpr (kAdd) {
          o[k] += value;
        } else {
          o[k] = value;
        }
      }
      s = e;
    }
  }
}

/// Runs fn(std::integral_constant<int, bits>{}) for a 2/4/8-bit codec.
template <typename Fn>
void WithBits(int bits, Fn&& fn) {
  switch (bits) {
    case 2: fn(std::integral_constant<int, 2>{}); break;
    case 4: fn(std::integral_constant<int, 4>{}); break;
    default: fn(std::integral_constant<int, 8>{}); break;
  }
}

/// Runs chunk(lo, hi) over [0, n) split by whole packed bytes of
/// kBits-bit codes on the intra-op pool.
template <int kBits, typename Fn>
void ForEachByteChunk(size_t n, Fn&& chunk) {
  constexpr size_t kPer = 8 / kBits;
  const size_t num_bytes = (n + kPer - 1) / kPer;
  IntraOpFor(num_bytes, kElementwiseGrain / kPer, [&](size_t b0, size_t b1) {
    chunk(b0 * kPer, std::min(n, b1 * kPer));
  });
}

/// Decodes a payload of `bits`-bit codes into out (kAdd: out += value).
template <bool kAdd>
void DecodePayload(int bits, const Layout& l, const uint8_t* in,
                   float* out) {
  const size_t num_blocks = (l.n + l.block_size - 1) / l.block_size;
  const float* scales = reinterpret_cast<const float*>(in);
  const uint8_t* packed = in + num_blocks * sizeof(float);
  WithBits(bits, [&](auto width) {
    constexpr int kBits = decltype(width)::value;
    ForEachByteChunk<kBits>(l.n, [&](size_t lo, size_t hi) {
      DecodeChunk<kBits, kAdd>(l, scales, packed, lo, hi, out);
    });
  });
}

Status CheckPayloadSize(size_t bytes, size_t want, size_t n) {
  if (bytes != want) {
    return Status::InvalidArgument(StrFormat(
        "qsgd payload %zu bytes, want %zu for n=%zu", bytes, want, n));
  }
  return Status::OK();
}

}  // namespace

QsgdCompressor::QsgdCompressor(int bits, size_t block_size)
    : bits_(bits), block_size_(block_size) {
  BAGUA_CHECK(bits == 2 || bits == 4 || bits == 8)
      << "QSGD supports 2/4/8-bit levels, got " << bits;
  BAGUA_CHECK_GT(block_size, 0u);
  levels_ = (1 << (bits - 1)) - 1;
  name_ = StrFormat("qsgd%d", bits);
}

size_t QsgdCompressor::CompressedBytes(size_t n) const {
  const size_t num_blocks = (n + block_size_ - 1) / block_size_;
  const size_t level_bytes =
      (n * static_cast<size_t>(bits_) + 7) / 8;
  return num_blocks * sizeof(float) + level_bytes;
}

Status QsgdCompressor::Compress(const float* in, size_t n, Rng* rng,
                                std::vector<uint8_t>* out) const {
  const size_t num_blocks = (n + block_size_ - 1) / block_size_;
  // Every byte is written below (scales, codes, and the zeroed spare
  // fields of a partial last byte), so no clearing pass.
  out->resize(CompressedBytes(n));
  float* scales = reinterpret_cast<float*>(out->data());
  uint8_t* packed = out->data() + num_blocks * sizeof(float);
  const Layout l{n, block_size_, levels_};
  const uint64_t key = rng != nullptr ? rng->Next() : 0;
  const uint32_t k0 = static_cast<uint32_t>(key);
  const uint32_t k1 = static_cast<uint32_t>(key >> 32);
  WithBits(bits_, [&](auto width) {
    constexpr int kBits = decltype(width)::value;
    ForEachByteChunk<kBits>(n, [&](size_t lo, size_t hi) {
      if (rng != nullptr) {
        EncodeChunk<kBits, true>(l, in, lo, hi, k0, k1, scales, packed);
      } else {
        EncodeChunk<kBits, false>(l, in, lo, hi, 0, 0, scales, packed);
      }
    });
  });
  return Status::OK();
}

Status QsgdCompressor::Decompress(const uint8_t* in, size_t bytes, size_t n,
                                  float* out) const {
  RETURN_IF_ERROR(CheckPayloadSize(bytes, CompressedBytes(n), n));
  DecodePayload<false>(bits_, Layout{n, block_size_, levels_}, in, out);
  return Status::OK();
}

Status QsgdCompressor::DecompressAdd(const uint8_t* in, size_t bytes,
                                     size_t n, float* acc) const {
  RETURN_IF_ERROR(CheckPayloadSize(bytes, CompressedBytes(n), n));
  DecodePayload<true>(bits_, Layout{n, block_size_, levels_}, in, acc);
  return Status::OK();
}

}  // namespace bagua
