#include "compress/onebit.h"

#include <cmath>
#include <cstring>

#include <algorithm>

#include "base/logging.h"
#include "base/parallel.h"
#include "base/strings.h"

namespace bagua {

OneBitCompressor::OneBitCompressor(size_t block_size)
    : block_size_(block_size) {
  BAGUA_CHECK_GT(block_size, 0u);
}

size_t OneBitCompressor::CompressedBytes(size_t n) const {
  const size_t num_blocks = (n + block_size_ - 1) / block_size_;
  return num_blocks * 2 * sizeof(float) + (n + 7) / 8;
}

Status OneBitCompressor::Compress(const float* in, size_t n, Rng* /*rng*/,
                                  std::vector<uint8_t>* out) const {
  const size_t num_blocks = (n + block_size_ - 1) / block_size_;
  // Pass 1 writes every scale and pass 2 every bit-byte, so no clearing.
  out->resize(CompressedBytes(n));
  float* scales = reinterpret_cast<float*>(out->data());
  uint8_t* bits = out->data() + num_blocks * 2 * sizeof(float);

  // Pass 1 — per-block mean magnitudes. Blocks write disjoint scale
  // slots, and each block's accumulation order is fixed, so the payload
  // is identical at any intra-op thread count. Branch-free (random signs
  // mispredict a branch half the time): each element's double is masked
  // into the sum it belongs to, and the other sum takes an exact +0.0,
  // which leaves it unchanged (neither sum is ever -0.0). Both sums are
  // therefore bitwise those of the per-element branch.
  IntraOpBlocks(num_blocks, 1, [&](size_t b, size_t, size_t) {
    const size_t begin = b * block_size_;
    const size_t end = std::min(n, begin + block_size_);
    double pos_sum = 0.0, neg_sum = 0.0;
    size_t pos_cnt = 0;
    for (size_t i = begin; i < end; ++i) {
      const double x = in[i];
      const bool pos = in[i] >= 0.0f;
      const uint64_t mask = uint64_t{0} - static_cast<uint64_t>(pos);
      uint64_t pattern;
      std::memcpy(&pattern, &x, sizeof(pattern));
      const uint64_t pos_bits = pattern & mask, neg_bits = pattern & ~mask;
      double pos_part, neg_part;
      std::memcpy(&pos_part, &pos_bits, sizeof(pos_part));
      std::memcpy(&neg_part, &neg_bits, sizeof(neg_part));
      pos_sum += pos_part;
      neg_sum -= neg_part;
      pos_cnt += pos;
    }
    const size_t neg_cnt = (end - begin) - pos_cnt;
    scales[2 * b] =
        pos_cnt > 0 ? static_cast<float>(pos_sum / pos_cnt) : 0.0f;
    scales[2 * b + 1] =
        neg_cnt > 0 ? static_cast<float>(neg_sum / neg_cnt) : 0.0f;
  });
  // Pass 2 — sign bits. A bit depends only on in[i], so the split is by
  // whole bit-bytes (never by scale block): two compress blocks may share
  // a byte when block_size % 8 != 0, but two byte-chunks never do.
  const size_t num_bytes = (n + 7) / 8;
  IntraOpFor(num_bytes, size_t{1} << 12, [&](size_t begin, size_t end) {
    const size_t full_end = std::min(end, n / 8);
    for (size_t byte = begin; byte < full_end; ++byte) {
      const float* x = in + byte * 8;
      unsigned packed = 0;
      for (unsigned k = 0; k < 8; ++k) {
        packed |= static_cast<unsigned>(x[k] >= 0.0f) << k;
      }
      bits[byte] = static_cast<uint8_t>(packed);
    }
    if (full_end < end) {  // the partial last byte; spare bits stay zero
      unsigned packed = 0;
      for (size_t i = full_end * 8; i < n; ++i) {
        packed |= static_cast<unsigned>(in[i] >= 0.0f) << (i % 8);
      }
      bits[full_end] = static_cast<uint8_t>(packed);
    }
  });
  return Status::OK();
}

namespace {

/// Decodes elements [lo, hi) — lo on a bit-byte boundary — into out
/// (kAdd: out[i] += value). Bits unpack a tile at a time so the select
/// loop runs over one-byte flags and vectorizes.
template <bool kAdd>
void DecodeSigns(const float* scales, const uint8_t* bits, size_t block_size,
                 size_t lo, size_t hi, float* __restrict__ out) {
  constexpr size_t kTile = 2048;
  uint8_t set[kTile];
  for (size_t t0 = lo; t0 < hi; t0 += kTile) {
    const size_t t1 = std::min(hi, t0 + kTile);
    const uint8_t* src = bits + t0 / 8;
    for (size_t j = 0; j < (t1 - t0 + 7) / 8; ++j) {
      for (unsigned k = 0; k < 8; ++k) {
        set[j * 8 + k] = static_cast<uint8_t>((src[j] >> k) & 1u);
      }
    }
    for (size_t s = t0; s < t1;) {
      const size_t b = s / block_size;
      const size_t e = std::min(t1, (b + 1) * block_size);
      const float pos = scales[2 * b];
      const float neg = -scales[2 * b + 1];
      const uint8_t* __restrict__ f = set + (s - t0);
      float* __restrict__ o = out + s;
      for (size_t k = 0; k < e - s; ++k) {
        const float value = f[k] ? pos : neg;
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

/// Checks the payload size, then decodes it chunk by chunk of whole
/// bit-bytes (disjoint out ranges).
template <bool kAdd>
Status DecodePayload(const uint8_t* in, size_t bytes, size_t want, size_t n,
                     size_t block_size, float* out) {
  if (bytes != want) {
    return Status::InvalidArgument(StrFormat(
        "onebit payload %zu bytes, want %zu for n=%zu", bytes, want, n));
  }
  const size_t num_blocks = (n + block_size - 1) / block_size;
  const float* scales = reinterpret_cast<const float*>(in);
  const uint8_t* bits = in + num_blocks * 2 * sizeof(float);
  IntraOpFor((n + 7) / 8, size_t{1} << 12, [&](size_t begin, size_t end) {
    DecodeSigns<kAdd>(scales, bits, block_size, begin * 8,
                      std::min(n, end * 8), out);
  });
  return Status::OK();
}

}  // namespace

Status OneBitCompressor::Decompress(const uint8_t* in, size_t bytes, size_t n,
                                    float* out) const {
  return DecodePayload<false>(in, bytes, CompressedBytes(n), n, block_size_,
                              out);
}

Status OneBitCompressor::DecompressAdd(const uint8_t* in, size_t bytes,
                                       size_t n, float* acc) const {
  return DecodePayload<true>(in, bytes, CompressedBytes(n), n, block_size_,
                             acc);
}

}  // namespace bagua
