#ifndef BAGUA_COMPRESS_QSGD_H_
#define BAGUA_COMPRESS_QSGD_H_

#include "compress/compressor.h"

namespace bagua {

/// \brief QSGD stochastic quantizer (Alistarh et al., NeurIPS 2017).
///
/// Elements are processed in blocks of `block_size`. Each block stores its
/// max-magnitude scale (float) followed by one signed `bits`-bit level per
/// element. Levels are assigned by *stochastic rounding*, which makes the
/// codec unbiased: E[decode(encode(x))] = x. The paper's "QSGD" algorithm
/// uses the 8-bit configuration.
///
/// Element i's rounding draw is 24 bits of a 32-bit counter hash of (one
/// rng->Next() per call, i), so the payload is a pure function of (input,
/// that draw, element index) and the same at any intra-op thread count.
/// Without an rng, levels round to nearest.
class QsgdCompressor : public Compressor {
 public:
  /// \param bits level width; supported: 2, 4, 8 (signed levels).
  /// \param block_size elements per scale block.
  explicit QsgdCompressor(int bits = 8, size_t block_size = 512);

  const char* name() const override { return name_.c_str(); }
  size_t CompressedBytes(size_t n) const override;
  Status Compress(const float* in, size_t n, Rng* rng,
                  std::vector<uint8_t>* out) const override;
  Status Decompress(const uint8_t* in, size_t bytes, size_t n,
                    float* out) const override;
  Status DecompressAdd(const uint8_t* in, size_t bytes, size_t n,
                       float* acc) const override;

  int bits() const { return bits_; }
  size_t block_size() const { return block_size_; }

 private:
  int bits_;
  size_t block_size_;
  int levels_;  // quantization levels per sign: 2^(bits-1) - 1
  std::string name_;
};

}  // namespace bagua

#endif  // BAGUA_COMPRESS_QSGD_H_
