#ifndef BAGUA_COMPRESS_ONEBIT_H_
#define BAGUA_COMPRESS_ONEBIT_H_

#include "compress/compressor.h"

namespace bagua {

/// \brief 1-bit sign compressor used by 1-bit Adam (Tang et al., 2021).
///
/// Elements are processed in blocks. Each block stores two float scales —
/// the mean magnitude of its positive and of its negative elements — plus
/// one sign bit per element. decode(x_i) = pos_scale if sign set, else
/// -neg_scale. The codec is biased (signSGD-style), which is why the paper
/// pairs it with error compensation (the δ/ε state of C_LP_S).
class OneBitCompressor : public Compressor {
 public:
  explicit OneBitCompressor(size_t block_size = 2048);

  const char* name() const override { return "onebit"; }
  size_t CompressedBytes(size_t n) const override;
  Status Compress(const float* in, size_t n, Rng* rng,
                  std::vector<uint8_t>* out) const override;
  Status Decompress(const uint8_t* in, size_t bytes, size_t n,
                    float* out) const override;
  Status DecompressAdd(const uint8_t* in, size_t bytes, size_t n,
                       float* acc) const override;

  size_t block_size() const { return block_size_; }

 private:
  size_t block_size_;
};

}  // namespace bagua

#endif  // BAGUA_COMPRESS_ONEBIT_H_
