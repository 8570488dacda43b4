#ifndef BAGUA_COMPRESS_HALF_H_
#define BAGUA_COMPRESS_HALF_H_

#include "compress/compressor.h"
#include "tensor/dtype.h"

namespace bagua {

/// \brief 16-bit float codec: a reduced WireDtype (bf16 or fp16) as the
/// lossy function Q of C_LP_S. 2 bytes per element, round to nearest even,
/// lossy but deterministic. With fp16 it is the "Horovod 16bits" gradient
/// compression the paper compares against (NCCL fp16 allreduce); with bf16
/// it keeps fp32's exponent range. Compress/Decompress are the vectorized
/// PackWire/UnpackWire kernels of tensor/dtype.h.
class HalfCompressor : public Compressor {
 public:
  /// `dtype` must be WireDtype::kBf16 or WireDtype::kFp16.
  explicit HalfCompressor(WireDtype dtype);

  const char* name() const override { return WireDtypeName(dtype_); }
  WireDtype dtype() const { return dtype_; }
  size_t CompressedBytes(size_t n) const override { return n * 2; }
  Status Compress(const float* in, size_t n, Rng* rng,
                  std::vector<uint8_t>* out) const override;
  Status Decompress(const uint8_t* in, size_t bytes, size_t n,
                    float* out) const override;

 private:
  WireDtype dtype_;
};

}  // namespace bagua

#endif  // BAGUA_COMPRESS_HALF_H_
