#ifndef BAGUA_TENSOR_DTYPE_H_
#define BAGUA_TENSOR_DTYPE_H_

#include <bit>
#include <cstddef>
#include <cstdint>

namespace bagua {

/// \brief Reduced-precision element types the system understands end-to-end.
///
/// fp32 is the compute dtype everywhere (kernels, optimizers, reductions
/// accumulate in float); bf16/fp16 are *storage and wire* dtypes: 2-byte
/// encodings used for parameter/gradient storage (model/optimizer.h
/// MixedPrecisionOptimizer) and as C_LP_S codecs (compress/half.h).
/// Conversions round to nearest even — the batch kernels below are bitwise
/// identical to the scalar bf16 conversions here and to the frozen scalar
/// references in tensor/reference.h (tests/dtype_test.cc enforces it), so
/// a value quantized by any layer of the stack produces the same bits.
/// Full-precision fp32 has no WireDtype: an fp32 wire is the identity
/// codec (compress/compressor.h).
enum class WireDtype : uint8_t {
  kBf16 = 1,  ///< 2-byte bfloat16 (1/8/7): fp32's exponent range, 8-bit
              ///< mantissa. The default reduced wire dtype — no gradient
              ///< over/underflow surprises, exactly why training systems
              ///< prefer it on the wire.
  kFp16 = 2,  ///< 2-byte IEEE binary16 (1/5/10): more mantissa, narrow
              ///< exponent. The "Horovod 16bits" codec dtype.
};

constexpr const char* WireDtypeName(WireDtype d) {
  switch (d) {
    case WireDtype::kBf16: return "bf16";
    case WireDtype::kFp16: return "fp16";
  }
  return "?";
}

/// \name Scalar bf16 conversions (round to nearest even).
///
/// The c10-style add-trick: adding 0x7FFF plus the parity of the result's
/// LSB to the raw float bits performs RNE truncation to the top 16 bits in
/// one integer add (ties round toward the even 16-bit mantissa; carries
/// propagate into the exponent so values that round past the largest
/// representable land on ±inf, and ±inf itself is preserved — its mantissa
/// is zero so the bias never carries). NaNs are canonicalized to
/// sign | 0x7FC0 (quiet, payload dropped) rather than risking the rounding
/// add turning a signalling payload into ±inf.
/// @{
inline uint16_t FloatToBf16(float f) {
  const uint32_t x = std::bit_cast<uint32_t>(f);
  if ((x & 0x7FFFFFFFu) > 0x7F800000u) {  // NaN
    return static_cast<uint16_t>(((x >> 16) & 0x8000u) | 0x7FC0u);
  }
  return static_cast<uint16_t>((x + 0x7FFFu + ((x >> 16) & 1u)) >> 16);
}

/// Exact (every bf16 value is a float): reattach 16 zero mantissa bits.
inline float Bf16ToFloat(uint16_t h) {
  return std::bit_cast<float>(static_cast<uint32_t>(h) << 16);
}
/// @}

/// \name Vectorized batch conversions (tensor/convert.cc).
///
/// Compiled in the -O3 -march=native kernel TU; split over the intra-op
/// pool in fixed-size blocks, so results are bitwise identical at any
/// thread count — and bitwise identical to the scalar conversions above /
/// tensor/reference.h's FloatToHalfN/HalfToFloatN. Wall time is recorded as
/// kernel.convert.{calls,ns,flops} (flops = elements converted). The
/// frozen naive baselines live in tensor/reference.h; the precision gate
/// (scripts/precision_gate.sh) fails the build unless these stay >= 2x
/// faster.
/// @{
void FloatToBf16N(const float* in, uint16_t* out, size_t n);
void Bf16ToFloatN(const uint16_t* in, float* out, size_t n);
void FloatToHalfN(const float* in, uint16_t* out, size_t n);
void HalfToFloatN(const uint16_t* in, float* out, size_t n);
/// @}

/// \name Wire pack/unpack — the dtype-dispatched face of the batch kernels.
///
/// `wire` buffers hold n 2-byte elements and must be aligned for uint16_t
/// (transport payload buffers and arena scratch both are).
/// @{
void PackWire(WireDtype d, const float* in, void* wire, size_t n);
void UnpackWire(WireDtype d, const void* wire, float* out, size_t n);
/// @}

}  // namespace bagua

#endif  // BAGUA_TENSOR_DTYPE_H_
