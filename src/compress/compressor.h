#ifndef BAGUA_COMPRESS_COMPRESSOR_H_
#define BAGUA_COMPRESS_COMPRESSOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/rng.h"
#include "base/status.h"

namespace bagua {

/// \brief The lossy compression function Q of §3.2.
///
/// A Compressor encodes a flat float span into a byte payload and decodes it
/// back. Implementations must be:
///   - size-deterministic: CompressedBytes(n) is exact, so the network cost
///     model can price a transfer without executing the codec;
///   - self-contained: payloads carry their own scales; and
///   - deterministic given the Rng (stochastic rounding draws from it).
class Compressor {
 public:
  virtual ~Compressor() = default;

  virtual const char* name() const = 0;

  /// Exact payload size for an n-element input.
  virtual size_t CompressedBytes(size_t n) const = 0;

  /// Encodes `in[0, n)` into `out` (resized to CompressedBytes(n)).
  /// `rng` may be null for deterministic codecs.
  virtual Status Compress(const float* in, size_t n, Rng* rng,
                          std::vector<uint8_t>* out) const = 0;

  /// Decodes a payload produced by Compress back into `out[0, n)`.
  virtual Status Decompress(const uint8_t* in, size_t bytes, size_t n,
                            float* out) const = 0;

  /// Decodes a payload and adds it into `acc[0, n)`: bitwise the same as
  /// Decompress into a buffer followed by Add(acc, buffer, acc). The
  /// default does exactly that through "comm" arena scratch; codecs whose
  /// decode is elementwise override it with a fused single pass.
  virtual Status DecompressAdd(const uint8_t* in, size_t bytes, size_t n,
                               float* acc) const;

  /// Average compressed bytes per element (for reporting).
  double BytesPerElement() const {
    return static_cast<double>(CompressedBytes(1 << 16)) / (1 << 16);
  }
};

/// \brief Identity codec: full-precision "compression" (4 bytes/element).
/// Used so full- and low-precision code paths share one implementation.
class IdentityCompressor : public Compressor {
 public:
  const char* name() const override { return "identity"; }
  size_t CompressedBytes(size_t n) const override { return n * 4; }
  Status Compress(const float* in, size_t n, Rng* rng,
                  std::vector<uint8_t>* out) const override;
  Status Decompress(const uint8_t* in, size_t bytes, size_t n,
                    float* out) const override;
  Status DecompressAdd(const uint8_t* in, size_t bytes, size_t n,
                       float* acc) const override;
};

/// \brief Convenience: round-trips `in` through the codec into `out`
/// (decode(encode(in))), returning the payload size via *payload_bytes.
Status RoundTrip(const Compressor& codec, const float* in, size_t n, Rng* rng,
                 float* out, size_t* payload_bytes = nullptr);

}  // namespace bagua

#endif  // BAGUA_COMPRESS_COMPRESSOR_H_
