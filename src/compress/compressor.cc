#include "compress/compressor.h"

#include <algorithm>
#include <cstring>

#include "base/arena.h"
#include "base/parallel.h"
#include "base/strings.h"

namespace bagua {

namespace {

/// The default DecompressAdd's decode buffer is reduction scratch, so it
/// draws from the "comm" arena like ScatterReduceExec's accumulators.
Arena& CommArena() {
  static Arena* arena = &MemoryRegistry::Global().ArenaFor("comm");
  return *arena;
}

Status CheckIdentityPayload(size_t bytes, size_t n) {
  if (bytes != n * 4) {
    return Status::InvalidArgument(
        StrFormat("identity payload %zu bytes, want %zu", bytes, n * 4));
  }
  return Status::OK();
}

}  // namespace

Status Compressor::DecompressAdd(const uint8_t* in, size_t bytes, size_t n,
                                 float* acc) const {
  ArenaScratch scratch(&CommArena(), std::max<size_t>(n, 1) * sizeof(float));
  const float* decoded = scratch.floats();
  RETURN_IF_ERROR(Decompress(in, bytes, n, scratch.floats()));
  IntraOpFor(n, kElementwiseGrain, [&](size_t begin, size_t end) {
    for (size_t k = begin; k < end; ++k) acc[k] += decoded[k];
  });
  return Status::OK();
}

Status IdentityCompressor::Compress(const float* in, size_t n, Rng* /*rng*/,
                                    std::vector<uint8_t>* out) const {
  out->resize(n * 4);
  std::memcpy(out->data(), in, n * 4);
  return Status::OK();
}

Status IdentityCompressor::Decompress(const uint8_t* in, size_t bytes,
                                      size_t n, float* out) const {
  RETURN_IF_ERROR(CheckIdentityPayload(bytes, n));
  std::memcpy(out, in, n * 4);
  return Status::OK();
}

Status IdentityCompressor::DecompressAdd(const uint8_t* in, size_t bytes,
                                         size_t n, float* acc) const {
  RETURN_IF_ERROR(CheckIdentityPayload(bytes, n));
  // The payload may sit at any byte offset, so its floats are loaded
  // through memcpy.
  IntraOpFor(n, kElementwiseGrain, [&](size_t begin, size_t end) {
    const uint8_t* __restrict__ src = in + begin * 4;
    float* __restrict__ dst = acc + begin;
    for (size_t k = 0; k < end - begin; ++k) {
      float x;
      std::memcpy(&x, src + k * 4, sizeof(x));
      dst[k] += x;
    }
  });
  return Status::OK();
}

Status RoundTrip(const Compressor& codec, const float* in, size_t n, Rng* rng,
                 float* out, size_t* payload_bytes) {
  std::vector<uint8_t> payload;
  RETURN_IF_ERROR(codec.Compress(in, n, rng, &payload));
  if (payload_bytes != nullptr) *payload_bytes = payload.size();
  return codec.Decompress(payload.data(), payload.size(), n, out);
}

}  // namespace bagua
