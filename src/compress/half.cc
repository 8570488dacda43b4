#include "compress/half.h"

#include <cstdint>
#include <cstring>

#include "base/arena.h"
#include "base/logging.h"
#include "base/strings.h"

namespace bagua {

namespace {

/// Staging for the vectorized batch converts recycles through the
/// "compress" arena (bench/mem_gate.h holds it to zero steady-state
/// misses alongside the other codecs).
Arena& HalfArena() {
  static Arena* arena = &MemoryRegistry::Global().ArenaFor("compress");
  return *arena;
}

}  // namespace

HalfCompressor::HalfCompressor(WireDtype dtype) : dtype_(dtype) {
  BAGUA_CHECK(dtype == WireDtype::kBf16 || dtype == WireDtype::kFp16);
}

Status HalfCompressor::Compress(const float* in, size_t n, Rng* /*rng*/,
                                std::vector<uint8_t>* out) const {
  out->resize(n * 2);
  // Vector storage is operator-new aligned, so the payload can be written
  // as uint16_t directly by the vectorized kernel.
  PackWire(dtype_, in, out->data(), n);
  return Status::OK();
}

Status HalfCompressor::Decompress(const uint8_t* in, size_t bytes, size_t n,
                                  float* out) const {
  if (bytes != n * 2) {
    return Status::InvalidArgument(StrFormat(
        "%s payload %zu bytes, want %zu", name(), bytes, n * 2));
  }
  // Transport payloads are vector storage, aligned for uint16_t, and
  // widen in place. `in` may also point at an odd offset inside a framed
  // message; that payload stages through aligned arena scratch instead of
  // being reinterpreted as uint16_t where it lies.
  if (reinterpret_cast<uintptr_t>(in) % alignof(uint16_t) == 0) {
    UnpackWire(dtype_, in, out, n);
    return Status::OK();
  }
  ArenaScratch scratch(&HalfArena(), n * sizeof(uint16_t));
  std::memcpy(scratch.bytes(), in, bytes);
  UnpackWire(dtype_, scratch.bytes(), out, n);
  return Status::OK();
}

}  // namespace bagua
