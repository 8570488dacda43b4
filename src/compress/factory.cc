#include "compress/factory.h"

#include <cstdlib>

#include "compress/half.h"
#include "compress/onebit.h"
#include "compress/qsgd.h"
#include "compress/sketch.h"
#include "compress/topk.h"

namespace bagua {

Result<std::unique_ptr<Compressor>> MakeCompressor(const std::string& spec) {
  if (spec == "identity") {
    return std::unique_ptr<Compressor>(new IdentityCompressor());
  }
  if (spec == "fp16") {
    return std::unique_ptr<Compressor>(new HalfCompressor(WireDtype::kFp16));
  }
  if (spec == "bf16") {
    return std::unique_ptr<Compressor>(new HalfCompressor(WireDtype::kBf16));
  }
  if (spec == "onebit") {
    return std::unique_ptr<Compressor>(new OneBitCompressor());
  }
  if (spec == "qsgd8") {
    return std::unique_ptr<Compressor>(new QsgdCompressor(8));
  }
  if (spec == "qsgd4") {
    return std::unique_ptr<Compressor>(new QsgdCompressor(4));
  }
  if (spec == "qsgd2") {
    return std::unique_ptr<Compressor>(new QsgdCompressor(2));
  }
  if (spec.rfind("sketch:", 0) == 0) {
    const double ratio = std::strtod(spec.c_str() + 7, nullptr);
    if (ratio <= 1.0) {
      return Status::InvalidArgument("bad sketch ratio in spec: " + spec);
    }
    return std::unique_ptr<Compressor>(new CountSketchCompressor(ratio));
  }
  if (spec.rfind("topk:", 0) == 0) {
    const double fraction = std::strtod(spec.c_str() + 5, nullptr);
    if (fraction <= 0.0 || fraction > 1.0) {
      return Status::InvalidArgument("bad top-k fraction in spec: " + spec);
    }
    return std::unique_ptr<Compressor>(new TopKCompressor(fraction));
  }
  return Status::NotFound("unknown compressor spec: " + spec);
}

}  // namespace bagua
