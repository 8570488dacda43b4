#ifndef BAGUA_COMPRESS_FACTORY_H_
#define BAGUA_COMPRESS_FACTORY_H_

#include <memory>
#include <string>

#include "compress/compressor.h"

namespace bagua {

/// \brief Creates a compressor by spec string.
///
/// Recognized specs: "identity", "fp16" / "bf16", "onebit", "qsgd8" /
/// "qsgd4" / "qsgd2", "topk:<fraction>" (e.g. "topk:0.01"),
/// "sketch:<ratio>" (e.g. "sketch:10" for 10x Count-Sketch compression).
Result<std::unique_ptr<Compressor>> MakeCompressor(const std::string& spec);

}  // namespace bagua

#endif  // BAGUA_COMPRESS_FACTORY_H_
