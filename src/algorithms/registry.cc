#include "algorithms/registry.h"

#include <cstdlib>

#include "algorithms/algorithms.h"

namespace bagua {

Result<std::unique_ptr<Algorithm>> MakeAlgorithm(const std::string& name) {
  if (name == "allreduce") {
    return std::unique_ptr<Algorithm>(new AllreduceAlgorithm());
  }
  if (name == "qsgd8") {
    return std::unique_ptr<Algorithm>(new QsgdAlgorithm(8));
  }
  if (name == "qsgd4") {
    return std::unique_ptr<Algorithm>(new QsgdAlgorithm(4));
  }
  if (name == "1bit-adam") {
    return std::unique_ptr<Algorithm>(new OneBitAdamAlgorithm());
  }
  if (name == "decen-32bits") {
    return std::unique_ptr<Algorithm>(
        new DecentralizedAlgorithm(false, PeerSelection::kRandom));
  }
  if (name == "decen-8bits") {
    return std::unique_ptr<Algorithm>(
        new DecentralizedAlgorithm(true, PeerSelection::kRing));
  }
  if (name == "allreduce-fp16") {
    return std::unique_ptr<Algorithm>(
        new HalfAllreduceAlgorithm(WireDtype::kFp16));
  }
  if (name == "allreduce-bf16") {
    return std::unique_ptr<Algorithm>(
        new HalfAllreduceAlgorithm(WireDtype::kBf16));
  }
  if (name == "async-decen") {
    return std::unique_ptr<Algorithm>(new AsyncDecenAlgorithm());
  }
  if (name.rfind("local-sgd-", 0) == 0) {
    const long period = std::strtol(name.c_str() + 10, nullptr, 10);
    if (period <= 0) {
      return Status::InvalidArgument("bad LocalSGD period in: " + name);
    }
    return std::unique_ptr<Algorithm>(
        new LocalSgdAlgorithm(static_cast<uint64_t>(period)));
  }
  return Status::NotFound("unknown algorithm: " + name);
}

std::vector<std::string> RegisteredAlgorithms() {
  return {"allreduce",      "qsgd8",        "qsgd4",
          "1bit-adam",      "decen-32bits", "decen-8bits",
          "allreduce-fp16", "allreduce-bf16", "local-sgd-4",
          "async-decen"};
}

std::vector<CoverageRow> SupportMatrix() {
  // Columns follow Table 1. PyTorch-DDP and Horovod support centralized
  // synchronous training (full precision, and low precision via NCCL fp16);
  // BytePS adds asynchronous centralized full precision; only BAGUA covers
  // the decentralized and the remaining low-precision cells.
  return {
      // sync, full, centralized
      {{true, true, true, false}, true, true, true, true, "allreduce"},
      // sync, full, decentralized
      {{true, true, false, true}, false, false, false, true, "decen-32bits"},
      // sync, low, centralized
      {{true, false, true, false}, true, true, true, true, "qsgd8/1bit-adam"},
      // sync, low, decentralized
      {{true, false, false, true}, false, false, false, true, "decen-8bits"},
      // async, full, centralized
      {{false, true, true, false}, false, false, true, true, "async"},
      // async, full, decentralized
      {{false, true, false, false}, false, false, false, true, "async-decen"},
      // async, low, centralized
      {{false, false, true, false}, false, false, false, true, "async-lp"},
      // async, low, decentralized — open cell in Table 1.
      {{false, false, false, false}, false, false, false, false, "-"},
  };
}

}  // namespace bagua
