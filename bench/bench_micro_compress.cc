// Microbenchmarks: throughput of the compression codecs (the Q functions
// of C_LP_S / D_LP_S) on realistic gradient spans.

#include <benchmark/benchmark.h>

#include "bench_common.h"

#include "base/logging.h"
#include "base/rng.h"
#include "compress/factory.h"

namespace bagua {
namespace {

std::vector<float> MakeInput(size_t n) {
  Rng rng(42);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.Normal() * 0.01);
  return v;
}

void BM_Compress(benchmark::State& state, const std::string& spec) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto codec = std::move(MakeCompressor(spec)).value();
  const auto input = MakeInput(n);
  Rng rng(7);
  std::vector<uint8_t> payload;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        codec->Compress(input.data(), n, &rng, &payload));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * n * 4);
  state.counters["ratio"] =
      static_cast<double>(n * 4) / codec->CompressedBytes(n);
}

void BM_Decompress(benchmark::State& state, const std::string& spec) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto codec = std::move(MakeCompressor(spec)).value();
  const auto input = MakeInput(n);
  Rng rng(7);
  std::vector<uint8_t> payload;
  BAGUA_CHECK(codec->Compress(input.data(), n, &rng, &payload).ok());
  std::vector<float> out(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        codec->Decompress(payload.data(), payload.size(), n, out.data()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * n * 4);
}

// The fused decode-and-accumulate ScatterReduceExec's merge runs once per
// group member: acc += decode(payload).
void BM_DecompressAdd(benchmark::State& state, const std::string& spec) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto codec = std::move(MakeCompressor(spec)).value();
  const auto input = MakeInput(n);
  Rng rng(7);
  std::vector<uint8_t> payload;
  BAGUA_CHECK(codec->Compress(input.data(), n, &rng, &payload).ok());
  std::vector<float> acc(n, 0.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        codec->DecompressAdd(payload.data(), payload.size(), n, acc.data()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * n * 4);
}

#define CODEC_BENCH(spec_name, spec)                                    \
  BENCHMARK_CAPTURE(BM_Compress, spec_name, spec)                       \
      ->Arg(1 << 14)                                                    \
      ->Arg(1 << 18);                                                   \
  BENCHMARK_CAPTURE(BM_Decompress, spec_name, spec)->Arg(1 << 18);      \
  BENCHMARK_CAPTURE(BM_DecompressAdd, spec_name, spec)->Arg(1 << 18)

CODEC_BENCH(identity, "identity");
CODEC_BENCH(fp16, "fp16");
CODEC_BENCH(qsgd8, "qsgd8");
CODEC_BENCH(qsgd4, "qsgd4");
CODEC_BENCH(onebit, "onebit");
CODEC_BENCH(topk1pct, "topk:0.01");

// One leader partition of a 1.09M-parameter bucket on 2 nodes: the size
// the C_LP_S kernel encodes and decodes per member on the training path.
constexpr int64_t kLeaderPartition = 544772;
BENCHMARK_CAPTURE(BM_Compress, qsgd8, "qsgd8")->Arg(kLeaderPartition);
BENCHMARK_CAPTURE(BM_DecompressAdd, qsgd8, "qsgd8")->Arg(kLeaderPartition);

}  // namespace
}  // namespace bagua

// Shared flag parsing must run before benchmark::Initialize so the
// library never sees --trace-out / --trace-ranks.
int main(int argc, char** argv) {
  const bagua::BenchArgs args = bagua::ParseArgs(&argc, argv);
  if (!args.ok) return bagua::BenchArgsError(args);
  bagua::TraceSession trace_session(args);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
