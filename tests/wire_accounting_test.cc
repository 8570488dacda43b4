// Cross-validation of the timing model against the real data path: the
// bytes each algorithm's WireBytes() predicts per iteration must match
// what the transport actually carried during a real training run. This
// pins the cost model (which generates every table/figure) to the
// executable truth.

#include <gtest/gtest.h>

#include <memory>

#include "algorithms/algorithms.h"
#include "algorithms/registry.h"
#include "base/sync.h"
#include "core/runtime.h"
#include "model/data.h"
#include "model/net.h"

namespace bagua {
namespace {

struct Measured {
  double actual_bytes_per_iter_per_worker;
  double predicted;
};

Measured MeasureWire(const std::string& algorithm, bool hierarchical,
                     ClusterTopology topo) {
  const int world = topo.world_size();
  CommWorld comm_world(topo, 77);
  SyntheticClassification::Options data_opts;
  data_opts.num_samples = 1024;
  data_opts.dim = 16;
  data_opts.classes = 4;
  SyntheticClassification data(data_opts);

  struct Worker {
    std::unique_ptr<Net> net;
    std::unique_ptr<SgdOptimizer> opt;
    std::unique_ptr<Algorithm> algo;
    std::unique_ptr<BaguaRuntime> runtime;
  };
  std::vector<Worker> workers(world);
  BaguaOptions options;
  options.hierarchical = hierarchical;
  for (int r = 0; r < world; ++r) {
    workers[r].net = std::make_unique<Net>(Net::Mlp({16, 64, 4}));
    workers[r].net->InitParams(9);
    workers[r].opt = std::make_unique<SgdOptimizer>(0.05);
    workers[r].algo = std::move(MakeAlgorithm(algorithm)).value();
    workers[r].runtime = std::make_unique<BaguaRuntime>(
        &comm_world, r, workers[r].net.get(), workers[r].opt.get(),
        workers[r].algo.get(), options);
  }
  // Warm up one step (profiling phase), then measure across kSteps.
  constexpr int kWarm = 1, kSteps = 8;
  Barrier barrier(world);
  std::atomic<uint64_t> baseline_bytes{0};
  ParallelFor(world, [&](size_t r) {
    for (int s = 0; s < kWarm + kSteps; ++s) {
      if (s == kWarm) {
        if (barrier.Wait()) {
          baseline_bytes = comm_world.group()->TotalBytesSent();
        }
        barrier.Wait();
      }
      Tensor x, y;
      BAGUA_CHECK(data.GetShardBatch(static_cast<int>(r), world, 0, s % 8, 8,
                                     &x, &y)
                      .ok());
      BAGUA_CHECK(workers[r].runtime->TrainStepCE(x, y).ok());
    }
  });
  const uint64_t total =
      comm_world.group()->TotalBytesSent() - baseline_bytes.load();
  Measured m;
  m.actual_bytes_per_iter_per_worker =
      static_cast<double>(total) / kSteps / world;
  m.predicted = workers[0].algo->WireBytes(workers[0].net->NumParams(), topo,
                                           hierarchical);
  return m;
}

// std::string, not const char*: gtest prints a char pointer's address, which
// would put a per-process value into the ctest name of every case.
class WireAccountingTest
    : public ::testing::TestWithParam<std::tuple<std::string, bool>> {};

TEST_P(WireAccountingTest, PredictionMatchesDataPath) {
  const auto [algorithm, hierarchical] = GetParam();
  const auto topo = hierarchical ? ClusterTopology::Make(2, 2)
                                 : ClusterTopology::Make(4, 1);
  const Measured m = MeasureWire(algorithm, hierarchical, topo);
  ASSERT_GT(m.actual_bytes_per_iter_per_worker, 0.0);
  // The model predicts asymptotic per-worker volume; the data path adds
  // codec headers (scales) and chunk rounding. Agreement within 40% keeps
  // the cost model honest while tolerating those constants.
  const double ratio = m.actual_bytes_per_iter_per_worker / m.predicted;
  EXPECT_GT(ratio, 0.55) << algorithm << " actual="
                         << m.actual_bytes_per_iter_per_worker
                         << " predicted=" << m.predicted;
  EXPECT_LT(ratio, 1.45) << algorithm << " actual="
                         << m.actual_bytes_per_iter_per_worker
                         << " predicted=" << m.predicted;
}

INSTANTIATE_TEST_SUITE_P(
    FlatAlgorithms, WireAccountingTest,
    ::testing::Combine(::testing::Values("allreduce", "qsgd8",
                                         "allreduce-fp16", "decen-32bits",
                                         "decen-8bits", "allreduce-bf16"),
                       ::testing::Values(false)));

INSTANTIATE_TEST_SUITE_P(
    HierAlgorithms, WireAccountingTest,
    ::testing::Combine(::testing::Values("allreduce", "qsgd8",
                                         "allreduce-fp16", "allreduce-bf16"),
                       ::testing::Values(true)));

TEST(WireAccountingTest, CompressionActuallyReducesTraffic) {
  const auto topo = ClusterTopology::Make(4, 1);
  const Measured full = MeasureWire("allreduce", false, topo);
  const Measured q8 = MeasureWire("qsgd8", false, topo);
  const Measured decen = MeasureWire("decen-32bits", false, topo);
  // QSGD-8 moves ~4x fewer bytes than full precision.
  EXPECT_LT(q8.actual_bytes_per_iter_per_worker,
            0.4 * full.actual_bytes_per_iter_per_worker);
  // Random-peer decentralized moves ~half of allreduce's 2x volume.
  EXPECT_LT(decen.actual_bytes_per_iter_per_worker,
            0.75 * full.actual_bytes_per_iter_per_worker);
}

}  // namespace
}  // namespace bagua
