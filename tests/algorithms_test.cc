#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "algorithms/algorithms.h"
#include "algorithms/registry.h"
#include "base/sync.h"
#include "core/runtime.h"
#include "model/data.h"
#include "model/net.h"

namespace bagua {
namespace {

constexpr int kWorld = 4;

SyntheticClassification MakeData() {
  SyntheticClassification::Options opts;
  opts.num_samples = 768;
  opts.dim = 16;
  opts.classes = 4;
  opts.seed = 33;
  return SyntheticClassification(opts);
}

struct RunResult {
  std::vector<double> losses;                 // mean loss per step
  std::vector<std::vector<float>> params;     // final params per rank
};

/// Trains `steps` on kWorld workers with per-rank algorithm/optimizer
/// factories. Returns loss trajectory and final replicas.
RunResult Train(
    const std::function<std::unique_ptr<Algorithm>(int)>& make_algo,
    const std::function<std::unique_ptr<Optimizer>(int)>& make_opt, int steps,
    BaguaOptions options = BaguaOptions(),
    ClusterTopology topo = ClusterTopology::Make(kWorld, 1)) {
  CommWorld world(topo, 555);
  auto data = MakeData();
  std::vector<std::unique_ptr<Net>> nets(kWorld);
  std::vector<std::unique_ptr<Optimizer>> opts(kWorld);
  std::vector<std::unique_ptr<Algorithm>> algos(kWorld);
  std::vector<std::unique_ptr<BaguaRuntime>> runtimes(kWorld);
  for (int r = 0; r < kWorld; ++r) {
    nets[r] = std::make_unique<Net>(Net::Mlp({16, 32, 4}));
    nets[r]->InitParams(2024);
    opts[r] = make_opt(r);
    algos[r] = make_algo(r);
    runtimes[r] = std::make_unique<BaguaRuntime>(
        &world, r, nets[r].get(), opts[r].get(), algos[r].get(), options);
  }
  std::vector<std::vector<double>> local(kWorld);
  ParallelFor(kWorld, [&](size_t r) {
    const size_t batches = data.BatchesPerEpoch(static_cast<int>(r), kWorld, 16);
    for (int s = 0; s < steps; ++s) {
      Tensor x, y;
      BAGUA_CHECK(data.GetShardBatch(static_cast<int>(r), kWorld, s / batches,
                                     s % batches, 16, &x, &y)
                      .ok());
      auto loss = runtimes[r]->TrainStepCE(x, y);
      BAGUA_CHECK(loss.ok()) << loss.status().ToString();
      local[r].push_back(*loss);
    }
    BAGUA_CHECK(runtimes[r]->Finish().ok());
  });
  RunResult result;
  for (int s = 0; s < steps; ++s) {
    double sum = 0;
    for (int r = 0; r < kWorld; ++r) sum += local[r][s];
    result.losses.push_back(sum / kWorld);
  }
  result.params.resize(kWorld);
  for (int r = 0; r < kWorld; ++r) {
    for (const Param& p : nets[r]->params()) {
      for (size_t i = 0; i < p.value->numel(); ++i) {
        result.params[r].push_back((*p.value)[i]);
      }
    }
  }
  return result;
}

double MeanTail(const std::vector<double>& v, size_t k) {
  double s = 0;
  for (size_t i = v.size() - k; i < v.size(); ++i) s += v[i];
  return s / k;
}

double ReplicaSpread(const RunResult& r) {
  double max_diff = 0;
  for (int w = 1; w < kWorld; ++w) {
    for (size_t i = 0; i < r.params[0].size(); ++i) {
      max_diff = std::max(
          max_diff,
          std::fabs(static_cast<double>(r.params[w][i]) - r.params[0][i]));
    }
  }
  return max_diff;
}

// -------------------------------------------------------- per-algorithm runs

TEST(AlgorithmsTest, QsgdConvergesLikeAllreduce) {
  auto sgd = [](int) { return std::make_unique<SgdOptimizer>(0.1); };
  auto ar = Train([](int) { return std::make_unique<AllreduceAlgorithm>(); },
                  sgd, 40);
  auto q = Train([](int) { return std::make_unique<QsgdAlgorithm>(8); }, sgd,
                 40);
  EXPECT_LT(MeanTail(ar.losses, 5), 0.75 * ar.losses.front());
  EXPECT_LT(MeanTail(q.losses, 5), 0.75 * q.losses.front());
  // 8-bit quantization tracks full precision closely on this task.
  EXPECT_NEAR(MeanTail(q.losses, 5), MeanTail(ar.losses, 5),
              0.25 * MeanTail(ar.losses, 5) + 0.05);
  EXPECT_LT(ReplicaSpread(q), 1e-4);  // replicas identical (centralized)
}

TEST(AlgorithmsTest, OneBitAdamConvergesAfterWarmup) {
  auto result = Train(
      [](int) { return std::make_unique<OneBitAdamAlgorithm>(/*warmup=*/8); },
      [](int) { return std::make_unique<AdamOptimizer>(0.01); }, 50);
  EXPECT_LT(MeanTail(result.losses, 5), 0.6 * result.losses.front());
  EXPECT_LT(ReplicaSpread(result), 1e-4);
}

TEST(AlgorithmsTest, OneBitAdamRequiresAdam) {
  auto result_status = [&]() {
    CommWorld world(ClusterTopology::Make(1, 1), 1);
    Net net = Net::Mlp({4, 2});
    net.InitParams(1);
    SgdOptimizer sgd(0.1);
    OneBitAdamAlgorithm algo(/*warmup=*/0);
    BaguaRuntime rt(&world, 0, &net, &sgd, &algo, BaguaOptions());
    Tensor x = Tensor::Zeros({2, 4}), y = Tensor::Zeros({2});
    return rt.TrainStepCE(x, y).status();
  }();
  EXPECT_EQ(result_status.code(), StatusCode::kFailedPrecondition);
}

TEST(AlgorithmsTest, DecentralizedConvergesWithSpread) {
  auto result = Train(
      [](int) {
        return std::make_unique<DecentralizedAlgorithm>(false,
                                                        PeerSelection::kRandom);
      },
      [](int) { return std::make_unique<SgdOptimizer>(0.1); }, 60);
  EXPECT_LT(MeanTail(result.losses, 5), 0.75 * result.losses.front());
  // Decentralized replicas are NOT identical, but stay within a consensus
  // band (gossip averaging keeps them together).
  EXPECT_GT(ReplicaSpread(result), 0.0);
  EXPECT_LT(ReplicaSpread(result), 0.5);
}

TEST(AlgorithmsTest, DecenLowPrecisionConverges) {
  auto result = Train(
      [](int) {
        return std::make_unique<DecentralizedAlgorithm>(true,
                                                        PeerSelection::kRing);
      },
      [](int) { return std::make_unique<SgdOptimizer>(0.05); }, 60);
  EXPECT_LT(MeanTail(result.losses, 5), 0.8 * result.losses.front());
}

TEST(AlgorithmsTest, AsyncPsConverges) {
  auto server = std::make_shared<ShardedParameterServer>(
      16 * 32 + 32 + 32 * 4 + 4, 4, kWorld);
  auto result = Train(
      [server](int) {
        return std::make_unique<AsyncPsAlgorithm>(server, /*lr=*/0.05);
      },
      [](int) { return std::make_unique<SgdOptimizer>(0.0); }, 60);
  // Async runs are nondeterministic; assert the robust property only.
  EXPECT_LT(MeanTail(result.losses, 10), 0.85 * result.losses.front());
}

TEST(AlgorithmsTest, AsyncLpConverges) {
  // Asynchronous + low-precision centralized (Table 1 row 7): compressed
  // gradients pushed to the server without any barrier.
  static const QsgdCompressor kCodec(8);
  auto server = std::make_shared<ShardedParameterServer>(
      16 * 32 + 32 + 32 * 4 + 4, 4, kWorld);
  auto result = Train(
      [server](int) {
        return std::make_unique<AsyncPsAlgorithm>(server, 0.05, &kCodec);
      },
      [](int) { return std::make_unique<SgdOptimizer>(0.0); }, 60);
  EXPECT_LT(MeanTail(result.losses, 10), 0.85 * result.losses.front());
}

TEST(AlgorithmsTest, AsyncLpTraits) {
  auto server = std::make_shared<ShardedParameterServer>(16, 2, 2);
  static const QsgdCompressor kCodec(8);
  AsyncPsAlgorithm lp(server, 0.1, &kCodec);
  EXPECT_EQ(lp.name(), "async-lp");
  EXPECT_FALSE(lp.traits().synchronous);
  EXPECT_FALSE(lp.traits().full_precision);
  AsyncPsAlgorithm fp(server, 0.1);
  EXPECT_EQ(fp.name(), "async");
  EXPECT_TRUE(fp.traits().full_precision);
}

TEST(AlgorithmsTest, AsyncDecenConverges) {
  auto result = Train(
      [](int) { return std::make_unique<AsyncDecenAlgorithm>(); },
      [](int) { return std::make_unique<SgdOptimizer>(0.05); }, 60);
  EXPECT_LT(MeanTail(result.losses, 10), 0.85 * result.losses.front());
  // Replicas drift (stale gossip) but stay within a consensus band.
  EXPECT_LT(ReplicaSpread(result), 1.0);
}

TEST(AlgorithmsTest, AsyncDecenHasNoBarrier) {
  AsyncDecenAlgorithm algo;
  EXPECT_EQ(algo.BarrierGroup(128), 1);
  EXPECT_FALSE(algo.traits().synchronous);
  EXPECT_FALSE(algo.traits().centralized);
}

TEST(AlgorithmsTest, LocalSgdConvergesAndSyncsPeriodically) {
  auto result = Train(
      [](int) { return std::make_unique<LocalSgdAlgorithm>(/*period=*/4); },
      [](int) { return std::make_unique<SgdOptimizer>(0.1); }, 48);
  EXPECT_LT(MeanTail(result.losses, 5), 0.75 * result.losses.front());
  // Step 48 is a multiple of the period: replicas were just averaged.
  EXPECT_LT(ReplicaSpread(result), 1e-4);
}

// Runs over both 16-bit codecs: "allreduce-fp16" and "allreduce-bf16" are
// one algorithm class, C_LP_S over compress/half.h.
TEST(AlgorithmsTest, Fp16AllreduceMatchesFullPrecisionClosely) {
  auto sgd = [](int) { return std::make_unique<SgdOptimizer>(0.1); };
  auto ar = Train([](int) { return std::make_unique<AllreduceAlgorithm>(); },
                  sgd, 30);
  for (WireDtype dtype : {WireDtype::kFp16, WireDtype::kBf16}) {
    SCOPED_TRACE(WireDtypeName(dtype));
    auto half = Train(
        [dtype](int) {
          return std::make_unique<HalfAllreduceAlgorithm>(dtype);
        },
        sgd, 30);
    EXPECT_NEAR(MeanTail(half.losses, 5), MeanTail(ar.losses, 5),
                0.1 * MeanTail(ar.losses, 5) + 0.02);
  }
}

TEST(AlgorithmsTest, HierarchicalExecutionConverges) {
  auto result = Train(
      [](int) { return std::make_unique<QsgdAlgorithm>(8); },
      [](int) { return std::make_unique<SgdOptimizer>(0.1); }, 40,
      BaguaOptions::Ablation(true, true, true), ClusterTopology::Make(2, 2));
  EXPECT_LT(MeanTail(result.losses, 5), 0.8 * result.losses.front());
}

// ------------------------------------------------------------------ traits

TEST(TraitsTest, MatchTable1Axes) {
  EXPECT_TRUE(AllreduceAlgorithm().traits().centralized);
  EXPECT_TRUE(AllreduceAlgorithm().traits().full_precision);
  EXPECT_FALSE(QsgdAlgorithm(8).traits().full_precision);
  EXPECT_FALSE(OneBitAdamAlgorithm().traits().full_precision);
  EXPECT_FALSE(
      DecentralizedAlgorithm(false, PeerSelection::kRandom).traits()
          .centralized);
  EXPECT_TRUE(DecentralizedAlgorithm(true, PeerSelection::kRing)
                  .traits()
                  .update_before_comm);
}

// ---------------------------------------------------------------- registry

TEST(RegistryTest, AllRegisteredNamesConstruct) {
  for (const auto& name : RegisteredAlgorithms()) {
    auto algo = MakeAlgorithm(name);
    ASSERT_TRUE(algo.ok()) << name;
    EXPECT_EQ((*algo)->name(), name);
  }
}

TEST(RegistryTest, UnknownNameRejected) {
  EXPECT_FALSE(MakeAlgorithm("sparse-magic").ok());
  EXPECT_FALSE(MakeAlgorithm("local-sgd-0").ok());
}

TEST(RegistryTest, SupportMatrixMatchesTable1) {
  const auto rows = SupportMatrix();
  ASSERT_EQ(rows.size(), 8u);
  int bagua_cells = 0, ddp_cells = 0, horovod_cells = 0, byteps_cells = 0;
  for (const auto& row : rows) {
    bagua_cells += row.bagua;
    ddp_cells += row.pytorch_ddp;
    horovod_cells += row.horovod;
    byteps_cells += row.byteps;
  }
  // Table 1: BAGUA covers 7 of 8 cells; DDP/Horovod 2; BytePS 3.
  EXPECT_EQ(bagua_cells, 7);
  EXPECT_EQ(ddp_cells, 2);
  EXPECT_EQ(horovod_cells, 2);
  EXPECT_EQ(byteps_cells, 3);
}

// ------------------------------------------------------------- cost models

TEST(CostModelTest, CompressionCheapensCommAt10Gbps) {
  const auto topo = ClusterTopology::Paper();
  const auto net = NetworkConfig::Tcp10();
  const size_t n = 138'300'000;
  AllreduceAlgorithm ar;
  QsgdAlgorithm q8(8);
  OneBitAdamAlgorithm ob;
  const double c_ar = ar.CommCost(n, topo, net, true);
  const double c_q8 = q8.CommCost(n, topo, net, true);
  const double c_ob = ob.CommCost(n, topo, net, true);
  EXPECT_LT(c_q8, c_ar);
  EXPECT_LT(c_ob, c_q8);
}

TEST(CostModelTest, DecentralizedWinsAtHighLatency) {
  const auto topo = ClusterTopology::Paper();
  NetworkConfig net = NetworkConfig::Tcp25();
  net.inter_latency_s = 5e-3;
  const size_t n = 302'000'000;
  AllreduceAlgorithm ar;
  DecentralizedAlgorithm decen(false, PeerSelection::kRandom);
  EXPECT_LT(decen.CommCost(n, topo, net, true),
            ar.CommCost(n, topo, net, true));
}

TEST(CostModelTest, LocalSgdAmortizesByPeriod) {
  const auto topo = ClusterTopology::Paper();
  const auto net = NetworkConfig::Tcp25();
  AllreduceAlgorithm ar;
  LocalSgdAlgorithm local(4);
  EXPECT_NEAR(local.CommCost(1 << 20, topo, net, true),
              ar.CommCost(1 << 20, topo, net, true) / 4.0, 1e-9);
}

TEST(CostModelTest, WireBytesOrdering) {
  const auto topo = ClusterTopology::Paper();
  const size_t n = 1 << 24;
  AllreduceAlgorithm ar;
  QsgdAlgorithm q8(8);
  OneBitAdamAlgorithm ob;
  // Flat mode: compressed algorithms put fewer bytes on the wire.
  EXPECT_LT(q8.WireBytes(n, topo, false), ar.WireBytes(n, topo, false));
  EXPECT_LT(ob.WireBytes(n, topo, false), q8.WireBytes(n, topo, false));
}

}  // namespace
}  // namespace bagua
