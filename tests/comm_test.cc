#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "base/sync.h"
#include "collectives/collectives.h"
#include "collectives/hierarchy.h"
#include "comm/context.h"
#include "comm/primitives.h"
#include "compress/half.h"
#include "compress/onebit.h"
#include "compress/qsgd.h"
#include "tensor/ops.h"
#include "trace/trace.h"

namespace bagua {
namespace {

struct Cluster {
  explicit Cluster(ClusterTopology topo, bool hierarchical = false,
                   uint64_t seed = 42)
      : world(topo, seed), hierarchical(hierarchical) {}

  CommWorld world;
  bool hierarchical;

  CommContext Ctx(int rank, uint64_t step = 0) {
    CommContext ctx;
    ctx.world = &world;
    ctx.rank = rank;
    ctx.space = 0;
    ctx.step = step;
    ctx.hierarchical = hierarchical;
    return ctx;
  }
};

std::vector<std::vector<float>> MakeData(int world, size_t n,
                                         uint64_t seed = 1) {
  std::vector<std::vector<float>> data(world, std::vector<float>(n));
  Rng rng(seed);
  for (auto& v : data) {
    for (auto& x : v) x = static_cast<float>(rng.Normal());
  }
  return data;
}

std::vector<float> SumOf(const std::vector<std::vector<float>>& data) {
  std::vector<float> sum(data[0].size(), 0.0f);
  for (const auto& v : data) {
    for (size_t i = 0; i < v.size(); ++i) sum[i] += v[i];
  }
  return sum;
}

// ------------------------------------------------------------------ C_FP_S

class CFpSTest : public ::testing::TestWithParam<std::tuple<int, int, bool>> {
};

TEST_P(CFpSTest, ComputesGlobalSum) {
  const auto [nodes, devices, hier] = GetParam();
  const auto topo = ClusterTopology::Make(nodes, devices);
  const int world = topo.world_size();
  const size_t n = 41;
  Cluster cluster(topo, hier);
  auto data = MakeData(world, n);
  const auto expected = SumOf(data);
  std::vector<Status> st(world);
  ParallelFor(world, [&](size_t r) {
    auto ctx = cluster.Ctx(static_cast<int>(r));
    st[r] = CFpS(&ctx, data[r].data(), n);
  });
  for (int r = 0; r < world; ++r) {
    ASSERT_TRUE(st[r].ok()) << st[r].ToString();
    for (size_t i = 0; i < n; ++i) {
      ASSERT_NEAR(data[r][i], expected[i], 1e-4) << "rank " << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, CFpSTest,
    ::testing::Values(std::make_tuple(1, 1, false), std::make_tuple(4, 1, false),
                      std::make_tuple(2, 4, false), std::make_tuple(2, 4, true),
                      std::make_tuple(4, 2, true),
                      std::make_tuple(3, 3, true)));

// ------------------------------------------------------------------ C_LP_S

TEST(CLpSTest, IdentityCodecMatchesCFpS) {
  const auto topo = ClusterTopology::Make(2, 2);
  Cluster cluster(topo);
  const size_t n = 33;
  auto data = MakeData(4, n);
  const auto expected = SumOf(data);
  IdentityCompressor codec;
  std::vector<Status> st(4);
  ParallelFor(4, [&](size_t r) {
    auto ctx = cluster.Ctx(static_cast<int>(r));
    st[r] = CLpS(&ctx, codec, data[r].data(), n, nullptr);
  });
  for (int r = 0; r < 4; ++r) {
    ASSERT_TRUE(st[r].ok());
    for (size_t i = 0; i < n; ++i) ASSERT_NEAR(data[r][i], expected[i], 1e-4);
  }
}

TEST(CLpSTest, AllRanksAgreeOnOutput) {
  // Whatever the codec does, the primitive must leave identical values on
  // every rank (they all decode the same merged payloads).
  const auto topo = ClusterTopology::Make(4, 1);
  Cluster cluster(topo);
  const size_t n = 100;
  auto data = MakeData(4, n);
  QsgdCompressor codec(8, 32);
  std::vector<Status> st(4);
  ParallelFor(4, [&](size_t r) {
    auto ctx = cluster.Ctx(static_cast<int>(r));
    st[r] = CLpS(&ctx, codec, data[r].data(), n, nullptr);
  });
  for (int r = 0; r < 4; ++r) ASSERT_TRUE(st[r].ok());
  for (int r = 1; r < 4; ++r) {
    for (size_t i = 0; i < n; ++i) ASSERT_EQ(data[r][i], data[0][i]);
  }
}

TEST(CLpSTest, QsgdApproximatesSum) {
  const auto topo = ClusterTopology::Make(8, 1);
  Cluster cluster(topo);
  const size_t n = 256;
  auto data = MakeData(8, n);
  const auto expected = SumOf(data);
  QsgdCompressor codec(8, 64);
  std::vector<Status> st(8);
  ParallelFor(8, [&](size_t r) {
    auto ctx = cluster.Ctx(static_cast<int>(r));
    st[r] = CLpS(&ctx, codec, data[r].data(), n, nullptr);
  });
  for (int r = 0; r < 8; ++r) ASSERT_TRUE(st[r].ok());
  // 8-bit quantization of ~N(0,1) entries: error per entry bounded by a few
  // quantization steps of the summed scale.
  double err = 0, norm = 0;
  for (size_t i = 0; i < n; ++i) {
    err += std::pow(data[0][i] - expected[i], 2);
    norm += std::pow(expected[i], 2);
  }
  EXPECT_LT(std::sqrt(err / norm), 0.05);
}

TEST(CLpSTest, ErrorCompensationSemantics) {
  // One rank, aggressive codec: check the exact §3.2 state updates.
  const auto topo = ClusterTopology::Make(1, 1);
  Cluster cluster(topo);
  const size_t n = 16;
  std::vector<float> x(n);
  for (size_t i = 0; i < n; ++i) x[i] = 0.1f * static_cast<float>(i) - 0.5f;
  const std::vector<float> orig = x;
  OneBitCompressor codec(n);
  auto ctx = cluster.Ctx(0);
  auto state = InitClpsState(ctx, n);
  ASSERT_TRUE(state.ok());
  ASSERT_TRUE(CLpS(&ctx, codec, x.data(), n, &state.value()).ok());
  // δ' = (x − 0) − Q(x); with the server side: S = Q(x),
  // out = Q(S − 0), x' = decode(out), ε' = S − out.
  std::vector<float> qx(n);
  size_t bytes = 0;
  ASSERT_TRUE(RoundTrip(codec, orig.data(), n, nullptr, qx.data(), &bytes).ok());
  for (size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(state->worker_err[i], orig[i] - qx[i], 1e-6) << i;
  }
  std::vector<float> qqx(n);
  ASSERT_TRUE(RoundTrip(codec, qx.data(), n, nullptr, qqx.data(), nullptr).ok());
  for (size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(x[i], qqx[i], 1e-6);
    EXPECT_NEAR(state->server_err[i], qx[i] - qqx[i], 1e-6);
  }
}

TEST(CLpSTest, ErrorCompensationRecoversSignalOverSteps) {
  // Property (error-feedback): with 1-bit compression, the *accumulated*
  // output over many steps of a constant input tracks the true sum — the
  // residuals δ/ε prevent systematic loss. Without compensation, the bias
  // persists forever.
  const auto topo = ClusterTopology::Make(4, 1);
  const size_t n = 32;
  OneBitCompressor codec(n);
  std::vector<float> input(n);
  Rng rng(3);
  for (auto& v : input) v = static_cast<float>(rng.Normal() * 0.1);

  auto run = [&](bool compensated) {
    Cluster cluster(topo);
    std::vector<ClpsState> states(4);
    std::vector<double> acc(n, 0.0);
    if (compensated) {
      for (int r = 0; r < 4; ++r) {
        auto ctx = cluster.Ctx(r);
        states[r] = std::move(InitClpsState(ctx, n).value());
      }
    }
    const int kSteps = 60;
    for (int s = 0; s < kSteps; ++s) {
      std::vector<std::vector<float>> data(4, input);
      ParallelFor(4, [&](size_t r) {
        auto ctx = cluster.Ctx(static_cast<int>(r), s);
        ctx.space = 100 * s;
        BAGUA_CHECK(CLpS(&ctx, codec, data[r].data(), n,
                         compensated ? &states[r] : nullptr)
                        .ok());
      });
      for (size_t i = 0; i < n; ++i) acc[i] += data[0][i];
    }
    double err = 0;
    for (size_t i = 0; i < n; ++i) {
      err += std::pow(acc[i] / kSteps - 4.0 * input[i], 2);
    }
    return std::sqrt(err / n);
  };

  const double with_ec = run(true);
  const double without_ec = run(false);
  EXPECT_LT(with_ec, 0.02);
  EXPECT_GT(without_ec, 4 * with_ec);
}

TEST(CLpSTest, HierarchicalQsgdApproximatesSum) {
  const auto topo = ClusterTopology::Make(2, 4);
  Cluster cluster(topo, /*hierarchical=*/true);
  const size_t n = 128;
  auto data = MakeData(8, n);
  const auto expected = SumOf(data);
  QsgdCompressor codec(8, 64);
  std::vector<Status> st(8);
  ParallelFor(8, [&](size_t r) {
    auto ctx = cluster.Ctx(static_cast<int>(r));
    st[r] = CLpS(&ctx, codec, data[r].data(), n, nullptr);
  });
  for (int r = 0; r < 8; ++r) ASSERT_TRUE(st[r].ok());
  double err = 0, norm = 0;
  for (size_t i = 0; i < n; ++i) {
    err += std::pow(data[3][i] - expected[i], 2);
    norm += std::pow(expected[i], 2);
  }
  EXPECT_LT(std::sqrt(err / norm), 0.05);
  // All ranks agree.
  for (int r = 1; r < 8; ++r) {
    for (size_t i = 0; i < n; ++i) ASSERT_EQ(data[r][i], data[0][i]);
  }
}

TEST(CLpSTest, HierarchicalSmallBucketsRouteIntraNodeThroughTree) {
  // Hierarchical C_LP_S dispatches its intra-node phases through the same
  // topology-aware selection C_FP_S uses: a 512-byte bucket sits under the
  // tree threshold, so the intra-node aggregate runs as a binomial gather
  // tree and the closing broadcast as a binomial tree (> 2 devices).
  const auto topo = ClusterTopology::Make(2, 4);
  Cluster cluster(topo, /*hierarchical=*/true);
  const size_t n = 128;
  ASSERT_LE(n * sizeof(float), TreeAllreduceThresholdBytes());
  auto data = MakeData(8, n);
  QsgdCompressor codec(8, 64);
  Tracer tracer(8);
  InstallGlobalTracer(&tracer);
  std::vector<Status> st(8);
  ParallelFor(8, [&](size_t r) {
    auto ctx = cluster.Ctx(static_cast<int>(r));
    st[r] = CLpS(&ctx, codec, data[r].data(), n, nullptr);
  });
  UninstallGlobalTracer();
  for (int r = 0; r < 8; ++r) ASSERT_TRUE(st[r].ok());
  EXPECT_GT(tracer.CountSpans("tree.reduce"), 0u);
  EXPECT_GT(tracer.CountSpans("tree.bcast"), 0u);
  // The relaxed routing never breaks the replica-consistency contract.
  for (int r = 1; r < 8; ++r) {
    for (size_t i = 0; i < n; ++i) ASSERT_EQ(data[r][i], data[0][i]);
  }
}

TEST(CLpSTest, InitStateSizes) {
  const auto topo = ClusterTopology::Make(2, 4);
  CommWorld world(topo, 1);
  CommContext flat{&world, /*rank=*/3, 0, 0, false};
  auto s1 = InitClpsState(flat, 100);
  ASSERT_TRUE(s1.ok());
  EXPECT_EQ(s1->worker_err.numel(), 100u);
  EXPECT_EQ(s1->server_err.numel(), ChunkOf(100, 8, 3).count);

  CommContext hier_leader{&world, /*rank=*/4, 0, 0, true};
  auto s2 = InitClpsState(hier_leader, 100);
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(s2->worker_err.numel(), 100u);
  EXPECT_EQ(s2->server_err.numel(), ChunkOf(100, 2, 1).count);

  CommContext hier_follower{&world, /*rank=*/5, 0, 0, true};
  auto s3 = InitClpsState(hier_follower, 100);
  ASSERT_TRUE(s3.ok());
  EXPECT_FALSE(s3->worker_err.defined());
}

// ------------------------------------------------------------------ D_FP_S

TEST(DFpSTest, RingAveragesWithNeighbors) {
  const auto topo = ClusterTopology::Make(4, 1);
  Cluster cluster(topo);
  const size_t n = 8;
  std::vector<std::vector<float>> data(4, std::vector<float>(n));
  for (int r = 0; r < 4; ++r) {
    for (size_t i = 0; i < n; ++i) data[r][i] = static_cast<float>(r);
  }
  std::vector<Status> st(4);
  ParallelFor(4, [&](size_t r) {
    auto ctx = cluster.Ctx(static_cast<int>(r));
    st[r] = DFpS(&ctx, PeerSelection::kRing, data[r].data(), n);
  });
  for (int r = 0; r < 4; ++r) ASSERT_TRUE(st[r].ok());
  // rank 0 neighbors: 3, 1 -> mean(0,3,1) = 4/3.
  EXPECT_NEAR(data[0][0], 4.0f / 3, 1e-6);
  // rank 2 neighbors: 1, 3 -> mean(2,1,3) = 2.
  EXPECT_NEAR(data[2][0], 2.0f, 1e-6);
}

TEST(DFpSTest, TwoRanksDegenerateRing) {
  const auto topo = ClusterTopology::Make(2, 1);
  Cluster cluster(topo);
  std::vector<std::vector<float>> data{{1.0f}, {3.0f}};
  std::vector<Status> st(2);
  ParallelFor(2, [&](size_t r) {
    auto ctx = cluster.Ctx(static_cast<int>(r));
    st[r] = DFpS(&ctx, PeerSelection::kRing, data[r].data(), 1);
  });
  for (int r = 0; r < 2; ++r) ASSERT_TRUE(st[r].ok());
  EXPECT_FLOAT_EQ(data[0][0], 2.0f);
  EXPECT_FLOAT_EQ(data[1][0], 2.0f);
}

TEST(DFpSTest, RandomPairingAveragesPairs) {
  const auto topo = ClusterTopology::Make(8, 1);
  Cluster cluster(topo);
  const size_t n = 4;
  std::vector<std::vector<float>> data(8, std::vector<float>(n));
  for (int r = 0; r < 8; ++r) data[r].assign(n, static_cast<float>(r));
  std::vector<Status> st(8);
  ParallelFor(8, [&](size_t r) {
    auto ctx = cluster.Ctx(static_cast<int>(r), /*step=*/7);
    st[r] = DFpS(&ctx, PeerSelection::kRandom, data[r].data(), n);
  });
  for (int r = 0; r < 8; ++r) ASSERT_TRUE(st[r].ok());
  // Global average preserved (pairwise averaging is doubly stochastic).
  double total = 0;
  for (int r = 0; r < 8; ++r) total += data[r][0];
  EXPECT_NEAR(total, 0 + 1 + 2 + 3 + 4 + 5 + 6 + 7, 1e-4);
  // Paired ranks hold identical values; every rank paired with exactly one.
  int matched = 0;
  for (int r = 0; r < 8; ++r) {
    for (int q = r + 1; q < 8; ++q) {
      if (data[r][0] == data[q][0] &&
          std::fabs(data[r][0] - (r + q) / 2.0f) < 1e-5) {
        ++matched;
      }
    }
  }
  EXPECT_EQ(matched, 4);
}

TEST(DFpSTest, GossipConvergesToConsensus) {
  // Property: repeated decentralized averaging drives all replicas to the
  // global mean — the foundation of decentralized SGD's correctness.
  const auto topo = ClusterTopology::Make(8, 1);
  Cluster cluster(topo);
  const size_t n = 4;
  auto data = MakeData(8, n, /*seed=*/5);
  double mean0 = 0;
  for (int r = 0; r < 8; ++r) mean0 += data[r][0];
  mean0 /= 8;
  for (int step = 0; step < 40; ++step) {
    std::vector<Status> st(8);
    ParallelFor(8, [&](size_t r) {
      auto ctx = cluster.Ctx(static_cast<int>(r), step);
      ctx.space = 10 * step;
      st[r] = DFpS(&ctx, PeerSelection::kRing, data[r].data(), n);
    });
    for (int r = 0; r < 8; ++r) ASSERT_TRUE(st[r].ok());
  }
  for (int r = 0; r < 8; ++r) EXPECT_NEAR(data[r][0], mean0, 1e-3);
}

TEST(DFpSTest, HierarchicalAveragesNodesThenLeaders) {
  const auto topo = ClusterTopology::Make(2, 2);
  Cluster cluster(topo, /*hierarchical=*/true);
  const size_t n = 4;
  std::vector<std::vector<float>> data(4, std::vector<float>(n));
  data[0].assign(n, 0.0f);
  data[1].assign(n, 2.0f);  // node 0 avg = 1
  data[2].assign(n, 4.0f);
  data[3].assign(n, 6.0f);  // node 1 avg = 5
  std::vector<Status> st(4);
  ParallelFor(4, [&](size_t r) {
    auto ctx = cluster.Ctx(static_cast<int>(r));
    st[r] = DFpS(&ctx, PeerSelection::kRing, data[r].data(), n);
  });
  for (int r = 0; r < 4; ++r) ASSERT_TRUE(st[r].ok());
  // Two leaders exchange and average: (1+5)/2 = 3 everywhere.
  for (int r = 0; r < 4; ++r) EXPECT_FLOAT_EQ(data[r][0], 3.0f);
}

// ------------------------------------------------------------------ D_LP_S

TEST(DLpSTest, CompressedGossipApproximatesAverage) {
  const auto topo = ClusterTopology::Make(4, 1);
  Cluster cluster(topo);
  const size_t n = 64;
  std::vector<std::vector<float>> data(4, std::vector<float>(n));
  for (int r = 0; r < 4; ++r) data[r].assign(n, static_cast<float>(r));
  QsgdCompressor codec(8, 64);
  std::vector<Status> st(4);
  ParallelFor(4, [&](size_t r) {
    auto ctx = cluster.Ctx(static_cast<int>(r));
    st[r] = DLpS(&ctx, codec, PeerSelection::kRing, data[r].data(), n);
  });
  for (int r = 0; r < 4; ++r) ASSERT_TRUE(st[r].ok());
  EXPECT_NEAR(data[2][0], 2.0f, 0.05);
}

TEST(DLpSTest, Fp16NearlyMatchesFullPrecision) {
  const auto topo = ClusterTopology::Make(4, 1);
  const size_t n = 32;
  auto run = [&](const Compressor* codec) {
    Cluster cluster(topo);
    auto data = MakeData(4, n, 9);
    std::vector<Status> st(4);
    ParallelFor(4, [&](size_t r) {
      auto ctx = cluster.Ctx(static_cast<int>(r));
      st[r] = codec
                  ? DLpS(&ctx, *codec, PeerSelection::kRing, data[r].data(), n)
                  : DFpS(&ctx, PeerSelection::kRing, data[r].data(), n);
    });
    for (int r = 0; r < 4; ++r) BAGUA_CHECK(st[r].ok());
    return data;
  };
  HalfCompressor fp16(WireDtype::kFp16);
  auto full = run(nullptr);
  auto half = run(&fp16);
  for (int r = 0; r < 4; ++r) {
    for (size_t i = 0; i < n; ++i) EXPECT_NEAR(half[r][i], full[r][i], 5e-3);
  }
}

// ----------------------------------------------------------- cost estimates

TEST(CostEstimateTest, CompressionReducesClpsCost) {
  const auto topo = ClusterTopology::Paper();
  const auto net = NetworkConfig::Tcp10();
  const size_t numel = 138'300'000;  // VGG16
  IdentityCompressor fp32;
  QsgdCompressor q8(8);
  const double full = EstimateCLpSCost(topo, net, fp32, numel, true);
  const double q = EstimateCLpSCost(topo, net, q8, numel, true);
  EXPECT_LT(q, 0.5 * full);
}

TEST(CostEstimateTest, HierarchicalHelpsClpsOnMultiGpuNodes) {
  const auto topo = ClusterTopology::Paper();
  const auto net = NetworkConfig::Tcp10();
  QsgdCompressor q8(8);
  const size_t numel = 138'300'000;
  const double flat = EstimateCLpSCost(topo, net, q8, numel, false);
  const double hier = EstimateCLpSCost(topo, net, q8, numel, true);
  EXPECT_LT(hier, flat / 2);
}

TEST(CostEstimateTest, DecenCheaperThanCentralizedAtHighLatency) {
  const auto topo = ClusterTopology::Paper();
  NetworkConfig net = NetworkConfig::Tcp25();
  net.inter_latency_s = 5e-3;
  const double bytes = 302e6;
  const double decen = EstimateDecenCost(topo, net, PeerSelection::kRandom,
                                         bytes, bytes, true);
  const double central = EstimateCFpSCost(topo, net, bytes, true);
  EXPECT_LT(decen, central);
}

}  // namespace
}  // namespace bagua
