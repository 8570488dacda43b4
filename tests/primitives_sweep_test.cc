// Property sweeps over the communication primitives: for every codec and
// cluster shape, C_LP_S must (a) leave identical outputs on every rank and
// (b) approximate the true sum within the codec's error envelope; D_FP_S
// must preserve the global average under any peer strategy.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "base/sync.h"
#include "comm/primitives.h"
#include "compress/factory.h"
#include "tensor/ops.h"

namespace bagua {
namespace {

struct Shape {
  int nodes;
  int devices;
  bool hierarchical;
};

std::ostream& operator<<(std::ostream& os, const Shape& s) {
  return os << s.nodes << "x" << s.devices << (s.hierarchical ? "H" : "F");
}

// std::string, not const char*: gtest prints a char pointer's address, which
// would put a per-process value into the ctest name of every case.
class ClpsSweepTest
    : public ::testing::TestWithParam<std::tuple<std::string, Shape>> {};

TEST_P(ClpsSweepTest, AllRanksAgreeAndApproximateSum) {
  const auto [codec_spec, shape] = GetParam();
  const auto topo = ClusterTopology::Make(shape.nodes, shape.devices);
  const int world = topo.world_size();
  const size_t n = 203;  // awkward size: uneven chunks everywhere
  auto codec = std::move(MakeCompressor(codec_spec)).value();

  CommWorld comm_world(topo, 1234);
  std::vector<std::vector<float>> data(world, std::vector<float>(n));
  Rng rng(99);
  std::vector<float> expected(n, 0.0f);
  for (int r = 0; r < world; ++r) {
    for (size_t i = 0; i < n; ++i) {
      data[r][i] = static_cast<float>(rng.Normal());
      expected[i] += data[r][i];
    }
  }
  std::vector<Status> st(world);
  ParallelFor(world, [&](size_t r) {
    CommContext ctx{&comm_world, static_cast<int>(r), 0, 0,
                    shape.hierarchical};
    st[r] = CLpS(&ctx, *codec, data[r].data(), n, nullptr);
  });
  for (int r = 0; r < world; ++r) ASSERT_TRUE(st[r].ok()) << st[r].ToString();

  // (a) exact agreement across ranks.
  for (int r = 1; r < world; ++r) {
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(data[r][i], data[0][i])
          << codec_spec << " " << shape << " rank " << r;
    }
  }
  // (b) error envelope: identity/fp16 are near-exact; quantizers within a
  // relative L2 bound.
  double err = 0, norm = 0;
  for (size_t i = 0; i < n; ++i) {
    err += std::pow(data[0][i] - expected[i], 2);
    norm += std::pow(expected[i], 2);
  }
  const double rel = std::sqrt(err / std::max(norm, 1e-12));
  if (codec_spec == "identity") {
    EXPECT_LT(rel, 1e-5) << shape;
  } else if (codec_spec == "fp16") {
    EXPECT_LT(rel, 1e-2) << shape;
  } else {
    EXPECT_LT(rel, 0.35) << codec_spec << " " << shape;  // qsgd8/qsgd4
  }
}

INSTANTIATE_TEST_SUITE_P(
    CodecsAndShapes, ClpsSweepTest,
    ::testing::Combine(
        ::testing::Values("identity", "fp16", "qsgd8", "qsgd4"),
        ::testing::Values(Shape{4, 1, false}, Shape{7, 1, false},
                          Shape{2, 3, true}, Shape{3, 2, true})));

class DecenSweepTest
    : public ::testing::TestWithParam<std::tuple<PeerSelection, Shape>> {};

TEST_P(DecenSweepTest, GlobalAveragePreserved) {
  const auto [peers, shape] = GetParam();
  const auto topo = ClusterTopology::Make(shape.nodes, shape.devices);
  const int world = topo.world_size();
  const size_t n = 32;
  CommWorld comm_world(topo, 555);
  std::vector<std::vector<float>> data(world, std::vector<float>(n));
  double mean0 = 0.0;
  for (int r = 0; r < world; ++r) {
    data[r].assign(n, static_cast<float>(r * r));  // distinct values
    mean0 += r * r;
  }
  mean0 /= world;

  // Averaging steps are doubly stochastic only for symmetric exchanges —
  // ring and random pairing both are; hierarchical adds exact intra means.
  for (int step = 0; step < 10; ++step) {
    std::vector<Status> st(world);
    ParallelFor(world, [&](size_t r) {
      CommContext ctx{&comm_world, static_cast<int>(r),
                      static_cast<uint32_t>(step) * 16,
                      static_cast<uint64_t>(step), shape.hierarchical};
      st[r] = DFpS(&ctx, peers, data[r].data(), n);
    });
    for (int r = 0; r < world; ++r) ASSERT_TRUE(st[r].ok());
  }
  double mean_after = 0.0;
  for (int r = 0; r < world; ++r) mean_after += data[r][0];
  mean_after /= world;
  EXPECT_NEAR(mean_after, mean0, 1e-2 * std::max(1.0, mean0))
      << shape << " peers=" << (peers == PeerSelection::kRing ? "ring" : "rand");
  // And replicas have contracted toward consensus.
  double spread = 0.0;
  for (int r = 0; r < world; ++r) {
    spread = std::max(spread, std::fabs(data[r][0] - mean0));
  }
  double spread0 = 0.0;
  for (int r = 0; r < world; ++r) {
    spread0 = std::max(spread0, std::fabs(r * r - mean0));
  }
  EXPECT_LT(spread, 0.5 * spread0) << shape;
}

INSTANTIATE_TEST_SUITE_P(
    PeersAndShapes, DecenSweepTest,
    ::testing::Combine(::testing::Values(PeerSelection::kRing,
                                         PeerSelection::kRandom),
                       ::testing::Values(Shape{6, 1, false},
                                         Shape{2, 4, true},
                                         Shape{4, 2, true})));

// C_FP_S linearity: op(a*x + b*y) == a*op(x) + b*op(y) elementwise — the
// property that makes gradient averaging commute with scaling.
TEST(PrimitivePropertyTest, CFpSLinearity) {
  const auto topo = ClusterTopology::Make(4, 1);
  const size_t n = 50;
  Rng rng(7);
  std::vector<std::vector<float>> xs(4, std::vector<float>(n)),
      ys(4, std::vector<float>(n));
  for (int r = 0; r < 4; ++r) {
    for (size_t i = 0; i < n; ++i) {
      xs[r][i] = static_cast<float>(rng.Normal());
      ys[r][i] = static_cast<float>(rng.Normal());
    }
  }
  auto run = [&](const std::vector<std::vector<float>>& in) {
    CommWorld world(topo, 2);
    auto data = in;
    ParallelFor(4, [&](size_t r) {
      CommContext ctx{&world, static_cast<int>(r), 0, 0, false};
      BAGUA_CHECK(CFpS(&ctx, data[r].data(), n).ok());
    });
    return data[0];
  };
  const auto sx = run(xs);
  const auto sy = run(ys);
  std::vector<std::vector<float>> combo(4, std::vector<float>(n));
  for (int r = 0; r < 4; ++r) {
    for (size_t i = 0; i < n; ++i) {
      combo[r][i] = 2.0f * xs[r][i] - 3.0f * ys[r][i];
    }
  }
  const auto sc = run(combo);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(sc[i], 2.0f * sx[i] - 3.0f * sy[i], 1e-3);
  }
}

}  // namespace
}  // namespace bagua
