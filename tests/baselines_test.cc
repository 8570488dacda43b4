#include <gtest/gtest.h>

#include <string>

#include "baselines/baselines.h"
#include "harness/autotune.h"

namespace bagua {
namespace {

TimingConfig Config(const std::string& model, double gbps) {
  TimingConfig cfg;
  cfg.model = ModelProfile::ByName(model);
  cfg.net = NetworkConfig::Tcp(gbps);
  return cfg;
}

TEST(DdpSpecTest, MatchesDocumentedStrategy) {
  auto cfg = Config("bert-large", 25);
  const SystemSpec spec = DdpSpec(cfg);
  EXPECT_EQ(spec.name, "pytorch-ddp");
  EXPECT_EQ(spec.bucket_bytes, 25u << 20);
  EXPECT_TRUE(spec.overlap_backward);
  EXPECT_FALSE(spec.overlap_forward);
  EXPECT_FALSE(spec.async);
  EXPECT_EQ(spec.barrier_group, -1);  // world barrier
}

TEST(HorovodSpecTest, Fp16HalvesWireCost) {
  auto cfg = Config("bert-large", 25);
  const SystemSpec h32 = HorovodSpec(cfg, 32);
  const SystemSpec h16 = HorovodSpec(cfg, 16);
  const size_t n = 1 << 24;
  EXPECT_NEAR(h16.comm_cost(n), h32.comm_cost(n) / 2,
              0.1 * h32.comm_cost(n));
  EXPECT_GT(h16.codec_cost(n), 0.0);  // conversion isn't free
  EXPECT_EQ(h16.name, "horovod-16");
  EXPECT_EQ(h32.bucket_bytes, 64u << 20);
}

TEST(BytePsSpecTest, OverlapsForwardAndChargesServer) {
  auto cfg = Config("vgg16", 25);
  const SystemSpec spec = BytePsSpec(cfg);
  EXPECT_TRUE(spec.overlap_forward);
  EXPECT_GT(spec.server_cpu_s, 0.0);
  EXPECT_FALSE(spec.async);
  BytePsOptions opts;
  opts.async = true;
  const SystemSpec async_spec = BytePsSpec(cfg, opts);
  EXPECT_TRUE(async_spec.async);
  EXPECT_EQ(async_spec.barrier_group, 1);
}

TEST(BaselinesTest, BytePsCpuBottleneckHitsLargeDenseModels) {
  // Table 4's pattern: BytePS trails on VGG16 (comm+CPU bound) but the gap
  // narrows for compute-bound Transformer.
  auto vgg = Config("vgg16", 100);
  const double vgg_ddp = EstimateEpoch(vgg, DdpSpec(vgg)).epoch_s;
  const double vgg_byteps = EstimateEpoch(vgg, BytePsSpec(vgg)).epoch_s;
  auto trans = Config("transformer", 100);
  const double trans_ddp = EstimateEpoch(trans, DdpSpec(trans)).epoch_s;
  const double trans_byteps = EstimateEpoch(trans, BytePsSpec(trans)).epoch_s;
  EXPECT_GT(vgg_byteps / vgg_ddp, 1.2);
  EXPECT_LT(trans_byteps / trans_ddp, 1.1);
}

TEST(BaselinesTest, BestBaselinePicksMinimum) {
  auto cfg = Config("bert-large", 10);
  const EpochEstimate best = BestBaselineEpoch(cfg);
  for (const SystemSpec& spec :
       {DdpSpec(cfg), HorovodSpec(cfg, 32), HorovodSpec(cfg, 16),
        BytePsSpec(cfg)}) {
    EXPECT_LE(best.epoch_s, EstimateEpoch(cfg, spec).epoch_s + 1e-9);
  }
  // On a slow network the fp16 variant should be the winner.
  EXPECT_EQ(best.system, "horovod-16");
}

TEST(BaselinesTest, DdpAndHorovod32CloseAtEqualPattern) {
  // Both run fp32 ring allreduce with backward overlap; only fusion-buffer
  // sizes differ, so they should land within a few percent.
  auto cfg = Config("bert-base", 25);
  const double ddp = EstimateEpoch(cfg, DdpSpec(cfg)).epoch_s;
  const double hvd = EstimateEpoch(cfg, HorovodSpec(cfg, 32)).epoch_s;
  EXPECT_NEAR(ddp, hvd, 0.05 * ddp);
}

// std::string, not const char*: gtest prints a char pointer's address, which
// would put a per-process value into the ctest name of every case.
class Table3InvariantTest
    : public ::testing::TestWithParam<std::tuple<std::string, double>> {};

TEST_P(Table3InvariantTest, BaguaBestNeverLosesBadly) {
  // The paper's headline claim, as an invariant over its grid: BAGUA's
  // best algorithm is at least competitive (>= 0.95x) with the best
  // baseline everywhere, and strictly better at 10 Gbps.
  const auto [model, gbps] = GetParam();
  auto cfg = Config(model, gbps);
  double best_bagua = 1e300;
  for (const auto& rec : RankAlgorithms(cfg)) {
    best_bagua = std::min(best_bagua, rec.epoch_s);
  }
  const double baseline = BestBaselineEpoch(cfg).epoch_s;
  EXPECT_GE(baseline / best_bagua, 0.95) << model << " @ " << gbps;
  if (gbps <= 10.0) {
    EXPECT_GE(baseline / best_bagua, 1.15) << model << " @ " << gbps;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, Table3InvariantTest,
    ::testing::Combine(::testing::Values("vgg16", "bert-large", "bert-base",
                                         "transformer", "lstm-alexnet"),
                       ::testing::Values(100.0, 25.0, 10.0)));

TEST(BaselinesTest, GapGrowsAsNetworkSlows) {
  // Fig. 7's summary finding as an invariant.
  double prev_ratio = 0.0;
  for (double gbps : {100.0, 25.0, 10.0, 5.0}) {
    auto cfg = Config("bert-large", gbps);
    auto algo = MakeTimingAlgorithm("1bit-adam");
    const double bagua =
        EstimateEpoch(cfg, BaguaSpec(cfg, *algo, BaguaOptions())).epoch_s;
    const double baseline = BestBaselineEpoch(cfg).epoch_s;
    const double ratio = baseline / bagua;
    EXPECT_GE(ratio, prev_ratio - 0.02) << gbps;
    prev_ratio = ratio;
  }
  EXPECT_GT(prev_ratio, 2.0);  // large gap at 5 Gbps
}

}  // namespace
}  // namespace bagua
