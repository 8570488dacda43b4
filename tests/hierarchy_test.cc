// Differential tests of the topology-aware collectives
// (collectives/hierarchy.h) against their frozen seed baselines
// (collectives/seed.h): same inputs, bitwise-identical outputs — across
// topology shapes (degenerate single rank, single node, 4x4, the paper's
// 16x8), vector lengths, segmentation settings, intra-op thread counts,
// and an active (hardened) fault plan — plus the steady-state
// zero-allocation property of the pooled transport and the reserved
// hierarchy tag namespace.

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "base/parallel.h"
#include "base/rng.h"
#include "base/sync.h"
#include "collectives/collectives.h"
#include "collectives/hierarchy.h"
#include "collectives/seed.h"
#include "comm/context.h"
#include "comm/primitives.h"
#include "compress/factory.h"
#include "faults/faulty_transport.h"
#include "sim/topology.h"
#include "trace/trace.h"
#include "transport/transport.h"

namespace bagua {
namespace {

struct ScopedSegmentBytes {
  explicit ScopedSegmentBytes(size_t bytes)
      : saved_(RingPipelineSegmentBytes()) {
    SetRingPipelineSegmentBytes(bytes);
  }
  ~ScopedSegmentBytes() { SetRingPipelineSegmentBytes(saved_); }
  size_t saved_;
};
struct ScopedIntraOpThreads {
  explicit ScopedIntraOpThreads(int n) : saved_(IntraOpThreads()) {
    SetIntraOpThreads(n);
  }
  ~ScopedIntraOpThreads() { SetIntraOpThreads(saved_); }
  int saved_;
};
struct ScopedTreeThreshold {
  explicit ScopedTreeThreshold(size_t bytes)
      : saved_(TreeAllreduceThresholdBytes()) {
    SetTreeAllreduceThresholdBytes(bytes);
  }
  ~ScopedTreeThreshold() { SetTreeAllreduceThresholdBytes(saved_); }
  size_t saved_;
};

std::vector<std::vector<float>> MakeInputs(int world, size_t n,
                                           uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<float>> data(world);
  for (auto& v : data) {
    v.resize(n);
    for (auto& x : v) x = static_cast<float>(rng.Normal());
  }
  return data;
}

void ExpectBitwiseEqual(const std::vector<std::vector<float>>& a,
                        const std::vector<std::vector<float>>& b, size_t n) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t r = 0; r < a.size(); ++r) {
    EXPECT_EQ(std::memcmp(a[r].data(), b[r].data(), n * sizeof(float)), 0)
        << "rank " << r << " diverged from the seed result";
  }
}

using HierFn = Status (*)(TransportGroup*, const ClusterTopology&, int,
                          uint32_t, float*, size_t);

void RunHier(TransportGroup* group, const ClusterTopology& topo,
             std::vector<std::vector<float>>* data, size_t n, uint32_t space,
             HierFn fn) {
  ParallelFor(static_cast<size_t>(topo.world_size()), [&](size_t r) {
    ASSERT_TRUE(fn(group, topo, static_cast<int>(r), space,
                   (*data)[r].data(), n)
                    .ok());
  });
}

/// Seed result of the hierarchical composition on an unpooled group.
std::vector<std::vector<float>> SeedHierGolden(
    const ClusterTopology& topo, const std::vector<std::vector<float>>& in,
    size_t n, uint32_t space) {
  auto golden = in;
  TransportGroup group(topo.world_size(), TransportGroup::PoolMode::kUnpooled);
  RunHier(&group, topo, &golden, n, space, SeedHierarchicalAllreduce);
  return golden;
}

// --------------------------------------------------------------- policy

TEST(HierarchyTest, SelectionPolicy) {
  const size_t big = size_t{1} << 20;
  // Tiny groups: nothing to select.
  EXPECT_EQ(ChooseAllreduceAlgo(ClusterTopology::Make(2, 1), big),
            AllreduceAlgo::kFlatRing);
  EXPECT_EQ(ChooseAllreduceAlgo(ClusterTopology::Make(1, 2), 16),
            AllreduceAlgo::kFlatRing);
  // Small payloads go to the tree regardless of shape.
  EXPECT_EQ(ChooseAllreduceAlgo(ClusterTopology::Make(4, 4), 4096),
            AllreduceAlgo::kTree);
  EXPECT_EQ(ChooseAllreduceAlgo(ClusterTopology::Make(8, 1), 64),
            AllreduceAlgo::kTree);
  // Two genuine tiers: hierarchical.
  EXPECT_EQ(ChooseAllreduceAlgo(ClusterTopology::Make(4, 4), big),
            AllreduceAlgo::kHierarchical);
  EXPECT_EQ(ChooseAllreduceAlgo(ClusterTopology::Paper(), big),
            AllreduceAlgo::kHierarchical);
  // One tier only: flat ring.
  EXPECT_EQ(ChooseAllreduceAlgo(ClusterTopology::Make(1, 8), big),
            AllreduceAlgo::kFlatRing);
  EXPECT_EQ(ChooseAllreduceAlgo(ClusterTopology::Make(8, 1), big),
            AllreduceAlgo::kFlatRing);
  // The threshold knob moves the tree boundary; zero disables the tree.
  {
    ScopedTreeThreshold threshold(0);
    EXPECT_EQ(ChooseAllreduceAlgo(ClusterTopology::Make(4, 4), 64),
              AllreduceAlgo::kHierarchical);
  }
  {
    ScopedTreeThreshold threshold(big);
    EXPECT_EQ(ChooseAllreduceAlgo(ClusterTopology::Make(4, 4), big),
              AllreduceAlgo::kTree);
  }
}

// --------------------------------------------- hierarchical differential

TEST(HierarchyTest, HierarchicalMatchesSeedAcrossTopologies) {
  ScopedSegmentBytes seg(256);
  const ClusterTopology topologies[] = {
      ClusterTopology::Make(1, 1), ClusterTopology::Make(1, 8),
      ClusterTopology::Make(4, 1), ClusterTopology::Make(2, 4),
      ClusterTopology::Make(4, 4)};
  for (const auto& topo : topologies) {
    for (size_t n : {size_t{1}, size_t{5}, size_t{1000}, size_t{4097}}) {
      const auto inputs =
          MakeInputs(topo.world_size(), n, 0x41e2 + topo.world_size());
      const auto golden = SeedHierGolden(topo, inputs, n, 1);
      auto data = inputs;
      TransportGroup group(topo.world_size());
      RunHier(&group, topo, &data, n, 1, HierarchicalAllreduce);
      ExpectBitwiseEqual(golden, data, n);
    }
  }
}

TEST(HierarchyTest, HierarchicalMatchesSeedAtPaperScale) {
  // The paper's 16x8 testbed: 128 simulated ranks, multi-segment pipeline.
  const ClusterTopology topo = ClusterTopology::Paper();
  const size_t n = 4097;
  ScopedSegmentBytes seg(1024);
  const auto inputs = MakeInputs(topo.world_size(), n, 0x168);
  const auto golden = SeedHierGolden(topo, inputs, n, 1);
  auto data = inputs;
  TransportGroup group(topo.world_size());
  RunHier(&group, topo, &data, n, 1, HierarchicalAllreduce);
  ExpectBitwiseEqual(golden, data, n);
}

TEST(HierarchyTest, HierarchicalBitwiseStableAcrossSegmentation) {
  const ClusterTopology topo = ClusterTopology::Make(4, 4);
  const size_t n = 10000;
  const auto inputs = MakeInputs(topo.world_size(), n, 0xca4e);
  const auto golden = SeedHierGolden(topo, inputs, n, 1);
  for (size_t seg_bytes :
       {size_t{0}, size_t{64}, size_t{256}, size_t{4096}}) {
    ScopedSegmentBytes seg(seg_bytes);
    auto data = inputs;
    TransportGroup group(topo.world_size());
    RunHier(&group, topo, &data, n, 1, HierarchicalAllreduce);
    ExpectBitwiseEqual(golden, data, n);
  }
}

TEST(HierarchyTest, HierarchicalBitwiseStableAcrossIntraOpThreads) {
  const ClusterTopology topo = ClusterTopology::Make(2, 4);
  const size_t n = 8192;
  ScopedSegmentBytes seg(512);
  const auto inputs = MakeInputs(topo.world_size(), n, 0xbee2);
  const auto golden = SeedHierGolden(topo, inputs, n, 1);
  for (int threads : {1, 2, 8}) {
    ScopedIntraOpThreads pool(threads);
    auto data = inputs;
    TransportGroup group(topo.world_size());
    RunHier(&group, topo, &data, n, 1, HierarchicalAllreduce);
    ExpectBitwiseEqual(golden, data, n);
  }
}

TEST(HierarchyTest, HierarchicalBitwiseUnderActiveFaultPlan) {
  const ClusterTopology topo = ClusterTopology::Make(4, 4);
  const size_t n = 3000;
  ScopedSegmentBytes seg(1024);
  const auto inputs = MakeInputs(topo.world_size(), n, 0xfa117);
  const auto golden = SeedHierGolden(topo, inputs, n, 1);
  FaultPlan plan;
  plan.seed = 99;
  plan.Drop(0.05).Duplicate(0.05).Corrupt(0.02);
  FaultyTransport faulty(topo.world_size(), plan);
  auto data = inputs;
  RunHier(&faulty, topo, &data, n, 1, HierarchicalAllreduce);
  ExpectBitwiseEqual(golden, data, n);
  EXPECT_GT(faulty.stats().messages, 0u);
}

TEST(HierarchyTest, SteadyStateHierarchicalDoesZeroPoolMisses) {
  const ClusterTopology topo = ClusterTopology::Make(2, 4);
  const size_t n = 4096;
  ScopedSegmentBytes seg(4096);
  TransportGroup group(topo.world_size());
  auto data = MakeInputs(topo.world_size(), n, 0x0a12);
  uint32_t space = 1;
  // Park worst-case per-class buffer demand up front (the comm_gate.h
  // PrimePool idiom): Send never blocks, so the peak number of in-flight
  // segments depends on thread interleaving — a warm-up run under one
  // schedule can under-populate a class that a later schedule (e.g. a
  // TSan-slowed leader behind racing senders) spikes.
  {
    std::vector<std::vector<uint8_t>> parked;
    for (size_t bytes = 64; bytes <= (size_t{64} << 10); bytes *= 2) {
      for (int k = 0; k < 48; ++k) parked.push_back(group.AcquireBuffer(bytes));
    }
    for (auto& buf : parked) group.Recycle(std::move(buf));
  }
  // Warm-up covers anything priming did not (misses are expected here)...
  RunHier(&group, topo, &data, n, space++, HierarchicalAllreduce);
  const uint64_t misses_after_warmup = group.pool_stats().misses;
  // ...after which all three phases recycle through the pool.
  for (int iter = 0; iter < 5; ++iter) {
    RunHier(&group, topo, &data, n, space++, HierarchicalAllreduce);
  }
  const PoolStats s = group.pool_stats();
  EXPECT_EQ(s.misses, misses_after_warmup)
      << "steady-state hierarchical allreduce still heap-allocates";
  EXPECT_GT(s.hits, 0u);

  // Second input: hierarchical C_LP_S on 2x2 at a 1,089,544-element bucket
  // (a 1.09M-parameter model), for a quantizing and a 16-bit codec. Its
  // intra-node phase is the pipelined ring at the default 128 KiB
  // segments: each rank sends all 17 segments of its reduce-scatter chunk
  // at once, and each segment travels on as an allgather segment, so up to
  // 17 per rank — 68 per group — are live in the 128 KiB class together.
  // Park that peak up front, plus the leaders' payloads (each leader holds
  // two, receives into two and sends two) and the broadcast vectors; every
  // class must keep what it parked across steps.
  ScopedSegmentBytes default_seg(size_t{128} << 10);
  const ClusterTopology clps_topo = ClusterTopology::Make(2, 2);
  const int clps_world = clps_topo.world_size();
  const size_t big = 1089544;
  const size_t half = ChunkOf(big, 2, 0).count;
  const size_t segments = WireSegmentsForBytes(half * sizeof(float));
  for (const char* spec : {"qsgd8", "bf16"}) {
    CommWorld world(clps_topo, /*seed=*/11);
    std::vector<CommContext> ctx(clps_world);
    for (int r = 0; r < clps_world; ++r) {
      ctx[r].world = &world;
      ctx[r].rank = r;
      ctx[r].hierarchical = true;
    }
    const auto codec = std::move(MakeCompressor(spec)).value();
    auto clps_data = MakeInputs(clps_world, big, 0x0c1b5);
    auto run_clps = [&] {
      ParallelFor(ctx.size(), [&](size_t r) {
        ASSERT_TRUE(
            CLpS(&ctx[r], *codec, clps_data[r].data(), big, nullptr).ok());
      });
    };
    {
      std::vector<std::vector<uint8_t>> parked;
      auto park = [&](size_t bytes, size_t count) {
        for (size_t k = 0; k < count; ++k) {
          parked.push_back(world.group()->AcquireBuffer(bytes));
        }
      };
      park(ChunkOf(half, segments, 0).count * sizeof(float),
           clps_world * segments);
      park(codec->CompressedBytes(ChunkOf(big, 2, 0).count), 12);
      park(big * sizeof(float), 4);
      for (auto& buf : parked) world.group()->Recycle(std::move(buf));
    }
    run_clps();
    const uint64_t clps_warm = world.group()->pool_stats().misses;
    for (int iter = 0; iter < 5; ++iter) run_clps();
    EXPECT_EQ(world.group()->pool_stats().misses, clps_warm)
        << spec << ": steady-state hierarchical C_LP_S still heap-allocates";
  }
}

TEST(HierarchyTest, HierarchicalTraced) {
  const ClusterTopology topo = ClusterTopology::Make(2, 2);
  const size_t n = 512;
  Tracer tracer(topo.world_size());
  InstallGlobalTracer(&tracer);
  auto data = MakeInputs(topo.world_size(), n, 0x72ace);
  TransportGroup group(topo.world_size());
  RunHier(&group, topo, &data, n, 1, HierarchicalAllreduce);
  UninstallGlobalTracer();
  EXPECT_GT(tracer.CountSpans("hier.reduce"), 0u);
  EXPECT_GT(tracer.CountSpans("hier.bcast"), 0u);
  EXPECT_GT(tracer.CounterTotal("collective.hier_allreduce.bytes"), 0u);
}

// ------------------------------------------------------ tree differential

TEST(HierarchyTest, TreeReduceMatchesSeedReduceForAnyRoot) {
  const int world = 7;
  const size_t n = 2048;
  std::vector<int> ranks(world);
  std::iota(ranks.begin(), ranks.end(), 0);
  for (int root : {0, 2, 6}) {
    const auto inputs = MakeInputs(world, n, 0x12ee + root);
    auto seed_data = inputs;
    auto tree_data = inputs;
    TransportGroup seed_group(world, TransportGroup::PoolMode::kUnpooled);
    TransportGroup tree_group(world);
    ParallelFor(static_cast<size_t>(world), [&](size_t r) {
      ASSERT_TRUE(SeedReduce(&seed_group, ranks, static_cast<int>(r), root, 1,
                             seed_data[r].data(), n)
                      .ok());
      ASSERT_TRUE(TreeReduce(&tree_group, ranks, static_cast<int>(r), root, 1,
                             tree_data[r].data(), n)
                      .ok());
    });
    // Bitwise at the root AND untouched non-root buffers.
    ExpectBitwiseEqual(seed_data, tree_data, n);
  }
}

TEST(HierarchyTest, TreeBroadcastMatchesSeedBroadcast) {
  const int world = 6;
  const size_t n = 1537;
  const int root = 3;
  std::vector<int> ranks(world);
  std::iota(ranks.begin(), ranks.end(), 0);
  const auto inputs = MakeInputs(world, n, 0xb40a);
  auto seed_data = inputs;
  auto tree_data = inputs;
  TransportGroup seed_group(world, TransportGroup::PoolMode::kUnpooled);
  TransportGroup tree_group(world);
  ParallelFor(static_cast<size_t>(world), [&](size_t r) {
    ASSERT_TRUE(SeedBroadcast(&seed_group, ranks, static_cast<int>(r), root,
                              1, seed_data[r].data(), n)
                    .ok());
    ASSERT_TRUE(TreeBroadcast(&tree_group, ranks, static_cast<int>(r), root,
                              1, tree_data[r].data(), n)
                    .ok());
  });
  ExpectBitwiseEqual(seed_data, tree_data, n);
  for (int r = 0; r < world; ++r) {
    EXPECT_EQ(std::memcmp(tree_data[r].data(), inputs[root].data(),
                          n * sizeof(float)),
              0);
  }
}

TEST(HierarchyTest, TreeAllreduceMatchesSeedComposition) {
  for (int world : {2, 3, 8, 13}) {
    std::vector<int> ranks(world);
    std::iota(ranks.begin(), ranks.end(), 0);
    for (size_t n : {size_t{1}, size_t{33}, size_t{4096}}) {
      const auto inputs = MakeInputs(world, n, 0x72ee + world);
      auto seed_data = inputs;
      auto tree_data = inputs;
      TransportGroup seed_group(world, TransportGroup::PoolMode::kUnpooled);
      TransportGroup tree_group(world);
      ParallelFor(static_cast<size_t>(world), [&](size_t r) {
        ASSERT_TRUE(SeedReduce(&seed_group, ranks, static_cast<int>(r), 0, 1,
                               seed_data[r].data(), n)
                        .ok());
        ASSERT_TRUE(SeedBroadcast(&seed_group, ranks, static_cast<int>(r), 0,
                                  2, seed_data[r].data(), n)
                        .ok());
        ASSERT_TRUE(TreeAllreduce(&tree_group, ranks, static_cast<int>(r), 1,
                                  tree_data[r].data(), n)
                        .ok());
      });
      ExpectBitwiseEqual(seed_data, tree_data, n);
    }
  }
}

TEST(HierarchyTest, TreeAllreduceBitwiseUnderActiveFaultPlan) {
  const int world = 8;
  const size_t n = 513;
  std::vector<int> ranks(world);
  std::iota(ranks.begin(), ranks.end(), 0);
  const auto inputs = MakeInputs(world, n, 0xfa21);
  auto golden = inputs;
  {
    TransportGroup group(world, TransportGroup::PoolMode::kUnpooled);
    ParallelFor(static_cast<size_t>(world), [&](size_t r) {
      ASSERT_TRUE(SeedReduce(&group, ranks, static_cast<int>(r), 0, 1,
                             golden[r].data(), n)
                      .ok());
      ASSERT_TRUE(SeedBroadcast(&group, ranks, static_cast<int>(r), 0, 2,
                                golden[r].data(), n)
                      .ok());
    });
  }
  FaultPlan plan;
  plan.seed = 99;
  plan.Drop(0.05).Duplicate(0.05).Corrupt(0.02);
  FaultyTransport faulty(world, plan);
  auto data = inputs;
  ParallelFor(static_cast<size_t>(world), [&](size_t r) {
    ASSERT_TRUE(TreeAllreduce(&faulty, ranks, static_cast<int>(r), 1,
                              data[r].data(), n)
                    .ok());
  });
  ExpectBitwiseEqual(golden, data, n);
  EXPECT_GT(faulty.stats().messages, 0u);
}

TEST(HierarchyTest, TreeGatherTotalSlotsCountsSubtrees) {
  EXPECT_EQ(TreeGatherTotalSlots(1), 0u);
  EXPECT_EQ(TreeGatherTotalSlots(2), 1u);
  EXPECT_EQ(TreeGatherTotalSlots(4), 4u);   // 1 + 2 + 1
  EXPECT_EQ(TreeGatherTotalSlots(8), 12u);  // 1+2+1 + 4 + 1+2+1
  // Non-power-of-two: subtrees clip at m - q.
  EXPECT_EQ(TreeGatherTotalSlots(6), 7u);  // 1+2+1 + min(4,2)=2 + 1
}

// ---------------------------------------------------------- auto dispatch

TEST(HierarchyTest, AllreduceAutoMatchesChosenAlgorithm) {
  ScopedSegmentBytes seg(256);
  // Above the tree threshold on a two-tier topology: hierarchical.
  {
    const ClusterTopology topo = ClusterTopology::Make(2, 4);
    const size_t n = 4097;  // 16388 bytes > 4 KiB threshold
    ASSERT_EQ(ChooseAllreduceAlgo(topo, n * sizeof(float)),
              AllreduceAlgo::kHierarchical);
    const auto inputs = MakeInputs(topo.world_size(), n, 0xa7a);
    const auto golden = SeedHierGolden(topo, inputs, n, 1);
    auto data = inputs;
    TransportGroup group(topo.world_size());
    RunHier(&group, topo, &data, n, 1, AllreduceAuto);
    ExpectBitwiseEqual(golden, data, n);
  }
  // Small tensor: the tree, bitwise equal to seed reduce + broadcast.
  {
    const ClusterTopology topo = ClusterTopology::Make(2, 4);
    const size_t n = 64;  // 256 bytes <= 4 KiB threshold
    ASSERT_EQ(ChooseAllreduceAlgo(topo, n * sizeof(float)),
              AllreduceAlgo::kTree);
    std::vector<int> ranks(topo.world_size());
    std::iota(ranks.begin(), ranks.end(), 0);
    const auto inputs = MakeInputs(topo.world_size(), n, 0xa7b);
    auto golden = inputs;
    {
      TransportGroup group(topo.world_size(),
                           TransportGroup::PoolMode::kUnpooled);
      ParallelFor(static_cast<size_t>(topo.world_size()), [&](size_t r) {
        ASSERT_TRUE(SeedReduce(&group, ranks, static_cast<int>(r), 0, 1,
                               golden[r].data(), n)
                        .ok());
        ASSERT_TRUE(SeedBroadcast(&group, ranks, static_cast<int>(r), 0, 2,
                                  golden[r].data(), n)
                        .ok());
      });
    }
    auto data = inputs;
    TransportGroup group(topo.world_size());
    RunHier(&group, topo, &data, n, 1, AllreduceAuto);
    ExpectBitwiseEqual(golden, data, n);
  }
  // Single-tier topology, large tensor: the flat pipelined ring.
  {
    const ClusterTopology topo = ClusterTopology::Make(1, 4);
    const size_t n = 4097;
    ASSERT_EQ(ChooseAllreduceAlgo(topo, n * sizeof(float)),
              AllreduceAlgo::kFlatRing);
    std::vector<int> ranks(topo.world_size());
    std::iota(ranks.begin(), ranks.end(), 0);
    const auto inputs = MakeInputs(topo.world_size(), n, 0xa7c);
    auto golden = inputs;
    {
      TransportGroup group(topo.world_size(),
                           TransportGroup::PoolMode::kUnpooled);
      ParallelFor(static_cast<size_t>(topo.world_size()), [&](size_t r) {
        ASSERT_TRUE(SeedRingAllreduce(&group, ranks, static_cast<int>(r), 1,
                                      golden[r].data(), n)
                        .ok());
      });
    }
    auto data = inputs;
    TransportGroup group(topo.world_size());
    RunHier(&group, topo, &data, n, 1, AllreduceAuto);
    ExpectBitwiseEqual(golden, data, n);
  }
}

// ------------------------------------------------- subgroup auto dispatch

TEST(HierarchyTest, GroupSelectionPolicy) {
  const size_t big = size_t{1} << 20;
  // Tiny groups: nothing to select, even for tiny payloads.
  EXPECT_EQ(ChooseGroupAllreduceAlgo(1, 64), AllreduceAlgo::kFlatRing);
  EXPECT_EQ(ChooseGroupAllreduceAlgo(2, 64), AllreduceAlgo::kFlatRing);
  // Small payloads in real groups: tree (latency bound).
  EXPECT_EQ(ChooseGroupAllreduceAlgo(3, 64), AllreduceAlgo::kTree);
  EXPECT_EQ(ChooseGroupAllreduceAlgo(8, 4096), AllreduceAlgo::kTree);
  // Large payloads: flat ring. Never hierarchical — no second tier.
  EXPECT_EQ(ChooseGroupAllreduceAlgo(8, big), AllreduceAlgo::kFlatRing);
  // The shared threshold knob moves the boundary; zero disables the tree.
  {
    ScopedTreeThreshold threshold(0);
    EXPECT_EQ(ChooseGroupAllreduceAlgo(8, 64), AllreduceAlgo::kFlatRing);
  }
  {
    ScopedTreeThreshold threshold(big);
    EXPECT_EQ(ChooseGroupAllreduceAlgo(8, big), AllreduceAlgo::kTree);
  }
}

TEST(HierarchyTest, GroupAllreduceAutoMatchesChosenSeedComposition) {
  // An explicit non-trivial subgroup (the intra-node shape C_LP_S hands
  // over): ranks {1,2,3,5} of a 6-rank world.
  const int world = 6;
  const std::vector<int> ranks = {1, 2, 3, 5};
  auto run_members = [&](const std::function<void(size_t)>& fn) {
    ParallelFor(ranks.size(), fn);
  };
  // Below the threshold: bitwise identical to SeedReduce + SeedBroadcast
  // (the tree is a gather tree; only the root reduces, in member order).
  {
    const size_t n = 64;  // 256 bytes <= 4 KiB threshold
    ASSERT_EQ(ChooseGroupAllreduceAlgo(ranks.size(), n * sizeof(float)),
              AllreduceAlgo::kTree);
    const auto inputs = MakeInputs(world, n, 0x56b1);
    auto golden = inputs;
    {
      TransportGroup group(world, TransportGroup::PoolMode::kUnpooled);
      run_members([&](size_t m) {
        const int rank = ranks[m];
        ASSERT_TRUE(
            SeedReduce(&group, ranks, rank, 0, 1, golden[rank].data(), n)
                .ok());
        ASSERT_TRUE(
            SeedBroadcast(&group, ranks, rank, 0, 2, golden[rank].data(), n)
                .ok());
      });
    }
    auto data = inputs;
    TransportGroup group(world);
    run_members([&](size_t m) {
      const int rank = ranks[m];
      ASSERT_TRUE(
          GroupAllreduceAuto(&group, ranks, rank, 1, data[rank].data(), n)
              .ok());
    });
    ExpectBitwiseEqual(golden, data, n);
  }
  // Above the threshold: bitwise identical to the seed ring.
  {
    const size_t n = 4097;  // 16388 bytes > 4 KiB threshold
    ASSERT_EQ(ChooseGroupAllreduceAlgo(ranks.size(), n * sizeof(float)),
              AllreduceAlgo::kFlatRing);
    const auto inputs = MakeInputs(world, n, 0x56b2);
    auto golden = inputs;
    {
      TransportGroup group(world, TransportGroup::PoolMode::kUnpooled);
      run_members([&](size_t m) {
        const int rank = ranks[m];
        ASSERT_TRUE(
            SeedRingAllreduce(&group, ranks, rank, 1, golden[rank].data(), n)
                .ok());
      });
    }
    auto data = inputs;
    TransportGroup group(world);
    run_members([&](size_t m) {
      const int rank = ranks[m];
      ASSERT_TRUE(
          GroupAllreduceAuto(&group, ranks, rank, 1, data[rank].data(), n)
              .ok());
    });
    ExpectBitwiseEqual(golden, data, n);
  }
}

TEST(HierarchyTest, GroupBroadcastAutoMovesRootBytesVerbatim) {
  const int world = 5;
  std::vector<int> ranks(world);
  std::iota(ranks.begin(), ranks.end(), 0);
  const size_t n = 1000;
  const int root_index = 2;
  const auto inputs = MakeInputs(world, n, 0x56b3);
  auto data = inputs;
  TransportGroup group(world);
  ParallelFor(static_cast<size_t>(world), [&](size_t r) {
    ASSERT_TRUE(GroupBroadcastAuto(&group, ranks, static_cast<int>(r),
                                   root_index, 1, data[r].data(), n)
                    .ok());
  });
  // > 2 members routes through the binomial tree; either way every rank
  // must hold the root's bytes exactly.
  for (int r = 0; r < world; ++r) {
    ASSERT_EQ(std::memcmp(data[r].data(), inputs[root_index].data(),
                          n * sizeof(float)),
              0)
        << "rank " << r;
  }
}

// ----------------------------------------------------------- tag namespace

TEST(HierarchyTest, HierTagNamespaceAudited) {
  // The hierarchy range tiles between serving and the top-of-space ranges,
  // every phase stays inside it, and ack tags cannot collide with the
  // caller's space.
  for (uint32_t phase = 0; phase <= kHierMaxPhase; ++phase) {
    const uint32_t space = HierSpace(7u, phase);
    EXPECT_GE(space, kHierSpaceBase);
    EXPECT_LT(space, kHierSpaceLimit);
    EXPECT_STREQ(TagSpaceName(space), "hier");
    EXPECT_NE(AckSpace(space), AckSpace(7u));
  }
  // Distinct phases of the same caller space never share tags.
  EXPECT_NE(HierSpace(7u, 0), HierSpace(7u, 1));
  EXPECT_NE(HierSpace(7u, 1), HierSpace(7u, 2));
  EXPECT_STREQ(TagSpaceName(kHierSpaceBase), "hier");
  EXPECT_STREQ(TagSpaceName(kHierSpaceLimit - 1), "hier");
}

}  // namespace
}  // namespace bagua
