// 16-bit allreduce: C_LP_S (comm/primitives.h) with a reduced wire dtype
// as its codec (compress/half.h). Every result is pinned to a flat scalar
// oracle built from the frozen naive converts of tensor/reference.h — an
// implementation independent of the vectorized kernels the codec uses.
// With W = encode to the wire dtype and F = widen back to fp32, element k
// of the allreduce over members x_0 .. x_{m-1} is
//   F(W( Σ_{i ascending} F(W(x_i[k])) ))
// accumulated in fp32 from +0: each member encodes its partition, the
// partition's owner sums the decoded payloads in member order, and
// re-encodes the sum for the broadcast. Hierarchical execution (§3.4)
// applies the same oracle to the fp32 intra-node sums.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "base/arena.h"
#include "base/parallel.h"
#include "base/rng.h"
#include "base/sync.h"
#include "collectives/collectives.h"
#include "comm/context.h"
#include "comm/primitives.h"
#include "compress/half.h"
#include "harness/report.h"
#include "sim/topology.h"
#include "tensor/reference.h"
#include "trace/metrics.h"
#include "trace/trace.h"

namespace bagua {
namespace {

constexpr WireDtype kDtypes[] = {WireDtype::kBf16, WireDtype::kFp16};

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

using Inputs = std::vector<std::vector<float>>;

Inputs MakeInputs(int world, size_t n, uint64_t seed) {
  Rng rng(seed);
  Inputs data(world);
  for (auto& v : data) {
    v.resize(n);
    for (auto& x : v) x = static_cast<float>(rng.Normal());
  }
  return data;
}

/// F(W(x)) through the frozen scalar reference.
float Quantize(WireDtype wire, float x) {
  uint16_t h;
  float f;
  if (wire == WireDtype::kBf16) {
    reference::FloatToBf16N(&x, &h, 1);
    reference::Bf16ToFloatN(&h, &f, 1);
  } else {
    reference::FloatToHalfN(&x, &h, 1);
    reference::HalfToFloatN(&h, &f, 1);
  }
  return f;
}

/// The flat oracle: F(W(Σ_{i ascending} F(W(x_i[k])))) for every k.
std::vector<float> Oracle(WireDtype wire, const Inputs& in, size_t n) {
  std::vector<float> out(n);
  for (size_t k = 0; k < n; ++k) {
    float sum = 0.0f;
    for (const auto& x : in) sum += Quantize(wire, x[k]);
    out[k] = Quantize(wire, sum);
  }
  return out;
}

/// The fp32 node sums hierarchical C_LP_S feeds its leaders. With two
/// devices per node the intra-node sum is one float add, so its bits do
/// not depend on which intra-node collective ran.
Inputs NodeSums(const ClusterTopology& topo, const Inputs& in, size_t n) {
  EXPECT_EQ(topo.devices_per_node, 2);
  Inputs sums(topo.num_nodes, std::vector<float>(n));
  for (int node = 0; node < topo.num_nodes; ++node) {
    for (size_t k = 0; k < n; ++k) {
      sums[node][k] = in[2 * node][k] + in[2 * node + 1][k];
    }
  }
  return sums;
}

std::vector<CommContext> RankContexts(CommWorld* world, bool hierarchical) {
  std::vector<CommContext> ctx(static_cast<size_t>(world->world_size()));
  for (size_t r = 0; r < ctx.size(); ++r) {
    ctx[r].world = world;
    ctx[r].rank = static_cast<int>(r);
    ctx[r].hierarchical = hierarchical;
  }
  return ctx;
}

/// One C_LP_S over `codec` on every rank of `ctx`, in place.
void RunClps(std::vector<CommContext>* ctx, const Compressor& codec,
             Inputs* data, size_t n) {
  ParallelFor(ctx->size(), [&](size_t r) {
    ASSERT_TRUE(
        CLpS(&(*ctx)[r], codec, (*data)[r].data(), n, nullptr).ok());
  });
}

/// A fresh cluster over `topo`, one C_LP_S, the per-rank results.
Inputs Allreduce(const ClusterTopology& topo, bool hierarchical,
                 WireDtype wire, const Inputs& in, size_t n) {
  CommWorld world(topo, /*seed=*/5);
  std::vector<CommContext> ctx = RankContexts(&world, hierarchical);
  const HalfCompressor codec(wire);
  Inputs data = in;
  RunClps(&ctx, codec, &data, n);
  return data;
}

void ExpectAllRanksMatch(const Inputs& got, const std::vector<float>& want,
                         size_t n, const std::string& what) {
  for (size_t r = 0; r < got.size(); ++r) {
    ASSERT_EQ(std::memcmp(got[r].data(), want.data(), n * sizeof(float)), 0)
        << what << ": rank " << r << " diverged from the oracle";
  }
}

// ---------------------------------------------------------------- oracle

TEST(HalfAllreduce, FlatMatchesScalarOracleAcrossDtypesAndSizes) {
  for (WireDtype wire : kDtypes) {
    for (int world : {2, 3, 5, 8}) {
      for (size_t n : {size_t{1}, size_t{7}, size_t{1024}}) {
        const auto in = MakeInputs(world, n, 17 * world + n);
        const auto got = Allreduce(ClusterTopology::Make(world, 1), false,
                                   wire, in, n);
        ExpectAllRanksMatch(got, Oracle(wire, in, n), n,
                            std::string(WireDtypeName(wire)) + " world " +
                                std::to_string(world));
      }
    }
  }
}

TEST(HalfAllreduce, HierarchicalMatchesOracleOverNodeSums) {
  const size_t n = 2048;
  for (WireDtype wire : kDtypes) {
    for (int nodes : {2, 4}) {
      const ClusterTopology topo = ClusterTopology::Make(nodes, 2);
      const auto in = MakeInputs(topo.world_size(), n, 7 * nodes + 2);
      const auto got = Allreduce(topo, true, wire, in, n);
      ExpectAllRanksMatch(got, Oracle(wire, NodeSums(topo, in, n), n), n,
                          std::string(WireDtypeName(wire)) + " hier " +
                              std::to_string(nodes) + "x2");
    }
  }
}

TEST(HalfAllreduce, SingleRankReturnsInput) {
  // A 1-member C_LP_S without error feedback has nothing to exchange and
  // returns x untouched — no quantization, for either codec.
  const size_t n = 64;
  const auto in = MakeInputs(1, n, 3);
  for (WireDtype wire : kDtypes) {
    const auto got = Allreduce(ClusterTopology::Make(1, 1), false, wire, in, n);
    ExpectAllRanksMatch(got, in[0], n, WireDtypeName(wire));
  }
}

// --------------------------------------------------------- determinism

TEST(WireAllreduce, BitwiseStableAcrossIntraOpThreadCounts) {
  const size_t n = 1 << 16;  // large enough that converts parallelize
  for (bool hierarchical : {false, true}) {
    const ClusterTopology topo = hierarchical ? ClusterTopology::Make(2, 2)
                                              : ClusterTopology::Make(4, 1);
    const auto in = MakeInputs(topo.world_size(), n, 77);
    const auto want = Oracle(WireDtype::kBf16,
                             hierarchical ? NodeSums(topo, in, n) : in, n);
    for (int threads : {1, 2, 8}) {
      ScopedIntraOpThreads scoped(threads);
      const auto got = Allreduce(topo, hierarchical, WireDtype::kBf16, in, n);
      ExpectAllRanksMatch(got, want, n,
                          std::string(hierarchical ? "hier" : "flat") +
                              " at " + std::to_string(threads) + " threads");
    }
  }
}

TEST(HalfAllreduce, HierarchicalStableAcrossPipelineSegmentBytes) {
  // The intra-node phase of hierarchical C_LP_S is the pipelined ring:
  // 256 KiB of fp32 per rank splits into 1 (unsegmented), 128 or 2 wire
  // segments per chunk. None of them may move a bit.
  const ClusterTopology topo = ClusterTopology::Make(2, 2);
  const size_t n = 1 << 16;
  const auto in = MakeInputs(topo.world_size(), n, 99);
  const auto want = Oracle(WireDtype::kBf16, NodeSums(topo, in, n), n);
  for (size_t seg : {size_t{0}, size_t{1024}, size_t{1} << 16}) {
    ScopedSegmentBytes scoped(seg);
    const auto got = Allreduce(topo, true, WireDtype::kBf16, in, n);
    ExpectAllRanksMatch(got, want, n,
                        "segment bytes " + std::to_string(seg));
  }
}

// -------------------------------------------------- steady-state memory

TEST(WireAllreduce, ZeroSteadyStateAllocations) {
  const int world = 4;
  const size_t n = 8192;
  CommWorld comm(ClusterTopology::Make(world, 1), /*seed=*/5);
  std::vector<CommContext> ctx = RankContexts(&comm, false);
  const HalfCompressor codec(WireDtype::kBf16);
  const auto in = MakeInputs(world, n, 13);
  Arena& comm_arena = MemoryRegistry::Global().ArenaFor("comm");
  Arena& compress_arena = MemoryRegistry::Global().ArenaFor("compress");
  auto arena_misses = [&] {
    return comm_arena.stats().misses + compress_arena.stats().misses;
  };
  auto run_once = [&] {
    auto data = in;
    RunClps(&ctx, codec, &data, n);
  };
  // Park each rank's concurrent memory up front — the input copy, two
  // chunk-sized reduction buffers and the codec's decode staging in the
  // arenas; up to 10 partition payloads in the pool (its own two, two
  // receive buffers and 2 x 3 sends in flight): the live peak is
  // scheduling-dependent (how many ranks' buffers overlap), so warm rounds
  // alone can undershoot a class's demand.
  {
    std::vector<std::vector<uint8_t>> parked;
    for (int k = 0; k < 10 * world; ++k) {
      parked.push_back(comm.group()->AcquireBuffer(n / world * 2));
    }
    for (auto& buf : parked) comm.group()->Recycle(std::move(buf));
    std::vector<std::unique_ptr<ArenaScratch>> prime;
    for (int r = 0; r < world; ++r) {
      prime.emplace_back(new ArenaScratch(&comm_arena, n * sizeof(float)));
      for (int k = 0; k < 2; ++k) {
        prime.emplace_back(
            new ArenaScratch(&comm_arena, n / world * sizeof(float)));
      }
      prime.emplace_back(new ArenaScratch(&compress_arena, n / world * 2));
    }
  }
  // Then warm until a whole round completes without a miss.
  for (int i = 0; i < 8; ++i) {
    const uint64_t pm = comm.group()->pool_stats().misses;
    const uint64_t am = arena_misses();
    run_once();
    if (comm.group()->pool_stats().misses == pm && arena_misses() == am) {
      break;
    }
  }
  const uint64_t pool_misses = comm.group()->pool_stats().misses;
  const uint64_t misses = arena_misses();
  for (int i = 0; i < 10; ++i) run_once();
  EXPECT_EQ(comm.group()->pool_stats().misses, pool_misses)
      << "steady-state bf16 C_LP_S hit the transport pool allocator";
  EXPECT_EQ(arena_misses(), misses)
      << "steady-state bf16 C_LP_S hit the comm/compress arena allocator";
}

// ---------------------------------------------------------------- metrics

TEST(WireMetrics, WireBytesAndConvertKernelSurfaceInTheSummary) {
  const int world = 3;
  const size_t n = 1024;
  Tracer tracer(world);
  InstallGlobalTracer(&tracer);
  const uint64_t calls_before =
      KernelMetrics().Counter("kernel.convert.calls");
  const auto in = MakeInputs(world, n, 5);
  Allreduce(ClusterTopology::Make(world, 1), false, WireDtype::kBf16, in, n);
  UninstallGlobalTracer();

  // ScatterReduce: every rank ships each foreign partition once and
  // broadcasts its own merged partition to the m-1 others, 2 bytes per
  // element — 2(m-1) partitions' worth of the 2-byte vector in total.
  const uint64_t want = 2ull * (world - 1) * n * 2;
  EXPECT_EQ(tracer.CounterTotal("primitive.scatter_reduce.bytes"), want);
  // Encode and decode run through the timed convert kernel, so the
  // process-wide registry gained calls.
  EXPECT_GT(KernelMetrics().Counter("kernel.convert.calls"), calls_before);

  // And the harness report renders both: the counter table by name, the
  // kernel table as a "convert" row.
  const std::string summary = RenderTraceSummary(tracer);
  EXPECT_NE(summary.find("primitive.scatter_reduce.bytes"), std::string::npos)
      << summary;
  EXPECT_NE(summary.find("convert"), std::string::npos) << summary;
}

}  // namespace
}  // namespace bagua
