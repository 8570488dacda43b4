#ifndef BAGUA_COMM_CONTEXT_H_
#define BAGUA_COMM_CONTEXT_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "base/rng.h"
#include "sim/topology.h"
#include "transport/transport.h"

namespace bagua {

/// \brief Shared state of one simulated cluster: the transport, the
/// topology, and a tag-space allocator.
///
/// One CommWorld is created per training run; every worker thread derives a
/// per-rank CommContext from it (Listing 2's `get_global_comm()`).
class CommWorld {
 public:
  CommWorld(ClusterTopology topo, uint64_t seed)
      : topo_(topo),
        seed_(seed),
        group_(std::make_unique<TransportGroup>(topo.world_size())) {}

  /// Injects a custom transport (e.g. a FaultyTransport decorator); must
  /// span exactly `topo.world_size()` ranks.
  CommWorld(ClusterTopology topo, uint64_t seed,
            std::unique_ptr<TransportGroup> group)
      : topo_(topo), seed_(seed), group_(std::move(group)) {
    BAGUA_CHECK_EQ(group_->world_size(), topo_.world_size());
  }

  const ClusterTopology& topo() const { return topo_; }
  TransportGroup* group() { return group_.get(); }
  uint64_t seed() const { return seed_; }
  int world_size() const { return topo_.world_size(); }

 private:
  ClusterTopology topo_;
  uint64_t seed_;
  std::unique_ptr<TransportGroup> group_;
};

/// \brief Per-rank view of a CommWorld, passed to every primitive call.
///
/// `space` is the tag namespace of the *current* primitive invocation; all
/// ranks must call primitives in the same order with the same spaces, which
/// the runtime guarantees by allocating spaces deterministically from the
/// invocation sequence.
struct CommContext {
  CommWorld* world = nullptr;
  int rank = 0;
  /// Tag namespace for the next primitive call; advanced by each call.
  /// Reserve kSpaceStride values per invocation (hierarchical execution
  /// uses several internal collectives).
  uint32_t space = 0;
  /// Monotone step counter, used to derive per-step randomized peers.
  uint64_t step = 0;
  /// Execute primitives hierarchically (intra-node + leaders)?
  bool hierarchical = false;

  static constexpr uint32_t kSpaceStride = 8;

  TransportGroup* group() const { return world->group(); }
  const ClusterTopology& topo() const { return world->topo(); }
  int world_size() const { return world->world_size(); }

  /// Claims the next tag namespace (stride of kSpaceStride sub-spaces).
  uint32_t NextSpace() {
    const uint32_t s = space;
    space += kSpaceStride;
    return s;
  }

  /// Rng stream for (rank, step) — independent across ranks and steps but
  /// reproducible.
  Rng MakeRankRng() const {
    return Rng(MixSeed(world->seed(), MixSeed(rank + 1, step)));
  }
  /// Rng stream shared by ALL ranks at this step (peer selection must agree
  /// across the cluster).
  Rng MakeSharedRng() const { return Rng(MixSeed(world->seed(), step)); }
};

}  // namespace bagua

#endif  // BAGUA_COMM_CONTEXT_H_
