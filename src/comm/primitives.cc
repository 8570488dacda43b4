#include "comm/primitives.h"

#include <algorithm>
#include <cstring>
#include <optional>

#include "base/arena.h"
#include "base/logging.h"
#include "base/strings.h"
#include "collectives/collectives.h"
#include "collectives/hierarchy.h"
#include "sim/collective_cost.h"
#include "tensor/ops.h"
#include "trace/trace.h"

namespace bagua {

namespace {

/// Numeric workspaces (accumulators, decode buffers) draw from the "comm"
/// subsystem arena; only bytes that actually cross the transport surface
/// stay on the transport pool. This splits the gauges honestly: wire
/// footprint under "transport", reduction scratch under "comm".
Arena& CommArena() {
  static Arena* arena = &MemoryRegistry::Global().ArenaFor("comm");
  return *arena;
}

std::vector<int> WorldRanks(const ClusterTopology& topo) {
  std::vector<int> ranks(topo.world_size());
  for (int r = 0; r < topo.world_size(); ++r) ranks[r] = r;
  return ranks;
}

std::vector<int> NodeRanks(const ClusterTopology& topo, int rank) {
  const int node = topo.NodeOf(rank);
  std::vector<int> ranks(topo.devices_per_node);
  for (int i = 0; i < topo.devices_per_node; ++i) {
    ranks[i] = node * topo.devices_per_node + i;
  }
  return ranks;
}

std::vector<int> LeaderRanks(const ClusterTopology& topo) {
  std::vector<int> ranks(topo.num_nodes);
  for (int n = 0; n < topo.num_nodes; ++n) {
    ranks[n] = n * topo.devices_per_node;
  }
  return ranks;
}

/// The flat ScatterReduce-with-compression kernel of §3.3, run over an
/// explicit group. Implements the full C_LP_S semantics; the identity codec
/// and null state degrade it to C_FP_S.
Status ScatterReduceExec(CommContext* ctx, const std::vector<int>& ranks,
                         const Compressor& codec, float* data, size_t n,
                         ClpsState* state, uint32_t space) {
  const size_t m = ranks.size();
  const int i = IndexIn(ranks, ctx->rank);
  if (i < 0) return Status::InvalidArgument("rank not in group");
  if (m == 1) {
    if (state == nullptr) return Status::OK();
    // Degenerate single-member group: x' = Q(Q(x - δ) - ε), errors updated.
  }
  TransportGroup* group = ctx->group();
  Rng rng = ctx->MakeRankRng();

  // All per-call workspaces are recycled (ArenaScratch from the comm arena
  // for numeric buffers, AcquireBuffer + Recycle for wire payloads), so a
  // steady-state training loop runs this primitive with zero heap
  // allocations. Chunk 0 is the largest (ChunkOf gives the remainder to
  // the first chunks), so it bounds every scratch.
  const size_t maxc = std::max<size_t>(ChunkOf(n, m, 0).count, 1);

  // u = x + δ (or x itself when error compensation is off). Note: §3.2
  // writes the residual with a minus sign; the telescoping error-feedback
  // recursion of DoubleSqueeze / 1-bit Adam *adds* the carried residual,
  // so we store δ with the standard sign (see DESIGN.md, "Known deltas").
  // Phase 1 is done with u before phase 3 writes into data.
  const bool worker_ec = state != nullptr && state->worker_err.defined();
  std::optional<ArenaScratch> u_scratch;
  const float* u = data;
  if (worker_ec) {
    BAGUA_CHECK_EQ(state->worker_err.numel(), n);
    u_scratch.emplace(&CommArena(), n * sizeof(float));
    Add(data, state->worker_err.data(), u_scratch->floats(), n);
    u = u_scratch->floats();
  }

  // Compressors assign out to exactly CompressedBytes(count), which never
  // exceeds the capacity acquired here, so Compress never reallocates.
  std::vector<uint8_t> payload = group->AcquireBuffer(codec.CompressedBytes(maxc));
  std::vector<uint8_t> own_partition_payload =
      group->AcquireBuffer(codec.CompressedBytes(maxc));
  std::vector<uint8_t> rxbufs[2];
  int cur = 0;
  TransportHandle pending;

  Status st = [&]() -> Status {
    // Phase 1: compress every partition of u and ship partition j to rank j.
    for (size_t j = 0; j < m; ++j) {
      const Chunk c = ChunkOf(n, m, j);
      RETURN_IF_ERROR(
          codec.Compress(u + c.begin, c.count, &rng, &payload));
      if (worker_ec) {
        // δ' = (x − δ) − Q(x − δ), per partition: Q decodes into δ's
        // slice, which then becomes u − Q in place.
        float* err = state->worker_err.data() + c.begin;
        RETURN_IF_ERROR(
            codec.Decompress(payload.data(), payload.size(), c.count, err));
        for (size_t k = 0; k < c.count; ++k) err[k] = u[c.begin + k] - err[k];
      }
      if (static_cast<int>(j) == i) {
        own_partition_payload.assign(payload.begin(), payload.end());
      } else {
        TraceSpan span(ctx->rank, TraceStream::kComm, "scatter_reduce.push",
                       payload.size(), static_cast<int>(j));
        TraceCountBytes(ctx->rank, "primitive.scatter_reduce.bytes",
                        payload.size());
        RETURN_IF_ERROR(group->Send(ctx->rank, ranks[j], MakeTag(space, 0),
                                    payload.data(), payload.size()));
      }
    }

    // Phase 2 (server side of partition i): receive, then decode-and-add
    // into the sum in one pass — with the next member's receive posted
    // before the current decode-add runs, double-buffered. The merge stays
    // in ascending member order from a zeroed sum, so the float
    // accumulation is bitwise the seed's decode-then-Axpy.
    const Chunk mine = ChunkOf(n, m, i);
    ArenaScratch sum_scratch(&CommArena(),
                             std::max<size_t>(mine.count, 1) * sizeof(float));
    float* sum = sum_scratch.floats();
    std::fill(sum, sum + std::max<size_t>(mine.count, 1), 0.0f);
    auto next_member = [&](size_t j) -> int {
      for (size_t k = j + 1; k < m; ++k) {
        if (static_cast<int>(k) != i) return static_cast<int>(k);
      }
      return -1;
    };
    for (size_t j = 0; j < m; ++j) {
      const std::vector<uint8_t>* pj = &own_partition_payload;
      if (static_cast<int>(j) != i) {
        if (!pending.valid()) {
          pending = group->PostRecv(ranks[j], ctx->rank, MakeTag(space, 0),
                                    &rxbufs[cur]);
        }
        RETURN_IF_ERROR(group->Wait(&pending));
        pending = TransportHandle();
        pj = &rxbufs[cur];
        cur ^= 1;
        const int nj = next_member(j);
        if (nj >= 0) {
          pending = group->PostRecv(ranks[nj], ctx->rank, MakeTag(space, 0),
                                    &rxbufs[cur]);
        }
      }
      RETURN_IF_ERROR(
          codec.DecompressAdd(pj->data(), pj->size(), mine.count, sum));
    }

    // Apply server-side error compensation and re-compress the merged
    // partition: out = Q(Σ + ε), ε' = (Σ + ε) − out.
    if (state != nullptr && state->server_err.defined()) {
      BAGUA_CHECK_EQ(state->server_err.numel(), mine.count);
      Add(sum, state->server_err.data(), sum, mine.count);
    }
    RETURN_IF_ERROR(codec.Compress(sum, mine.count, &rng, &payload));
    if (state != nullptr && state->server_err.defined()) {
      float* err = state->server_err.data();
      RETURN_IF_ERROR(
          codec.Decompress(payload.data(), payload.size(), mine.count, err));
      for (size_t k = 0; k < mine.count; ++k) err[k] = sum[k] - err[k];
    }

    // Phase 3: every server broadcasts its merged partition; decode
    // straight into x'. Same double-buffered shape: the next partition is
    // in flight while the current one decodes.
    {
      TraceSpan span(ctx->rank, TraceStream::kComm, "scatter_reduce.bcast",
                     (m - 1) * payload.size());
      TraceCountBytes(ctx->rank, "primitive.scatter_reduce.bytes",
                      (m - 1) * payload.size());
      for (size_t j = 0; j < m; ++j) {
        if (static_cast<int>(j) == i) continue;
        RETURN_IF_ERROR(group->Send(ctx->rank, ranks[j], MakeTag(space, 1),
                                    payload.data(), payload.size()));
      }
    }
    RETURN_IF_ERROR(codec.Decompress(payload.data(), payload.size(),
                                     mine.count, data + mine.begin));
    for (size_t j = 0; j < m; ++j) {
      if (static_cast<int>(j) == i) continue;
      if (!pending.valid()) {
        pending = group->PostRecv(ranks[j], ctx->rank, MakeTag(space, 1),
                                  &rxbufs[cur]);
      }
      RETURN_IF_ERROR(group->Wait(&pending));
      pending = TransportHandle();
      const std::vector<uint8_t>& rx = rxbufs[cur];
      cur ^= 1;
      const int nj = next_member(j);
      if (nj >= 0) {
        pending = group->PostRecv(ranks[nj], ctx->rank, MakeTag(space, 1),
                                  &rxbufs[cur]);
      }
      const Chunk c = ChunkOf(n, m, j);
      RETURN_IF_ERROR(
          codec.Decompress(rx.data(), rx.size(), c.count, data + c.begin));
    }
    return Status::OK();
  }();

  group->Recycle(std::move(payload));
  group->Recycle(std::move(own_partition_payload));
  group->Recycle(std::move(rxbufs[0]));
  group->Recycle(std::move(rxbufs[1]));
  return st;
}

/// Resolves this step's peer set for the decentralized primitives.
/// All members of `ranks` derive identical pairings from the shared rng.
std::vector<int> SelectPeers(CommContext* ctx, const std::vector<int>& ranks,
                             PeerSelection selection) {
  const size_t m = ranks.size();
  const int i = IndexIn(ranks, ctx->rank);
  std::vector<int> peers;
  if (m <= 1 || i < 0) return peers;
  if (selection == PeerSelection::kRing) {
    const int left = ranks[(i + m - 1) % m];
    const int right = ranks[(i + 1) % m];
    peers.push_back(left);
    if (right != left) peers.push_back(right);
    return peers;
  }
  // Random perfect matching, identical on every rank: shuffle the group
  // with the shared per-step rng and pair consecutive entries.
  Rng rng = ctx->MakeSharedRng();
  std::vector<uint32_t> perm(m);
  rng.Permutation(m, perm.data());
  for (size_t k = 0; k + 1 < m; k += 2) {
    const int a = ranks[perm[k]], b = ranks[perm[k + 1]];
    if (a == ctx->rank) peers.push_back(b);
    if (b == ctx->rank) peers.push_back(a);
  }
  return peers;  // empty for the odd rank out
}

/// Pairwise exchange-and-average with `peers`, optionally through a codec.
Status DecenExchange(CommContext* ctx, const std::vector<int>& peers,
                     const Compressor* codec, float* data, size_t n,
                     uint32_t space) {
  if (peers.empty()) return Status::OK();
  TransportGroup* group = ctx->group();
  Rng rng = ctx->MakeRankRng();

  // Recycled workspaces: payload (our model, possibly compressed) and the
  // receive vector cycle through the transport pool; the double
  // accumulator and decode buffer come from the comm arena — so the
  // gossip steady state allocates nothing.
  std::vector<uint8_t> payload = group->AcquireBuffer(
      codec != nullptr ? codec->CompressedBytes(n) : n * sizeof(float));
  ArenaScratch acc_scratch(&CommArena(), n * sizeof(double));
  double* acc = acc_scratch.doubles();
  ArenaScratch decode_scratch(&CommArena(), n * sizeof(float));
  float* decoded = decode_scratch.floats();
  std::vector<uint8_t> rx;

  Status st = [&]() -> Status {
    if (codec != nullptr) {
      RETURN_IF_ERROR(codec->Compress(data, n, &rng, &payload));
    } else {
      payload.resize(n * sizeof(float));
      std::memcpy(payload.data(), data, payload.size());
    }
    for (int p : peers) {
      if (!group->IsAlive(p)) continue;  // dead peer: no point shipping bytes
      // The peer index in the span name makes decentralized traces
      // seed-sensitive: a different peer matching is a visibly different
      // schedule, which the golden-determinism tests rely on.
      TraceSpan span(ctx->rank, TraceStream::kComm, "decen.peer",
                     payload.size(), p);
      TraceCountBytes(ctx->rank, "primitive.decen.bytes", payload.size());
      RETURN_IF_ERROR(group->Send(ctx->rank, p, MakeTag(space, 2),
                                  payload.data(), payload.size()));
    }
    for (size_t k = 0; k < n; ++k) acc[k] = data[k];
    size_t contributions = 0;
    TransportHandle pending;
    for (size_t pi = 0; pi < peers.size(); ++pi) {
      // The next peer's receive is posted before this payload is decoded
      // and accumulated (descriptor-level pipelining; peer order — and
      // therefore the accumulation order — is unchanged).
      if (!pending.valid()) {
        pending =
            group->PostRecv(peers[pi], ctx->rank, MakeTag(space, 2), &rx);
      }
      const Status recv = group->Wait(&pending);
      pending = TransportHandle();
      if (pi + 1 < peers.size()) {
        pending =
            group->PostRecv(peers[pi + 1], ctx->rank, MakeTag(space, 2), &rx);
      }
      if (recv.IsDataLoss()) {
        // Peer died mid-exchange: graceful degradation — average over the
        // survivors instead of aborting (decentralized SGD tolerates a
        // shrinking peer set; see §4's partial-averaging argument).
        continue;
      }
      RETURN_IF_ERROR(recv);
      if (codec != nullptr) {
        RETURN_IF_ERROR(
            codec->Decompress(rx.data(), rx.size(), n, decoded));
      } else {
        if (rx.size() != n * sizeof(float)) {
          return Status::Internal("decentralized payload size mismatch");
        }
        std::memcpy(decoded, rx.data(), rx.size());
      }
      for (size_t k = 0; k < n; ++k) acc[k] += decoded[k];
      ++contributions;
    }
    const double inv = 1.0 / static_cast<double>(contributions + 1);
    for (size_t k = 0; k < n; ++k) {
      data[k] = static_cast<float>(acc[k] * inv);
    }
    return Status::OK();
  }();

  group->Recycle(std::move(payload));
  group->Recycle(std::move(rx));
  return st;
}

/// Decentralized execution shared by D_FP_S and D_LP_S (codec == nullptr
/// for full precision).
Status DecenExec(CommContext* ctx, const Compressor* codec,
                 PeerSelection selection, float* data, size_t n) {
  const uint32_t space = ctx->NextSpace();
  const ClusterTopology& topo = ctx->topo();
  if (!ctx->hierarchical || topo.devices_per_node == 1) {
    const auto ranks = WorldRanks(topo);
    const auto peers = SelectPeers(ctx, ranks, selection);
    return DecenExchange(ctx, peers, codec, data, n, space);
  }
  // Hierarchical (§3.4): workers within a node switch to centralized
  // allreduce; only leaders run the decentralized exchange. The intra-node
  // phases ride the same topology-aware selection as C_FP_S / C_LP_S.
  const auto node_ranks = NodeRanks(topo, ctx->rank);
  RETURN_IF_ERROR(GroupAllreduceAuto(ctx->group(), node_ranks, ctx->rank,
                                     space, data, n));
  Scale(data, 1.0f / static_cast<float>(topo.devices_per_node), n);
  if (topo.IsLeader(ctx->rank)) {
    const auto leaders = LeaderRanks(topo);
    // Make the shared rng agree between flat and hierarchical modes by
    // selecting within the leader group.
    CommContext leader_ctx = *ctx;
    const auto peers = SelectPeers(&leader_ctx, leaders, selection);
    RETURN_IF_ERROR(DecenExchange(ctx, peers, codec, data, n, space + 1));
  }
  return GroupBroadcastAuto(ctx->group(), node_ranks, ctx->rank, 0, space + 2,
                            data, n);
}

}  // namespace

Result<ClpsState> InitClpsState(const CommContext& ctx, size_t n) {
  ClpsState state;
  const ClusterTopology& topo = ctx.topo();
  if (ctx.hierarchical && topo.devices_per_node > 1) {
    if (!topo.IsLeader(ctx.rank)) return state;  // undefined tensors: unused
    const int m = topo.num_nodes;
    const int index = topo.NodeOf(ctx.rank);
    const Chunk c = ChunkOf(n, m, index);
    state.worker_err = Tensor::Zeros({n}, "clps.delta");
    state.server_err = Tensor::Zeros({c.count}, "clps.epsilon");
    return state;
  }
  const int m = topo.world_size();
  const Chunk c = ChunkOf(n, m, ctx.rank);
  state.worker_err = Tensor::Zeros({n}, "clps.delta");
  state.server_err = Tensor::Zeros({c.count}, "clps.epsilon");
  return state;
}

Status CFpS(CommContext* ctx, float* data, size_t n) {
  static const IdentityCompressor kIdentity;
  const uint32_t space = ctx->NextSpace();
  const ClusterTopology& topo = ctx->topo();
  if (!ctx->hierarchical || topo.devices_per_node == 1) {
    return ScatterReduceExec(ctx, WorldRanks(topo), kIdentity, data, n,
                             nullptr, space);
  }
  // Topology-aware selection (collectives/hierarchy.h): tree for small
  // tensors, hierarchical allreduce otherwise. All ranks derive the same
  // choice from (topo, n).
  return AllreduceAuto(ctx->group(), topo, ctx->rank, space, data, n);
}

Status CLpS(CommContext* ctx, const Compressor& codec, float* data, size_t n,
            ClpsState* state) {
  const uint32_t space = ctx->NextSpace();
  const ClusterTopology& topo = ctx->topo();
  if (!ctx->hierarchical || topo.devices_per_node == 1) {
    return ScatterReduceExec(ctx, WorldRanks(topo), codec, data, n, state,
                             space);
  }
  // Hierarchical C_LP_S (§3.4): aggregate inside the node at full precision,
  // exchange compressed among leaders, then broadcast within the node. The
  // intra-node phases go through the same topology-aware selection C_FP_S
  // uses (collectives/hierarchy.h): small payloads take the binomial tree,
  // large ones the pipelined ring; the broadcast trees for > 2 devices.
  const auto node_ranks = NodeRanks(topo, ctx->rank);
  RETURN_IF_ERROR(GroupAllreduceAuto(ctx->group(), node_ranks, ctx->rank,
                                     space, data, n));
  if (topo.IsLeader(ctx->rank)) {
    RETURN_IF_ERROR(ScatterReduceExec(ctx, LeaderRanks(topo), codec, data, n,
                                      state, space + 1));
  }
  return GroupBroadcastAuto(ctx->group(), node_ranks, ctx->rank, 0, space + 2,
                            data, n);
}

Status DFpS(CommContext* ctx, PeerSelection peers, float* data, size_t n) {
  return DecenExec(ctx, nullptr, peers, data, n);
}

Status DLpS(CommContext* ctx, const Compressor& codec, PeerSelection peers,
            float* data, size_t n) {
  return DecenExec(ctx, &codec, peers, data, n);
}

double EstimateCFpSCost(const ClusterTopology& topo, const NetworkConfig& net,
                        double bytes, bool hierarchical) {
  if (hierarchical && topo.devices_per_node > 1) {
    switch (ChooseAllreduceAlgo(topo, static_cast<size_t>(bytes))) {
      case AllreduceAlgo::kTree:
        return TreeAllreduceCost(topo, net, topo.world_size(), bytes);
      case AllreduceAlgo::kHierarchical:
        return HierRingAllreduceCost(topo, net, bytes);
      case AllreduceAlgo::kFlatRing:
        return RingAllreduceCost(topo, net, bytes);
    }
  }
  return ScatterReduceCost(topo, net, bytes, bytes);
}

double EstimateCLpSCost(const ClusterTopology& topo, const NetworkConfig& net,
                        const Compressor& codec, size_t numel,
                        bool hierarchical) {
  const double full_bytes = static_cast<double>(numel) * sizeof(float);
  if (hierarchical && topo.devices_per_node > 1) {
    // Wire bytes among leaders: one compressed copy of the tensor per phase.
    const size_t m = topo.num_nodes;
    double wire = 0.0;
    for (size_t j = 0; j < static_cast<size_t>(m); ++j) {
      wire += static_cast<double>(
          codec.CompressedBytes(ChunkOf(numel, m, j).count));
    }
    return IntraNodeAllreduceCost(topo, net, full_bytes) +
           LeaderScatterReduceCost(topo, net, wire, wire) +
           IntraNodeBroadcastCost(topo, net, full_bytes);
  }
  const size_t m = topo.world_size();
  double wire = 0.0;
  for (size_t j = 0; j < static_cast<size_t>(m); ++j) {
    wire += static_cast<double>(
        codec.CompressedBytes(ChunkOf(numel, m, j).count));
  }
  return ScatterReduceCost(topo, net, wire, wire);
}

double EstimateDecenCost(const ClusterTopology& topo, const NetworkConfig& net,
                         PeerSelection peers, double full_bytes,
                         double wire_bytes, bool hierarchical) {
  if (peers == PeerSelection::kRing) {
    return DecenRingCost(topo, net, full_bytes, wire_bytes, hierarchical);
  }
  return DecenRandomCost(topo, net, full_bytes, wire_bytes, hierarchical);
}

}  // namespace bagua
