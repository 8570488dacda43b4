#include "sim/collective_cost.h"

#include <algorithm>
#include <vector>

namespace bagua {

namespace {

std::vector<int> AllRanks(const ClusterTopology& topo) {
  std::vector<int> ranks(topo.world_size());
  for (int r = 0; r < topo.world_size(); ++r) ranks[r] = r;
  return ranks;
}

std::vector<int> LeaderRanks(const ClusterTopology& topo) {
  std::vector<int> ranks(topo.num_nodes);
  for (int n = 0; n < topo.num_nodes; ++n) ranks[n] = n * topo.devices_per_node;
  return ranks;
}

/// Ring allreduce over an explicit rank list, pipelined alpha-beta model
/// (NCCL slices the buffer, so latency is the critical path twice around
/// the ring, not 2(n-1) synchronous steps):
///   T = 2 * sum(link latencies) + 2 * S * (n-1) / (n * B_bottleneck)
/// The bottleneck link is the NIC whenever the ring crosses nodes (each
/// NIC carries exactly one ring flow per direction), NVLink otherwise.
double RingAllreduceOver(const ClusterTopology& topo, const NetworkConfig& net,
                         const std::vector<int>& ranks, double bytes) {
  const size_t n = ranks.size();
  if (n <= 1) return 0.0;
  double path_latency = 0.0;
  // Per-message endpoint overhead: each hop injects one message per trip
  // around the ring, so the critical path pays the sum of per-hop o just
  // like it pays the sum of per-hop alpha. Zero by default.
  double path_overhead = 0.0;
  bool crosses_nodes = false;
  for (size_t i = 0; i < n; ++i) {
    const int a = ranks[i], b = ranks[(i + 1) % n];
    if (topo.SameNode(a, b)) {
      path_latency += net.intra_latency_s;
      path_overhead += net.intra_msg_overhead_s;
    } else {
      path_latency += net.inter_latency_s;
      path_overhead += net.inter_msg_overhead_s;
      crosses_nodes = true;
    }
  }
  const double bw = crosses_nodes ? net.inter_bw_Bps : net.intra_bw_Bps;
  const double frac = static_cast<double>(n - 1) / static_cast<double>(n);
  return 2.0 * (path_latency + path_overhead) + 2.0 * bytes * frac / bw;
}

/// Per-tier parameters of one binomial round at rank offset `off` in a
/// node-major layout: offsets below devices_per_node stay inside a node
/// (NVLink), larger offsets cross the NIC.
struct Tier {
  double alpha, bw, overhead;
};

Tier TreeRoundTier(const ClusterTopology& topo, const NetworkConfig& net,
                   int off) {
  if (topo.num_nodes > 1 && off >= topo.devices_per_node) {
    return {net.inter_latency_s, net.inter_bw_Bps, net.inter_msg_overhead_s};
  }
  return {net.intra_latency_s, net.intra_bw_Bps, net.intra_msg_overhead_s};
}

}  // namespace

double AllToAllCost(const ClusterTopology& topo, const NetworkConfig& net,
                    const std::vector<int>& ranks, double bytes_per_pair) {
  std::vector<Flow> flows;
  flows.reserve(ranks.size() * ranks.size());
  for (int src : ranks) {
    for (int dst : ranks) {
      if (src != dst) flows.push_back({src, dst, bytes_per_pair});
    }
  }
  return FlowSetTime(topo, net, flows);
}

double RingAllreduceCost(const ClusterTopology& topo, const NetworkConfig& net,
                         double bytes) {
  return RingAllreduceOver(topo, net, AllRanks(topo), bytes);
}

double IntraNodeAllreduceCost(const ClusterTopology& topo,
                              const NetworkConfig& net, double bytes) {
  const int d = topo.devices_per_node;
  if (d <= 1) return 0.0;
  // All nodes run their intra ring concurrently; cost equals one node's
  // NVLink ring (pipelined alpha-beta, as RingAllreduceOver).
  const double frac = static_cast<double>(d - 1) / static_cast<double>(d);
  return 2.0 * d * net.intra_latency_s + 2.0 * bytes * frac / net.intra_bw_Bps;
}

double LeaderRingAllreduceCost(const ClusterTopology& topo,
                               const NetworkConfig& net, double bytes) {
  return RingAllreduceOver(topo, net, LeaderRanks(topo), bytes);
}

double IntraNodeBroadcastCost(const ClusterTopology& topo,
                              const NetworkConfig& net, double bytes) {
  const int d = topo.devices_per_node;
  if (d <= 1) return 0.0;
  std::vector<Flow> flows;
  for (int n = 0; n < topo.num_nodes; ++n) {
    const int leader = n * d;
    for (int i = 1; i < d; ++i) flows.push_back({leader, n * d + i, bytes});
  }
  return FlowSetTime(topo, net, flows);
}

double HierAllreduceCost(const ClusterTopology& topo, const NetworkConfig& net,
                         double bytes) {
  return IntraNodeAllreduceCost(topo, net, bytes) +
         LeaderRingAllreduceCost(topo, net, bytes) +
         IntraNodeBroadcastCost(topo, net, bytes);
}

double IntraNodeReduceCost(const ClusterTopology& topo,
                           const NetworkConfig& net, double bytes) {
  const int d = topo.devices_per_node;
  if (d <= 1) return 0.0;
  return net.intra_latency_s +
         static_cast<double>(d - 1) *
             (net.intra_msg_overhead_s + bytes / net.intra_bw_Bps);
}

double HierRingAllreduceCost(const ClusterTopology& topo,
                             const NetworkConfig& net, double bytes) {
  return IntraNodeReduceCost(topo, net, bytes) +
         LeaderRingAllreduceCost(topo, net, bytes) +
         IntraNodeBroadcastCost(topo, net, bytes);
}

double TreeReduceCost(const ClusterTopology& topo, const NetworkConfig& net,
                      int m, double bytes) {
  if (m <= 1) return 0.0;
  // The critical chain is the root's serialized ingress: one message per
  // round (the child at rank offset 2^k, carrying its whole subtree of
  // min(2^k, m - 2^k) member vectors), each on that round's tier.
  double cost = 0.0;
  for (int off = 1; off < m; off <<= 1) {
    const Tier t = TreeRoundTier(topo, net, off);
    const double subtree = std::min(off, m - off);
    cost += t.alpha + t.overhead + subtree * bytes / t.bw;
  }
  return cost;
}

double TreeBroadcastCost(const ClusterTopology& topo, const NetworkConfig& net,
                         int m, double bytes) {
  if (m <= 1) return 0.0;
  // One full-vector message per round down the deepest branch.
  double cost = 0.0;
  for (int off = 1; off < m; off <<= 1) {
    const Tier t = TreeRoundTier(topo, net, off);
    cost += t.alpha + t.overhead + bytes / t.bw;
  }
  return cost;
}

double TreeAllreduceCost(const ClusterTopology& topo, const NetworkConfig& net,
                         int m, double bytes) {
  return TreeReduceCost(topo, net, m, bytes) +
         TreeBroadcastCost(topo, net, m, bytes);
}

double ScatterReduceCost(const ClusterTopology& topo, const NetworkConfig& net,
                         double phase1_bytes, double phase2_bytes) {
  const auto ranks = AllRanks(topo);
  const double n = static_cast<double>(ranks.size());
  if (ranks.size() <= 1) return 0.0;
  return AllToAllCost(topo, net, ranks, phase1_bytes / n) +
         AllToAllCost(topo, net, ranks, phase2_bytes / n);
}

double LeaderScatterReduceCost(const ClusterTopology& topo,
                               const NetworkConfig& net, double phase1_bytes,
                               double phase2_bytes) {
  const auto ranks = LeaderRanks(topo);
  const double n = static_cast<double>(ranks.size());
  if (ranks.size() <= 1) return 0.0;
  return AllToAllCost(topo, net, ranks, phase1_bytes / n) +
         AllToAllCost(topo, net, ranks, phase2_bytes / n);
}

double DecenRingCost(const ClusterTopology& topo, const NetworkConfig& net,
                     double full_bytes, double wire_bytes, bool hierarchical) {
  if (hierarchical) {
    // Intra-node allreduce (full precision), leaders exchange on the
    // inter-node ring, then broadcast inside each node.
    const auto leaders = LeaderRanks(topo);
    std::vector<Flow> flows;
    const size_t m = leaders.size();
    for (size_t i = 0; i < m; ++i) {
      flows.push_back({leaders[i], leaders[(i + 1) % m], wire_bytes});
      flows.push_back({leaders[(i + 1) % m], leaders[i], wire_bytes});
    }
    return IntraNodeAllreduceCost(topo, net, full_bytes) +
           FlowSetTime(topo, net, flows) +
           IntraNodeBroadcastCost(topo, net, full_bytes);
  }
  const auto ranks = AllRanks(topo);
  std::vector<Flow> flows;
  const size_t n = ranks.size();
  for (size_t i = 0; i < n; ++i) {
    flows.push_back({ranks[i], ranks[(i + 1) % n], wire_bytes});
    flows.push_back({ranks[(i + 1) % n], ranks[i], wire_bytes});
  }
  return FlowSetTime(topo, net, flows);
}

double DecenRandomCost(const ClusterTopology& topo, const NetworkConfig& net,
                       double full_bytes, double wire_bytes,
                       bool hierarchical) {
  if (hierarchical) {
    // Leaders pair up pseudo-randomly; with >= 2 nodes nearly every pairing
    // crosses the NIC, so model the representative perfect matching where
    // node i swaps with node (i + m/2) mod m.
    const auto leaders = LeaderRanks(topo);
    const size_t m = leaders.size();
    std::vector<Flow> flows;
    if (m > 1) {
      const size_t half = std::max<size_t>(1, m / 2);
      for (size_t i = 0; i < m; ++i) {
        const size_t peer = (i + half) % m;
        flows.push_back({leaders[i], leaders[peer], wire_bytes});
      }
    }
    return IntraNodeAllreduceCost(topo, net, full_bytes) +
           FlowSetTime(topo, net, flows) +
           IntraNodeBroadcastCost(topo, net, full_bytes);
  }
  const auto ranks = AllRanks(topo);
  const size_t n = ranks.size();
  std::vector<Flow> flows;
  if (n > 1) {
    const size_t half = std::max<size_t>(1, n / 2);
    for (size_t i = 0; i < n; ++i) {
      flows.push_back({ranks[i], ranks[(i + half) % n], wire_bytes});
    }
  }
  return FlowSetTime(topo, net, flows);
}

double PsPushPullCost(const ClusterTopology& topo, const NetworkConfig& net,
                      double bytes, int num_servers, bool intra_aggregated) {
  if (num_servers <= 0) num_servers = topo.num_nodes;
  // Server shard s lives on node (s % num_nodes), local rank 0 stands in for
  // the co-located server process.
  std::vector<Flow> push, pull;
  const double per_server = bytes / static_cast<double>(num_servers);
  auto server_rank = [&](int s) {
    return (s % topo.num_nodes) * topo.devices_per_node;
  };
  // Each shard must sum what its pushers send before serving pulls; with a
  // finite ps_server_reduce_Bps (BytePS CPU summation) the shards reduce in
  // parallel, each over its total ingress bytes. Zero keeps it free.
  auto server_reduce = [&](int pushers) {
    if (net.ps_server_reduce_Bps <= 0.0) return 0.0;
    return static_cast<double>(pushers) * per_server / net.ps_server_reduce_Bps;
  };
  if (intra_aggregated) {
    // One pusher per node (after local reduce); pull is one copy per node.
    for (int nd = 0; nd < topo.num_nodes; ++nd) {
      const int pusher = nd * topo.devices_per_node;
      for (int s = 0; s < num_servers; ++s) {
        push.push_back({pusher, server_rank(s), per_server});
        pull.push_back({server_rank(s), pusher, per_server});
      }
    }
    const double local =
        IntraNodeAllreduceCost(topo, net, bytes) +
        IntraNodeBroadcastCost(topo, net, bytes);
    return local + FlowSetTime(topo, net, push) +
           server_reduce(topo.num_nodes) + FlowSetTime(topo, net, pull);
  }
  for (int w = 0; w < topo.world_size(); ++w) {
    for (int s = 0; s < num_servers; ++s) {
      push.push_back({w, server_rank(s), per_server});
      pull.push_back({server_rank(s), w, per_server});
    }
  }
  return FlowSetTime(topo, net, push) + server_reduce(topo.world_size()) +
         FlowSetTime(topo, net, pull);
}

namespace {

/// Link parameters of the directed hop a->b.
struct Hop {
  double alpha, bw, overhead;
};

Hop HopOf(const ClusterTopology& topo, const NetworkConfig& net, int a,
          int b) {
  if (topo.SameNode(a, b)) {
    return {net.intra_latency_s, net.intra_bw_Bps, net.intra_msg_overhead_s};
  }
  return {net.inter_latency_s, net.inter_bw_Bps, net.inter_msg_overhead_s};
}

// Binomial-tree shape helpers, duplicated from collectives/hierarchy.cc
// because bagua_sim deliberately sits below bagua_collectives in the link
// order. tests/scale_model_test.cc pins the two shapes against each other.
size_t DesLowBit(size_t q) { return q & (~q + size_t{1}); }

size_t DesSubtreeSize(size_t q, size_t m) {
  if (q == 0) return m;
  return std::min(DesLowBit(q), m - q);
}

std::vector<size_t> DesChildrenOf(size_t q, size_t m) {
  std::vector<size_t> children;
  const size_t limit = (q == 0) ? m : DesLowBit(q);
  for (size_t off = 1; off < limit && q + off < m; off <<= 1) {
    children.push_back(q + off);
  }
  return children;
}

}  // namespace

double DesRingAllreduceTime(const ClusterTopology& topo,
                            const NetworkConfig& net,
                            const std::vector<int>& ranks, double bytes,
                            int segments) {
  const size_t m = ranks.size();
  if (m <= 1 || bytes <= 0.0) return 0.0;
  const int G = std::max(1, segments);
  const double seg_bytes = bytes / static_cast<double>(m) / G;

  // done[i][g]: when ring index i holds segment g of the chunk it must
  // forward next step. Everything is local at t=0.
  std::vector<std::vector<double>> done(m, std::vector<double>(G, 0.0));
  std::vector<double> link_free(m, 0.0);
  for (size_t s = 0; s < 2 * (m - 1); ++s) {
    std::vector<std::vector<double>> next_done(m,
                                               std::vector<double>(G, 0.0));
    for (size_t i = 0; i < m; ++i) {
      const size_t ni = (i + 1) % m;
      const Hop hop = HopOf(topo, net, ranks[i], ranks[ni]);
      const double tau = seg_bytes / hop.bw;
      for (int g = 0; g < G; ++g) {
        const double start = std::max(link_free[i], done[i][g]);
        link_free[i] = start + hop.overhead + tau;
        next_done[ni][g] = link_free[i] + hop.alpha;
      }
    }
    done.swap(next_done);
  }
  double makespan = 0.0;
  for (const auto& row : done) {
    for (double t : row) makespan = std::max(makespan, t);
  }
  return makespan;
}

double DesHierAllreduceTime(const ClusterTopology& topo,
                            const NetworkConfig& net, double bytes,
                            int segments) {
  const int d = topo.devices_per_node;
  const int G = std::max(1, segments);
  std::vector<int> leaders(topo.num_nodes);
  for (int k = 0; k < topo.num_nodes; ++k) {
    leaders[k] = k * topo.devices_per_node;
  }
  // Segmented leader-serialized intra phases: the leader port moves the
  // (d-1) member vectors back to back, paying o per segment message and
  // one alpha for the pipeline fill.
  double intra_phase = 0.0;
  if (d > 1) {
    intra_phase = net.intra_latency_s +
                  static_cast<double>(d - 1) *
                      (G * net.intra_msg_overhead_s + bytes / net.intra_bw_Bps);
  }
  double ring = 0.0;
  if (topo.num_nodes > 1) {
    ring = DesRingAllreduceTime(topo, net, leaders, bytes, G);
  }
  return 2.0 * intra_phase + ring;
}

double DesTreeAllreduceTime(const ClusterTopology& topo,
                            const NetworkConfig& net, double bytes) {
  const size_t m = static_cast<size_t>(topo.world_size());
  if (m <= 1 || bytes <= 0.0) return 0.0;

  // Gather: child q's whole subtree payload arrives at its parent in one
  // message; a parent's ingress serializes its children ascending (the
  // implementation's receive order).
  std::vector<double> gathered(m, 0.0);
  for (size_t q = m; q-- > 0;) {
    double ingress_free = 0.0;
    double ready = 0.0;
    for (size_t c : DesChildrenOf(q, m)) {
      const Hop hop =
          HopOf(topo, net, static_cast<int>(c), static_cast<int>(q));
      const double tau = DesSubtreeSize(c, m) * bytes / hop.bw;
      const double start = std::max(ingress_free, gathered[c]);
      ingress_free = start + hop.overhead + tau;
      ready = std::max(ready, ingress_free + hop.alpha);
    }
    gathered[q] = ready;
  }

  // Broadcast mirror: each parent's egress sends the full vector to its
  // children, largest subtree first.
  std::vector<double> have(m, 0.0);
  have[0] = gathered[0];
  double makespan = have[0];
  for (size_t q = 0; q < m; ++q) {
    auto children = DesChildrenOf(q, m);
    double egress_free = have[q];
    for (size_t k = children.size(); k-- > 0;) {
      const Hop hop = HopOf(topo, net, static_cast<int>(q),
                            static_cast<int>(children[k]));
      egress_free += hop.overhead + bytes / hop.bw;
      have[children[k]] = egress_free + hop.alpha;
      makespan = std::max(makespan, have[children[k]]);
    }
  }
  return makespan;
}

double DesPsPushPullTime(const ClusterTopology& topo, const NetworkConfig& net,
                         double bytes) {
  const int d = topo.devices_per_node;
  const int N = topo.num_nodes;
  if (topo.world_size() <= 1 || bytes <= 0.0) return 0.0;
  double local = 0.0;
  if (d > 1) {
    // Leader-serialized reduce in, broadcast out.
    local = 2.0 * (net.intra_latency_s +
                   static_cast<double>(d - 1) *
                       (net.intra_msg_overhead_s + bytes / net.intra_bw_Bps));
  }
  if (N <= 1) return local;
  // One shard per node; every leader exchanges bytes/N with each shard.
  // The co-located shard's slice never touches the NIC, so each direction
  // carries the off-node (N-1)/N fraction, in N messages per phase.
  const double phase =
      net.inter_latency_s + N * net.inter_msg_overhead_s +
      static_cast<double>(N - 1) / N * bytes / net.inter_bw_Bps;
  double reduce = 0.0;
  if (net.ps_server_reduce_Bps > 0.0) {
    reduce = bytes / net.ps_server_reduce_Bps;
  }
  return local + 2.0 * phase + reduce;
}

}  // namespace bagua
