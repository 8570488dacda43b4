#ifndef BAGUA_SIM_COLLECTIVE_COST_H_
#define BAGUA_SIM_COLLECTIVE_COST_H_

#include "sim/network.h"
#include "sim/topology.h"

namespace bagua {

/// Cost functions pricing one execution of each communication pattern used
/// by the primitives and baseline systems. All take the *full-precision*
/// per-rank tensor size in bytes unless stated otherwise; compressed phases
/// take their compressed sizes explicitly so codecs stay decoupled from the
/// network model.
///
/// Every cost is assembled from FlowSetTime over the actual flow sets of
/// the pattern, so NIC contention, NVLink, and latency counts are derived
/// rather than hand-tuned per collective.

/// Flat ring allreduce over all `world` ranks (reduce-scatter + allgather,
/// 2(world-1) steps). This is the PyTorch-DDP / Horovod pattern.
double RingAllreduceCost(const ClusterTopology& topo, const NetworkConfig& net,
                         double bytes);

/// Ring allreduce among the device ranks of every node concurrently
/// (NVLink only).
double IntraNodeAllreduceCost(const ClusterTopology& topo,
                              const NetworkConfig& net, double bytes);

/// Ring allreduce among the node leaders only (NIC only).
double LeaderRingAllreduceCost(const ClusterTopology& topo,
                               const NetworkConfig& net, double bytes);

/// Leader broadcasts `bytes` to the other devices of its node (NVLink).
double IntraNodeBroadcastCost(const ClusterTopology& topo,
                              const NetworkConfig& net, double bytes);

/// Hierarchical allreduce: intra-node allreduce, leader ring allreduce,
/// intra-node broadcast. The H optimization of §3.4 applied to C_FP_S.
double HierAllreduceCost(const ClusterTopology& topo, const NetworkConfig& net,
                         double bytes);

/// Members stream their whole vector to the node leader, which serializes
/// the (d-1) receives on its NVLink ingress:
///   T = alpha_intra + (d-1) * (o_intra + bytes / bw_intra)
/// This is the intra phase collectives/hierarchy.h actually runs (reduce to
/// the leader), as opposed to IntraNodeAllreduceCost's symmetric ring.
double IntraNodeReduceCost(const ClusterTopology& topo,
                           const NetworkConfig& net, double bytes);

/// Closed-form cost of HierarchicalAllreduce (collectives/hierarchy.h):
/// intra-node reduce to the leader, pipelined leader ring, intra-node
/// broadcast. Differs from HierAllreduceCost in pricing the intra tier as
/// the leader-serialized reduce/broadcast the implementation uses rather
/// than a symmetric intra ring.
double HierRingAllreduceCost(const ClusterTopology& topo,
                             const NetworkConfig& net, double bytes);

/// \name Binomial-tree closed forms (collectives/hierarchy.h)
/// `m` member ranks spread over the topology; the tier is the NIC whenever
/// the tree spans nodes, NVLink otherwise. The gather-tree reduce pays
/// ceil(log2 m) rounds of latency+overhead plus (m-1) member vectors
/// serialized through the root's ingress port; the broadcast pays the
/// full vector once per round.
/// @{
double TreeReduceCost(const ClusterTopology& topo, const NetworkConfig& net,
                      int m, double bytes);
double TreeBroadcastCost(const ClusterTopology& topo, const NetworkConfig& net,
                         int m, double bytes);
double TreeAllreduceCost(const ClusterTopology& topo, const NetworkConfig& net,
                         int m, double bytes);
/// @}

/// All-to-all over `ranks`: every rank sends `bytes_per_pair` to every
/// other, all flows concurrent. Used by ScatterReduce's two phases and by
/// the sharded-embedding serving pricer (serve/pricing.h).
double AllToAllCost(const ClusterTopology& topo, const NetworkConfig& net,
                    const std::vector<int>& ranks, double bytes_per_pair);

/// Flat ScatterReduce (§3.3) over all ranks: all-to-all of per-rank
/// partitions (phase 1), then all-to-all of merged partitions (phase 2).
/// `phase1_bytes` / `phase2_bytes` are the *total per-rank payload* bytes in
/// each phase (i.e. already compressed if the caller compresses).
double ScatterReduceCost(const ClusterTopology& topo, const NetworkConfig& net,
                         double phase1_bytes, double phase2_bytes);

/// ScatterReduce among node leaders only.
double LeaderScatterReduceCost(const ClusterTopology& topo,
                               const NetworkConfig& net, double phase1_bytes,
                               double phase2_bytes);

/// Decentralized ring exchange: every rank sends its whole (possibly
/// compressed) tensor of `bytes` to both ring neighbors.
/// With `hierarchical`, nodes first allreduce internally and only leaders
/// exchange on the inter-node ring, then broadcast (per §3.4: "for
/// decentralized primitives, the workers within a node would always be
/// changed to the centralized Allreduce fashion").
double DecenRingCost(const ClusterTopology& topo, const NetworkConfig& net,
                     double full_bytes, double wire_bytes, bool hierarchical);

/// Decentralized random-peer exchange (the "random probing" strategy):
/// every rank swaps tensors with one pseudo-randomly chosen peer.
double DecenRandomCost(const ClusterTopology& topo, const NetworkConfig& net,
                       double full_bytes, double wire_bytes,
                       bool hierarchical);

/// Parameter-server push+pull of `bytes` per worker against `num_servers`
/// shards (one per node, BytePS-style). If `intra_aggregated`, each node
/// locally reduces before pushing (BytePS's local communication), so the
/// NIC carries one copy per node instead of one per device.
double PsPushPullCost(const ClusterTopology& topo, const NetworkConfig& net,
                      double bytes, int num_servers, bool intra_aggregated);

/// \name Discrete-event pricers
///
/// Segment-level recurrence simulations of the actual pipelined
/// implementations: every message occupies its sender's egress port for
/// o + seg/bw, arrives alpha later, and a segment may not be forwarded
/// before it has been received (the data dependency the transport
/// enforces). These resolve the pipelining the closed forms approximate —
/// tests/scale_model_test.cc checks the two agree, and bench_scalability
/// sweeps them to 2048 simulated ranks for the crossover table.
/// @{

/// Pipelined ring allreduce over `ranks` (2(m-1) steps x `segments`
/// wire segments, as collectives/RingAllreduce runs).
double DesRingAllreduceTime(const ClusterTopology& topo,
                            const NetworkConfig& net,
                            const std::vector<int>& ranks, double bytes,
                            int segments);

/// HierarchicalAllreduce: leader-serialized segmented intra reduce, DES
/// leader ring, segmented intra broadcast.
double DesHierAllreduceTime(const ClusterTopology& topo,
                            const NetworkConfig& net, double bytes,
                            int segments);

/// TreeAllreduce over all ranks of `topo`: binomial gather with ingress
/// serialization at every parent, then the mirrored broadcast with egress
/// serialization (largest subtree first, as the implementation sends).
double DesTreeAllreduceTime(const ClusterTopology& topo,
                            const NetworkConfig& net, double bytes);

/// Intra-aggregated parameter server: local reduce, sharded push, server
/// aggregation at ps_server_reduce_Bps, sharded pull, local broadcast.
double DesPsPushPullTime(const ClusterTopology& topo, const NetworkConfig& net,
                         double bytes);

/// @}

}  // namespace bagua

#endif  // BAGUA_SIM_COLLECTIVE_COST_H_
