#ifndef BAGUA_COMM_PRIMITIVES_H_
#define BAGUA_COMM_PRIMITIVES_H_

#include <vector>

#include "comm/context.h"
#include "compress/compressor.h"
#include "sim/network.h"
#include "tensor/tensor.h"

namespace bagua {

/// The four BAGUA communication primitives of §3.2. Each is an MPI-style
/// collective: all ranks call it together with their local tensor; on
/// return the tensor holds the primitive's output.
///
/// Costs: every primitive has a matching Estimate*Cost function that prices
/// one execution under the network model — the timing-mode twin of Exec.

/// \brief Error-compensation state for C_LP_S (Listing 2's
/// `init_states`): δ (worker-side, full size) and ε (server-side, sized to
/// this rank's aggregation partition).
struct ClpsState {
  Tensor worker_err;  ///< δ_i — error of compressing this rank's update.
  Tensor server_err;  ///< ε_i — error of compressing this rank's partition sum.
};

/// \brief Allocates zeroed δ/ε for an n-element tensor under `ctx`'s
/// topology and hierarchy setting.
Result<ClpsState> InitClpsState(const CommContext& ctx, size_t n);

/// C_FP_S — centralized, full precision, synchronous:
///   ∀i: x_i' = Σ_j x_j
/// Executed with the ScatterReduce pattern of §3.3 (flat) or intra-node
/// allreduce + leader ring + broadcast (hierarchical). A reduced-precision
/// wire is C_LP_S with a 16-bit codec (compress/half.h), not a C_FP_S mode.
Status CFpS(CommContext* ctx, float* data, size_t n);

/// C_LP_S — centralized, low precision, with optional error compensation:
///   ∀i: x_i' = Q(Σ_j Q(x_j − δ_j) − ε_i)           (plus δ/ε updates, §3.2)
/// Pass state == nullptr to disable error compensation:
///   ∀i: x_i' = Q(Σ_j Q(x_j))
/// Hierarchical execution (§3.4): full-precision intra-node aggregation,
/// compressed exchange among node leaders, intra-node broadcast.
Status CLpS(CommContext* ctx, const Compressor& codec, float* data, size_t n,
            ClpsState* state);

/// \brief Neighbor strategies for the decentralized primitives (§3.3).
enum class PeerSelection {
  kRing,    ///< exchange with ranks (i-1, i+1)
  kRandom,  ///< pseudo-random perfect matching, re-drawn each step
};

/// D_FP_S — decentralized, full precision:
///   ∀i: x_i' = mean of {x_i} ∪ {x_j : j ∈ N(i)}
/// (§3.3: "each worker sends the local tensor to peers, receives tensors
/// from peers, and calculates their average".)
Status DFpS(CommContext* ctx, PeerSelection peers, float* data, size_t n);

/// D_LP_S — decentralized, low precision: as D_FP_S but tensors are
/// compressed with Q before sending and decompressed after receiving.
Status DLpS(CommContext* ctx, const Compressor& codec, PeerSelection peers,
            float* data, size_t n);

/// --- timing-mode twins -----------------------------------------------

/// Communication time of one C_FP_S over an n*4-byte tensor.
double EstimateCFpSCost(const ClusterTopology& topo, const NetworkConfig& net,
                        double bytes, bool hierarchical);

/// Communication time of one C_LP_S; the codec determines wire sizes.
double EstimateCLpSCost(const ClusterTopology& topo, const NetworkConfig& net,
                        const Compressor& codec, size_t numel,
                        bool hierarchical);

/// Communication time of one D_FP_S / D_LP_S exchange.
double EstimateDecenCost(const ClusterTopology& topo, const NetworkConfig& net,
                         PeerSelection peers, double full_bytes,
                         double wire_bytes, bool hierarchical);

}  // namespace bagua

#endif  // BAGUA_COMM_PRIMITIVES_H_
