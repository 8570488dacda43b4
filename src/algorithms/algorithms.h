#ifndef BAGUA_ALGORITHMS_ALGORITHMS_H_
#define BAGUA_ALGORITHMS_ALGORITHMS_H_

#include <memory>
#include <string>
#include <vector>

#include "comm/primitives.h"
#include "compress/half.h"
#include "compress/onebit.h"
#include "compress/qsgd.h"
#include "core/algorithm.h"
#include "ps/server.h"

namespace bagua {

/// The six training algorithms the paper evaluates (§4.1, "BAGUA
/// Algorithms") plus two extensions (fp16 allreduce and LocalSGD,
/// the §3.2 discussion). Each is a thin composition over the four
/// communication primitives — which is the point of the abstraction.

/// \brief "Allreduce": standard synchronous DP-SG via C_FP_S.
/// Gradients are summed across workers, averaged, then applied.
class AllreduceAlgorithm : public Algorithm {
 public:
  AllreduceAlgorithm() = default;
  const std::string& name() const override { return name_; }
  AlgorithmTraits traits() const override { return {true, true, true, false}; }
  Status OnBucketReady(BaguaContext* ctx, Bucket* bucket) override;
  double CommCost(size_t numel, const ClusterTopology& topo,
                  const NetworkConfig& net, bool hierarchical) const override;
  double WireBytes(size_t numel, const ClusterTopology& topo,
                   bool hierarchical) const override;

 private:
  std::string name_ = "allreduce";
};

/// \brief "QSGD": 8-bit stochastically quantized gradients via C_LP_S,
/// no error compensation [4].
class QsgdAlgorithm : public Algorithm {
 public:
  explicit QsgdAlgorithm(int bits = 8);
  const std::string& name() const override { return name_; }
  AlgorithmTraits traits() const override {
    return {true, false, true, false};
  }
  Status OnBucketReady(BaguaContext* ctx, Bucket* bucket) override;
  double CommCost(size_t numel, const ClusterTopology& topo,
                  const NetworkConfig& net, bool hierarchical) const override;
  double CodecCost(size_t numel, const DeviceConfig& dev) const override;
  double WireBytes(size_t numel, const ClusterTopology& topo,
                   bool hierarchical) const override;

 private:
  std::string name_;
  QsgdCompressor codec_;
};

/// \brief "1-bit Adam" [79]: full-precision Adam warmup, then 1-bit
/// compressed communication with error compensation and a frozen Adam
/// variance. ctx->optimizer must be an AdamOptimizer.
class OneBitAdamAlgorithm : public Algorithm {
 public:
  explicit OneBitAdamAlgorithm(uint64_t warmup_steps = 16,
                               size_t block_size = 128);
  const std::string& name() const override { return name_; }
  AlgorithmTraits traits() const override {
    return {true, false, true, false};
  }
  Status Init(BaguaContext* ctx, std::vector<Bucket>* buckets) override;
  Status OnBucketReady(BaguaContext* ctx, Bucket* bucket) override;
  double CommCost(size_t numel, const ClusterTopology& topo,
                  const NetworkConfig& net, bool hierarchical) const override;
  double CodecCost(size_t numel, const DeviceConfig& dev) const override;
  double WireBytes(size_t numel, const ClusterTopology& topo,
                   bool hierarchical) const override;

  uint64_t warmup_steps() const { return warmup_steps_; }

 private:
  /// Copies Adam's moments at the warmup→compression switch and
  /// precomputes the frozen denominator sqrt(v̂) + ε.
  Status FreezeFromAdam(AdamOptimizer* adam, const Bucket& bucket);

  std::string name_ = "1bit-adam";
  uint64_t warmup_steps_;
  OneBitCompressor codec_;
  std::vector<ClpsState> states_;  // per bucket
  /// Compression-stage state, per bucket: synchronized momentum and the
  /// frozen denominator.
  std::vector<std::vector<float>> momentum_;
  std::vector<std::vector<float>> denom_;
  bool frozen_ = false;
};

/// \brief "Decen-32bits" / "Decen-8bits": decentralized SGD [15, 17].
/// The model is updated locally first, then replicas are averaged with the
/// step's peers — D_FP_S (full precision, random probing by default) or
/// D_LP_S (8-bit quantized, ring), matching Fig. 3's decentralized
/// low-precision pipeline where "model update happens before communication".
class DecentralizedAlgorithm : public Algorithm {
 public:
  DecentralizedAlgorithm(bool low_precision, PeerSelection peers);
  const std::string& name() const override { return name_; }
  AlgorithmTraits traits() const override {
    return {true, !low_precision_, false, true};
  }
  Status OnBucketReady(BaguaContext* ctx, Bucket* bucket) override;
  double CommCost(size_t numel, const ClusterTopology& topo,
                  const NetworkConfig& net, bool hierarchical) const override;
  double CodecCost(size_t numel, const DeviceConfig& dev) const override;
  double WireBytes(size_t numel, const ClusterTopology& topo,
                   bool hierarchical) const override;
  /// Decentralized workers only rendezvous with their step peers (plus the
  /// node group when hierarchical — still far fewer than the world).
  int BarrierGroup(int world) const override {
    const int peers = peers_ == PeerSelection::kRing ? 3 : 2;
    return std::min(world, peers);
  }

 private:
  std::string name_;
  bool low_precision_;
  PeerSelection peers_;
  QsgdCompressor codec_;
};

/// \brief "Async": asynchronous centralized DP-SG against a sharded
/// parameter server. Workers never wait for each other: each bucket's
/// gradient is pushed (applied server-side immediately) and fresh weights
/// are pulled back. §3.2's discussion — asynchrony comes from concurrent
/// progress, built on synchronous push/pull against shared state.
class AsyncPsAlgorithm : public Algorithm {
 public:
  /// All workers must pass the same `server`. `lr` is the server-side
  /// learning rate (the local optimizer is bypassed). With a `codec` the
  /// pushed gradients are lossily compressed first — the asynchronous
  /// low-precision centralized cell of Table 1 ("async-lp"); the codec
  /// must outlive the algorithm.
  AsyncPsAlgorithm(std::shared_ptr<ShardedParameterServer> server, double lr,
                   const Compressor* codec = nullptr);
  const std::string& name() const override { return name_; }
  AlgorithmTraits traits() const override {
    return {false, codec_ == nullptr, true, false};
  }
  Status Init(BaguaContext* ctx, std::vector<Bucket>* buckets) override;
  Status OnBucketReady(BaguaContext* ctx, Bucket* bucket) override;
  double CommCost(size_t numel, const ClusterTopology& topo,
                  const NetworkConfig& net, bool hierarchical) const override;
  double WireBytes(size_t numel, const ClusterTopology& topo,
                   bool hierarchical) const override;

 private:
  std::string name_ = "async";
  std::shared_ptr<ShardedParameterServer> server_;
  double lr_;
  const Compressor* codec_ = nullptr;
  // Per-bucket shard ranges within the server's flat space.
  std::vector<size_t> bucket_offsets_;
  size_t total_numel_ = 0;
};

/// \brief Asynchronous decentralized SGD — the "async-decen" cell of
/// Table 1 (asynchronous, full precision, decentralized).
///
/// Each step a worker updates locally, fires its model at one
/// pseudo-random peer without waiting, then averages itself with whatever
/// peer models have already arrived (non-blocking drain). No barrier of
/// any size exists: a straggler's models simply arrive stale, the gossip
/// analogue of asynchronous PS training (cf. AD-PSGD, Lian et al. [16]).
class AsyncDecenAlgorithm : public Algorithm {
 public:
  AsyncDecenAlgorithm() = default;
  const std::string& name() const override { return name_; }
  AlgorithmTraits traits() const override {
    return {false, true, false, true};
  }
  Status OnBucketReady(BaguaContext* ctx, Bucket* bucket) override;
  Status Finish(BaguaContext* ctx) override;
  double CommCost(size_t numel, const ClusterTopology& topo,
                  const NetworkConfig& net, bool hierarchical) const override;
  double WireBytes(size_t numel, const ClusterTopology& topo,
                   bool hierarchical) const override;
  int BarrierGroup(int /*world*/) const override { return 1; }

 private:
  std::string name_ = "async-decen";
  /// Messages outstanding to each peer are bounded by draining before
  /// sending; the fixed tag space for bucket b is kGossipSpaceBase + b
  /// (the audited gossip namespace of transport/transport.h).
};

/// \brief "LocalSGD" [20]: τ local update steps between model averagings —
/// the communication-delay relaxation. Extension beyond the paper's six
/// evaluated algorithms, implemented per its §3.2 discussion.
class LocalSgdAlgorithm : public Algorithm {
 public:
  explicit LocalSgdAlgorithm(uint64_t period = 4);
  const std::string& name() const override { return name_; }
  AlgorithmTraits traits() const override { return {true, true, true, true}; }
  Status OnBucketReady(BaguaContext* ctx, Bucket* bucket) override;
  double CommCost(size_t numel, const ClusterTopology& topo,
                  const NetworkConfig& net, bool hierarchical) const override;
  double WireBytes(size_t numel, const ClusterTopology& topo,
                   bool hierarchical) const override;

  uint64_t period() const { return period_; }
  double BarrierFreq() const override {
    return 1.0 / static_cast<double>(period_);
  }

 private:
  std::string name_;
  uint64_t period_;
};

/// \brief 16-bit allreduce: C_LP_S with a HalfCompressor codec.
/// "allreduce-fp16" is BAGUA's twin of "Horovod 16bits" (NCCL fp16
/// gradient compression); "allreduce-bf16" is the same primitive over the
/// bf16 codec, which keeps fp32's exponent range. Both halve the bytes of
/// every compressed phase; sums accumulate in fp32.
class HalfAllreduceAlgorithm : public Algorithm {
 public:
  /// `dtype` must be WireDtype::kBf16 or WireDtype::kFp16.
  explicit HalfAllreduceAlgorithm(WireDtype dtype);
  const std::string& name() const override { return name_; }
  AlgorithmTraits traits() const override {
    return {true, false, true, false};
  }
  Status OnBucketReady(BaguaContext* ctx, Bucket* bucket) override;
  double CommCost(size_t numel, const ClusterTopology& topo,
                  const NetworkConfig& net, bool hierarchical) const override;
  double CodecCost(size_t numel, const DeviceConfig& dev) const override;
  double WireBytes(size_t numel, const ClusterTopology& topo,
                   bool hierarchical) const override;

 private:
  HalfCompressor codec_;
  std::string name_;
};

}  // namespace bagua

#endif  // BAGUA_ALGORITHMS_ALGORITHMS_H_
