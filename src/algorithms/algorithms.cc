#include "algorithms/algorithms.h"

#include <cmath>
#include <cstring>

#include "base/arena.h"
#include "base/logging.h"
#include "base/strings.h"
#include "collectives/hierarchy.h"
#include "sim/collective_cost.h"
#include "tensor/ops.h"

namespace bagua {

namespace {

/// Per-bucket algorithm scratch (momenta staging, PS push/pull staging,
/// gossip accumulators) recycles through the "algo" arena: these run once
/// per bucket per step, squarely inside the whole-step zero-allocation
/// discipline bench/mem_gate.h enforces.
Arena& AlgoArena() {
  static Arena* arena = &MemoryRegistry::Global().ArenaFor("algo");
  return *arena;
}

/// Average-and-apply: scales the summed gradient by 1/world and runs the
/// optimizer over the bucket's flat span.
Status ApplyAveragedGrad(BaguaContext* ctx, Bucket* bucket) {
  Scale(bucket->grad_data(), 1.0f / static_cast<float>(ctx->world_size()),
        bucket->numel);
  return ctx->optimizer->Step(bucket->index, bucket->value_data(),
                              bucket->grad_data(), bucket->numel);
}

}  // namespace

// ---------------------------------------------------------------- Allreduce

Status AllreduceAlgorithm::OnBucketReady(BaguaContext* ctx, Bucket* bucket) {
  RETURN_IF_ERROR(CFpS(&ctx->comm, bucket->grad_data(), bucket->numel));
  return ApplyAveragedGrad(ctx, bucket);
}

double AllreduceAlgorithm::CommCost(size_t numel, const ClusterTopology& topo,
                                    const NetworkConfig& net,
                                    bool hierarchical) const {
  return EstimateCFpSCost(topo, net, numel * 4.0, hierarchical);
}

double AllreduceAlgorithm::WireBytes(size_t numel, const ClusterTopology& topo,
                                     bool hierarchical) const {
  const double bytes = numel * 4.0;
  const double m = static_cast<double>(topo.world_size());
  if (hierarchical && topo.devices_per_node > 1) {
    // Per-rank average of the algorithm CFpS actually dispatches to
    // (collectives/hierarchy.h).
    switch (ChooseAllreduceAlgo(topo, static_cast<size_t>(bytes))) {
      case AllreduceAlgo::kTree: {
        // Gather slots up the tree plus (m-1) full copies broadcast down.
        const double slots = static_cast<double>(
            TreeGatherTotalSlots(static_cast<size_t>(m)) +
            static_cast<size_t>(m) - 1);
        return slots * bytes / m;
      }
      case AllreduceAlgo::kHierarchical: {
        const double d = static_cast<double>(topo.devices_per_node);
        const double nodes = static_cast<double>(topo.num_nodes);
        // Intra reduce + broadcast (2(d-1) copies per node) plus the
        // leaders' ring share, averaged over the d ranks of a node.
        return (2.0 * (d - 1.0) + 2.0 * (nodes - 1.0) / nodes) * bytes / d;
      }
      case AllreduceAlgo::kFlatRing:
        return 2.0 * bytes;
    }
  }
  return 2.0 * bytes;
}

// --------------------------------------------------------------------- QSGD

QsgdAlgorithm::QsgdAlgorithm(int bits)
    : name_(StrFormat("qsgd%d", bits)), codec_(bits) {}

Status QsgdAlgorithm::OnBucketReady(BaguaContext* ctx, Bucket* bucket) {
  RETURN_IF_ERROR(
      CLpS(&ctx->comm, codec_, bucket->grad_data(), bucket->numel, nullptr));
  return ApplyAveragedGrad(ctx, bucket);
}

double QsgdAlgorithm::CommCost(size_t numel, const ClusterTopology& topo,
                               const NetworkConfig& net,
                               bool hierarchical) const {
  return EstimateCLpSCost(topo, net, codec_, numel, hierarchical);
}

double QsgdAlgorithm::CodecCost(size_t numel, const DeviceConfig& dev) const {
  // Two encodes + ~two decodes, each an elementwise pass over the span.
  return 4.0 * dev.MemPassTime(numel * 4.0);
}

double QsgdAlgorithm::WireBytes(size_t numel, const ClusterTopology& topo,
                                bool hierarchical) const {
  const double wire = static_cast<double>(codec_.CompressedBytes(numel));
  if (hierarchical) {
    return 2.0 * numel * 4.0 + 2.0 * wire / topo.devices_per_node;
  }
  return 2.0 * wire;
}

// ---------------------------------------------------------------- 1bit-Adam

OneBitAdamAlgorithm::OneBitAdamAlgorithm(uint64_t warmup_steps,
                                         size_t block_size)
    : warmup_steps_(warmup_steps), codec_(block_size) {}

Status OneBitAdamAlgorithm::Init(BaguaContext* ctx,
                                 std::vector<Bucket>* buckets) {
  states_.clear();
  momentum_.clear();
  denom_.clear();
  frozen_ = false;
  momentum_.resize(buckets->size());
  denom_.resize(buckets->size());
  for (Bucket& bucket : *buckets) {
    ASSIGN_OR_RETURN(ClpsState state, InitClpsState(ctx->comm, bucket.numel));
    states_.push_back(std::move(state));
  }
  return Status::OK();
}

Status OneBitAdamAlgorithm::FreezeFromAdam(AdamOptimizer* adam,
                                           const Bucket& bucket) {
  const size_t slot = bucket.index;
  const auto& m = adam->momentum(slot);
  const auto& v = adam->variance(slot);
  if (m.size() != bucket.numel || v.size() != bucket.numel) {
    return Status::FailedPrecondition(
        "1-bit Adam: warmup must run at least one step before compression");
  }
  momentum_[slot] = m;
  denom_[slot].resize(bucket.numel);
  // Freeze sqrt(v̂) + ε with the bias correction of the freeze step, as the
  // 1-bit Adam paper prescribes.
  const double bias2 =
      1.0 - std::pow(adam->beta2(),
                     static_cast<double>(adam->step_count(slot)));
  for (size_t i = 0; i < bucket.numel; ++i) {
    denom_[slot][i] = static_cast<float>(
        std::sqrt(static_cast<double>(v[i]) / bias2) + adam->eps());
  }
  return Status::OK();
}

Status OneBitAdamAlgorithm::OnBucketReady(BaguaContext* ctx, Bucket* bucket) {
  auto* adam = dynamic_cast<AdamOptimizer*>(ctx->optimizer);
  if (adam == nullptr) {
    return Status::FailedPrecondition("1-bit Adam requires AdamOptimizer");
  }
  if (ctx->step < warmup_steps_) {
    // Warmup stage: plain full-precision Adam (builds the variance).
    RETURN_IF_ERROR(CFpS(&ctx->comm, bucket->grad_data(), bucket->numel));
    return ApplyAveragedGrad(ctx, bucket);
  }
  // Compression stage (Tang et al. [79]): the *momentum* is communicated in
  // 1 bit with error compensation; Adam's variance stays frozen at its
  // warmup value.
  if (!frozen_ || momentum_[bucket->index].size() != bucket->numel) {
    RETURN_IF_ERROR(FreezeFromAdam(adam, *bucket));
    if (bucket->index + 1 == states_.size()) frozen_ = true;
    adam->FreezeVariance();
  }
  const size_t n = bucket->numel;
  std::vector<float>& m = momentum_[bucket->index];
  const float b1 = static_cast<float>(adam->beta1());
  const float* g = bucket->grad_data();
  // m ← β1·m + (1−β1)·(g_local / world): workers update the shared momentum
  // with their local gradient, then synchronize the compressed momenta.
  ArenaScratch local_m_scratch(&AlgoArena(), n * sizeof(float));
  float* local_m = local_m_scratch.floats();
  for (size_t i = 0; i < n; ++i) {
    local_m[i] = b1 * m[i] + (1.0f - b1) * g[i];
  }
  RETURN_IF_ERROR(CLpS(&ctx->comm, codec_, local_m, n,
                       &states_[bucket->index]));
  const float inv_world = 1.0f / static_cast<float>(ctx->world_size());
  const float lr = static_cast<float>(adam->lr());
  float* w = bucket->value_data();
  const std::vector<float>& denom = denom_[bucket->index];
  for (size_t i = 0; i < n; ++i) {
    m[i] = local_m[i] * inv_world;  // synchronized averaged momentum
    w[i] -= lr * m[i] / denom[i];
  }
  return Status::OK();
}

double OneBitAdamAlgorithm::CommCost(size_t numel, const ClusterTopology& topo,
                                     const NetworkConfig& net,
                                     bool hierarchical) const {
  // Steady-state (post-warmup) cost: warmup is a vanishing fraction of an
  // epoch at production scale.
  return EstimateCLpSCost(topo, net, codec_, numel, hierarchical);
}

double OneBitAdamAlgorithm::CodecCost(size_t numel,
                                      const DeviceConfig& dev) const {
  // Encode/decode plus δ and ε error-state passes.
  return 6.0 * dev.MemPassTime(numel * 4.0);
}

double OneBitAdamAlgorithm::WireBytes(size_t numel,
                                      const ClusterTopology& topo,
                                      bool hierarchical) const {
  const double wire = static_cast<double>(codec_.CompressedBytes(numel));
  if (hierarchical) {
    return 2.0 * numel * 4.0 + 2.0 * wire / topo.devices_per_node;
  }
  return 2.0 * wire;
}

// ------------------------------------------------------------- Decentralized

DecentralizedAlgorithm::DecentralizedAlgorithm(bool low_precision,
                                               PeerSelection peers)
    : name_(low_precision ? "decen-8bits" : "decen-32bits"),
      low_precision_(low_precision),
      peers_(peers),
      codec_(8) {}

Status DecentralizedAlgorithm::OnBucketReady(BaguaContext* ctx,
                                             Bucket* bucket) {
  // Decentralized pipeline (Fig. 3): local model update first, then
  // exchange-and-average the *model* with this step's peers.
  RETURN_IF_ERROR(ctx->optimizer->Step(bucket->index, bucket->value_data(),
                                       bucket->grad_data(), bucket->numel));
  if (low_precision_) {
    return DLpS(&ctx->comm, codec_, peers_, bucket->value_data(),
                bucket->numel);
  }
  return DFpS(&ctx->comm, peers_, bucket->value_data(), bucket->numel);
}

double DecentralizedAlgorithm::CommCost(size_t numel,
                                        const ClusterTopology& topo,
                                        const NetworkConfig& net,
                                        bool hierarchical) const {
  const double full = numel * 4.0;
  const double wire =
      low_precision_ ? static_cast<double>(codec_.CompressedBytes(numel))
                     : full;
  return EstimateDecenCost(topo, net, peers_, full, wire, hierarchical);
}

double DecentralizedAlgorithm::CodecCost(size_t numel,
                                         const DeviceConfig& dev) const {
  return low_precision_ ? 2.0 * dev.MemPassTime(numel * 4.0) : 0.0;
}

double DecentralizedAlgorithm::WireBytes(size_t numel,
                                         const ClusterTopology& topo,
                                         bool hierarchical) const {
  const double wire =
      low_precision_ ? static_cast<double>(codec_.CompressedBytes(numel))
                     : numel * 4.0;
  const int peers = peers_ == PeerSelection::kRing ? 2 : 1;
  if (hierarchical) {
    return 2.0 * numel * 4.0 + peers * wire / topo.devices_per_node;
  }
  return peers * wire;
}

// -------------------------------------------------------------------- Async

AsyncPsAlgorithm::AsyncPsAlgorithm(
    std::shared_ptr<ShardedParameterServer> server, double lr,
    const Compressor* codec)
    : server_(std::move(server)), lr_(lr), codec_(codec) {
  if (codec_ != nullptr) name_ = "async-lp";
}

Status AsyncPsAlgorithm::Init(BaguaContext* ctx, std::vector<Bucket>* buckets) {
  bucket_offsets_.clear();
  total_numel_ = 0;
  for (const Bucket& b : *buckets) {
    bucket_offsets_.push_back(total_numel_);
    total_numel_ += b.numel;
  }
  if (total_numel_ != server_->total_numel()) {
    return Status::InvalidArgument(
        StrFormat("async server sized %zu, model has %zu params",
                  server_->total_numel(), total_numel_));
  }
  // Rank 0 seeds the server with its (identically initialized) weights.
  if (ctx->rank() == 0) {
    std::vector<float> init(total_numel_);
    for (const Bucket& b : *buckets) {
      std::memcpy(init.data() + bucket_offsets_[b.index],
                  b.flat_value.data(), b.numel * sizeof(float));
    }
    RETURN_IF_ERROR(server_->InitWeights(init.data(), init.size()));
  }
  return Status::OK();
}

Status AsyncPsAlgorithm::OnBucketReady(BaguaContext* ctx, Bucket* bucket) {
  // Push this bucket's gradient slice (applied immediately server-side)
  // and pull the freshest weights for the slice — no cross-worker barrier.
  const size_t offset = bucket_offsets_[bucket->index];
  ArenaScratch push_scratch(&AlgoArena(), total_numel_ * sizeof(float));
  float* scratch = push_scratch.floats();
  // The server applies the whole span; slices outside this bucket must be
  // zero, so clear the (recycled, uninitialized) block explicitly.
  std::memset(scratch, 0, total_numel_ * sizeof(float));
  if (codec_ != nullptr) {
    // async-lp: the gradient crosses the (simulated) wire compressed; the
    // server applies the decoded update.
    Rng rng = ctx->comm.MakeRankRng();
    RETURN_IF_ERROR(RoundTrip(*codec_, bucket->grad_data(), bucket->numel,
                              &rng, scratch + offset));
  } else {
    std::memcpy(scratch + offset, bucket->grad_data(),
                bucket->numel * sizeof(float));
  }
  RETURN_IF_ERROR(server_->PushGradAsync(scratch, total_numel_, lr_));
  RETURN_IF_ERROR(server_->Pull(scratch, total_numel_));
  std::memcpy(bucket->value_data(), scratch + offset,
              bucket->numel * sizeof(float));
  return Status::OK();
}

double AsyncPsAlgorithm::CommCost(size_t numel, const ClusterTopology& topo,
                                  const NetworkConfig& net,
                                  bool hierarchical) const {
  return PsPushPullCost(topo, net, numel * 4.0, topo.num_nodes, hierarchical);
}

double AsyncPsAlgorithm::WireBytes(size_t numel, const ClusterTopology& topo,
                                   bool hierarchical) const {
  if (hierarchical) {
    return 2.0 * numel * 4.0 * (1.0 + 1.0 / topo.devices_per_node);
  }
  return 2.0 * numel * 4.0;
}

// -------------------------------------------------------------- Async decen

Status AsyncDecenAlgorithm::OnBucketReady(BaguaContext* ctx, Bucket* bucket) {
  // 1. Local model update with the local gradient (decentralized pattern).
  RETURN_IF_ERROR(ctx->optimizer->Step(bucket->index, bucket->value_data(),
                                       bucket->grad_data(), bucket->numel));
  TransportGroup* group = ctx->comm.group();
  const int world = ctx->world_size();
  if (world <= 1) return Status::OK();
  const uint64_t tag =
      MakeTag(kGossipSpaceBase + static_cast<uint32_t>(bucket->index), 0);

  // 2. Drain whatever peer models have arrived (never blocks) and average
  // them into the local replica with equal weight.
  std::vector<double> acc(bucket->numel);
  for (size_t i = 0; i < bucket->numel; ++i) {
    acc[i] = bucket->value_data()[i];
  }
  size_t contributions = 1;
  std::vector<uint8_t> payload;
  for (;;) {
    const Status st = group->TryRecvAny(ctx->rank(), tag, &payload);
    if (st.IsNotFound()) break;
    RETURN_IF_ERROR(st);
    if (payload.size() != bucket->numel * sizeof(float)) {
      return Status::Internal("gossip payload size mismatch");
    }
    const float* peer = reinterpret_cast<const float*>(payload.data());
    for (size_t i = 0; i < bucket->numel; ++i) acc[i] += peer[i];
    ++contributions;
  }
  if (contributions > 1) {
    const double inv = 1.0 / static_cast<double>(contributions);
    for (size_t i = 0; i < bucket->numel; ++i) {
      bucket->value_data()[i] = static_cast<float>(acc[i] * inv);
    }
  }

  // 3. Fire the (averaged) model at one pseudo-random peer and move on —
  // the receiver will fold it in whenever it next looks. A dead peer is
  // simply skipped (still consuming the rng draw so survivors' peer
  // sequences are unchanged): gossip degrades gracefully to the surviving
  // membership.
  Rng rng = ctx->comm.MakeRankRng();
  int peer = static_cast<int>(rng.UniformInt(world - 1));
  if (peer >= ctx->rank()) ++peer;
  if (!group->IsAlive(peer)) return Status::OK();
  return group->Send(ctx->rank(), peer, tag, bucket->value_data(),
                     bucket->numel * sizeof(float));
}

Status AsyncDecenAlgorithm::Finish(BaguaContext* ctx) {
  // Drain any gossip still in flight so the transport ends quiescent.
  TransportGroup* group = ctx->comm.group();
  std::vector<uint8_t> payload;
  for (uint32_t b = 0; b < 4096; ++b) {
    while (group->TryRecvAny(ctx->rank(), MakeTag(kGossipSpaceBase + b, 0),
                             &payload)
               .ok()) {
    }
    if (b > 64) break;  // buckets beyond runtime sizes cannot exist
  }
  return Status::OK();
}

double AsyncDecenAlgorithm::CommCost(size_t numel, const ClusterTopology& topo,
                                     const NetworkConfig& net,
                                     bool hierarchical) const {
  return DecenRandomCost(topo, net, numel * 4.0, numel * 4.0, hierarchical);
}

double AsyncDecenAlgorithm::WireBytes(size_t numel,
                                      const ClusterTopology& topo,
                                      bool hierarchical) const {
  if (hierarchical) {
    return 2.0 * numel * 4.0 + numel * 4.0 / topo.devices_per_node;
  }
  return numel * 4.0;
}

// ----------------------------------------------------------------- LocalSGD

LocalSgdAlgorithm::LocalSgdAlgorithm(uint64_t period)
    : name_(StrFormat("local-sgd-%llu", (unsigned long long)period)),
      period_(period == 0 ? 1 : period) {}

Status LocalSgdAlgorithm::OnBucketReady(BaguaContext* ctx, Bucket* bucket) {
  // Always update locally; average models every `period` steps.
  RETURN_IF_ERROR(ctx->optimizer->Step(bucket->index, bucket->value_data(),
                                       bucket->grad_data(), bucket->numel));
  if ((ctx->step + 1) % period_ == 0) {
    RETURN_IF_ERROR(CFpS(&ctx->comm, bucket->value_data(), bucket->numel));
    Scale(bucket->value_data(), 1.0f / static_cast<float>(ctx->world_size()),
          bucket->numel);
  }
  return Status::OK();
}

double LocalSgdAlgorithm::CommCost(size_t numel, const ClusterTopology& topo,
                                   const NetworkConfig& net,
                                   bool hierarchical) const {
  // Amortized: one synchronization every `period` iterations.
  return EstimateCFpSCost(topo, net, numel * 4.0, hierarchical) /
         static_cast<double>(period_);
}

double LocalSgdAlgorithm::WireBytes(size_t numel, const ClusterTopology& topo,
                                    bool hierarchical) const {
  AllreduceAlgorithm ar;
  return ar.WireBytes(numel, topo, hierarchical) /
         static_cast<double>(period_);
}

// ------------------------------------------------------- 16-bit allreduce

HalfAllreduceAlgorithm::HalfAllreduceAlgorithm(WireDtype dtype)
    : codec_(dtype), name_(std::string("allreduce-") + WireDtypeName(dtype)) {}

Status HalfAllreduceAlgorithm::OnBucketReady(BaguaContext* ctx,
                                             Bucket* bucket) {
  RETURN_IF_ERROR(
      CLpS(&ctx->comm, codec_, bucket->grad_data(), bucket->numel, nullptr));
  return ApplyAveragedGrad(ctx, bucket);
}

double HalfAllreduceAlgorithm::CommCost(size_t numel,
                                        const ClusterTopology& topo,
                                        const NetworkConfig& net,
                                        bool hierarchical) const {
  return EstimateCLpSCost(topo, net, codec_, numel, hierarchical);
}

double HalfAllreduceAlgorithm::CodecCost(size_t numel,
                                         const DeviceConfig& dev) const {
  return 2.0 * dev.MemPassTime(numel * 4.0);
}

double HalfAllreduceAlgorithm::WireBytes(size_t numel,
                                         const ClusterTopology& topo,
                                         bool hierarchical) const {
  const double wire = static_cast<double>(codec_.CompressedBytes(numel));
  if (hierarchical) {
    return 2.0 * numel * 4.0 + 2.0 * wire / topo.devices_per_node;
  }
  return 2.0 * wire;
}

}  // namespace bagua
