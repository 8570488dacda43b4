#include "baselines/baselines.h"

#include <algorithm>

#include "sched/plan.h"
#include "sim/collective_cost.h"

namespace bagua {

// Each baseline's schedule is a StepPlan transform composition
// (sched/plan.h) carried in spec.plan_builder — the same IR vocabulary the
// BAGUA runtime emits, so "DDP overlaps backward" and "BytePS overlaps the
// next forward" are dependency edges, not interpreter flags. The legacy
// shape booleans are kept in sync purely as documentation/introspection
// (tests assert them); EstimateEpoch prices the plan.

SystemSpec DdpSpec(const TimingConfig& cfg) {
  SystemSpec spec;
  spec.name = "pytorch-ddp";
  const ClusterTopology topo = cfg.topo;
  const NetworkConfig net = cfg.net;
  spec.comm_cost = [topo, net](size_t numel) {
    return RingAllreduceCost(topo, net, numel * 4.0);
  };
  spec.bucket_bytes = 25u << 20;  // DDP's default bucket_cap_mb = 25
  spec.overlap_backward = true;
  spec.overlap_forward = false;
  spec.update_passes = cfg.model.train.uses_adam ? 5.0 : 3.0;
  // Reverse-order 25 MB gradient buckets, allreduce overlapped with
  // backward, fused update at the end — the canonical fused plan as-is.
  spec.plan_builder = [](const ModelProfile& m) {
    return FusedUnitsPlan(m, 25u << 20);
  };
  return spec;
}

SystemSpec HorovodSpec(const TimingConfig& cfg, int bits) {
  SystemSpec spec;
  spec.name = bits == 16 ? "horovod-16" : "horovod-32";
  const ClusterTopology topo = cfg.topo;
  const NetworkConfig net = cfg.net;
  const DeviceConfig dev = cfg.dev;
  if (bits == 16) {
    spec.comm_cost = [topo, net](size_t numel) {
      return RingAllreduceCost(topo, net, numel * 2.0);
    };
    spec.codec_cost = [dev](size_t numel) {
      // fp32 -> fp16 -> fp32 conversions around the allreduce.
      return 2.0 * dev.MemPassTime(numel * 4.0);
    };
  } else {
    spec.comm_cost = [topo, net](size_t numel) {
      return RingAllreduceCost(topo, net, numel * 4.0);
    };
  }
  spec.bucket_bytes = 64u << 20;  // Horovod fusion buffer default
  spec.overlap_backward = true;
  spec.update_passes = cfg.model.train.uses_adam ? 5.0 : 3.0;
  // Response-coordinated tensor fusion: same backward-overlapped shape as
  // DDP, with Horovod's 64 MB fusion buffer (fp16 changes only the cost
  // model above, not the schedule).
  spec.plan_builder = [](const ModelProfile& m) {
    return FusedUnitsPlan(m, 64u << 20);
  };
  return spec;
}

SystemSpec BytePsSpec(const TimingConfig& cfg, BytePsOptions opts) {
  SystemSpec spec;
  spec.name = opts.async ? "byteps-async" : "byteps";
  const ClusterTopology topo = cfg.topo;
  const NetworkConfig net = cfg.net;
  spec.comm_cost = [topo, net](size_t numel) {
    // Intra-node aggregation, then push/pull against one server per node.
    return PsPushPullCost(topo, net, numel * 4.0, topo.num_nodes,
                          /*intra_aggregated=*/true);
  };
  spec.bucket_bytes = opts.chunk_bytes;
  spec.overlap_backward = true;
  spec.overlap_forward = true;  // priority scheduling across iterations
  spec.async = opts.async;
  if (opts.async) spec.barrier_group = 1;
  spec.update_passes = cfg.model.train.uses_adam ? 5.0 : 3.0;
  // Summation service: every gradient byte is reduced and re-emitted by a
  // host CPU; this is serialized with the unit's transfer.
  spec.server_cpu_s = 2.0 * cfg.model.GradientBytes() / opts.server_cpu_Bps;
  // Fixed-size push/pull chunks with priority scheduling: the next
  // forward's early blocks gate only on the chunks covering them, every
  // chunk is reduced by the host summation service, and the async variant
  // dissolves the backward edges into a free-running stream.
  spec.plan_builder = [chunk = opts.chunk_bytes,
                       async = opts.async](const ModelProfile& m) {
    StepPlan plan = FusedUnitsPlan(m, chunk);
    PriorityForwardOverlap(&plan);
    ServerReduce(&plan);
    if (async) AsyncStream(&plan);
    return plan;
  };
  return spec;
}

EpochEstimate BestBaselineEpoch(const TimingConfig& cfg) {
  EpochEstimate best;
  best.epoch_s = 1e300;
  for (const SystemSpec& spec :
       {DdpSpec(cfg), HorovodSpec(cfg, 32), HorovodSpec(cfg, 16),
        BytePsSpec(cfg)}) {
    const EpochEstimate est = EstimateEpoch(cfg, spec);
    if (est.epoch_s < best.epoch_s) best = est;
  }
  return best;
}

}  // namespace bagua
