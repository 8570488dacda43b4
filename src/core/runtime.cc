#include "core/runtime.h"

#include <algorithm>

#include "base/logging.h"
#include "trace/trace.h"

namespace bagua {

BaguaRuntime::BaguaRuntime(CommWorld* world, int rank, Net* net,
                           Optimizer* optimizer, Algorithm* algorithm,
                           BaguaOptions options)
    : net_(net), algorithm_(algorithm), options_(options) {
  ctx_.comm.world = world;
  ctx_.comm.rank = rank;
  ctx_.comm.space = 0;
  ctx_.comm.step = 0;
  ctx_.comm.hierarchical = options.hierarchical;
  ctx_.optimizer = optimizer;
  ctx_.options = options;
  ctx_.step = 0;
  if (options.async_comm) {
    engine_ = std::make_unique<AsyncCommEngine>(rank);
  }
}

Result<double> BaguaRuntime::TrainStepCE(const Tensor& x, const Tensor& y) {
  TraceSpan step_span(ctx_.comm.rank, TraceStream::kTrain, "step",
                      /*bytes=*/0, static_cast<int>(ctx_.step));
  net_->ZeroGrad();
  double loss = 0.0;
  Tensor grad_logits;
  {
    TraceSpan fwd(ctx_.comm.rank, TraceStream::kCompute, "forward");
    Tensor logits;
    RETURN_IF_ERROR(net_->Forward(x, &logits));
    RETURN_IF_ERROR(SoftmaxCrossEntropy(logits, y, &loss, &grad_logits));
  }

  // Backward + bucket communication per the StepPlan. The trace shows the
  // backward pass as "bwd.seg" compute segments split at unit-dispatch
  // points; comm "bucket" spans land between segments on the synchronous
  // path and across them under the async engine (real overlap).
  {
    TraceSpan bwd(ctx_.comm.rank, TraceStream::kCompute, "backward+update");
    const Status step_status =
        profiled_ ? ExecutionStep(grad_logits) : ProfilingStep(grad_logits);
    // Always join — even a failed step must not leave units in flight
    // behind it (OnStepEnd and the caller assume a quiet comm thread).
    const Status join_status = JoinStep();
    RETURN_IF_ERROR(step_status);
    RETURN_IF_ERROR(join_status);
    RETURN_IF_ERROR(algorithm_->OnStepEnd(&ctx_));
  }
  ++ctx_.step;
  ++ctx_.comm.step;
  return loss;
}

Status BaguaRuntime::ProfilingStep(const Tensor& grad_out) {
  // Plan-build: log every hook invocation, execute unoptimized.
  profile_log_.clear();
  RETURN_IF_ERROR(net_->Backward(grad_out, [&](size_t layer) {
    size_t numel = 0;
    for (const Param& p : net_->layer(layer)->params()) {
      numel += p.grad->numel();
    }
    if (numel > 0) profile_log_.push_back({layer, numel});
  }));

  // Bucketing + flattening over the recorded order.
  const auto plan =
      PlanBuckets(profile_log_, options_.bucket_bytes, options_.fuse);
  std::vector<std::vector<Param>> layer_params(net_->num_layers());
  for (size_t i = 0; i < net_->num_layers(); ++i) {
    layer_params[i] = net_->layer(i)->params();
  }
  RETURN_IF_ERROR(
      BuildBuckets(plan, layer_params, options_.fuse, &buckets_));
  RETURN_IF_ERROR(BuildStepPlan());

  RETURN_IF_ERROR(algorithm_->Init(&ctx_, &buckets_));

  // The profiling step still has gradients to communicate — flush every
  // unit in *plan order* (the same order execution steps will use, so
  // step 0 and step N trace identically), inline on this thread
  // (profiled_ is still false, so DispatchUnit bypasses the engine: the
  // schedule was only just emitted, there is nothing to overlap with).
  for (const PlanUnit& unit : plan_.units) {
    RETURN_IF_ERROR(DispatchUnit(unit));
  }
  profiled_ = true;
  return Status::OK();
}

Status BaguaRuntime::BuildStepPlan() {
  plan_ = StepPlan();
  plan_.num_blocks = net_->num_layers();
  for (const Bucket& b : buckets_) {
    PlanUnit unit;
    unit.index = b.index;
    unit.numel = b.numel;
    unit.layers = b.layers;
    unit.first_block =
        *std::min_element(b.layers.begin(), b.layers.end());
    unit.last_block = *std::max_element(b.layers.begin(), b.layers.end());
    // O = 1: the unit fires when its last layer's backward completes
    // (tracked by a countdown over `layers`, of which first_block is the
    // final member). O = 0: fused to the end of backward.
    unit.grad_dep = options_.overlap ? static_cast<int>(unit.first_block)
                                     : kGradDepBackwardEnd;
    // TrainStepCE is lockstep: the next forward always waits for the
    // whole step (async algorithms relax this inside their own helper
    // threads, not in the step schedule).
    unit.forward_gate = ForwardGate::kAll;
    plan_.units.push_back(std::move(unit));
  }
  RETURN_IF_ERROR(plan_.Validate());

  layer_to_unit_.assign(net_->num_layers(), -1);
  for (const PlanUnit& unit : plan_.units) {
    for (size_t layer : unit.layers) {
      layer_to_unit_[layer] = static_cast<int>(unit.index);
    }
  }
  unit_pending_.assign(plan_.units.size(), 0);
  return Status::OK();
}

Status BaguaRuntime::ExecutionStep(const Tensor& grad_out) {
  // Reset per-iteration countdowns: a unit fires when all of its layers
  // have completed backward.
  for (const PlanUnit& unit : plan_.units) {
    unit_pending_[unit.index] = static_cast<int>(unit.layers.size());
  }
  Tracer* const tracer = GlobalTracer();
  const int rank = ctx_.comm.rank;
  // Backward runs as "bwd.seg" compute segments, split at every dispatch
  // point, so a segment never contains inline communication — measured
  // backward∥comm overlap (harness/report.h) is exactly the wall-time
  // intersection of comm "bucket" spans with these segments: identically
  // zero on the synchronous path, positive under the engine.
  uint64_t seg = Tracer::kInvalidSpan;
  if (tracer != nullptr) {
    seg = tracer->BeginSpan(rank, TraceStream::kCompute, "bwd.seg");
  }
  Status dispatch_status;
  const Status bwd_status = net_->Backward(grad_out, [&](size_t layer) {
    if (!dispatch_status.ok()) return;
    const int u = layer_to_unit_[layer];
    if (u < 0) return;  // parameterless layer
    const PlanUnit& unit = plan_.units[u];
    if (unit.grad_dep == kGradDepBackwardEnd) return;  // fires after bwd
    if (--unit_pending_[u] == 0) {
      if (tracer != nullptr) tracer->EndSpan(rank, seg);
      dispatch_status = DispatchUnit(unit);
      if (tracer != nullptr) {
        seg = tracer->BeginSpan(rank, TraceStream::kCompute, "bwd.seg");
      }
    }
  });
  if (tracer != nullptr) tracer->EndSpan(rank, seg);
  RETURN_IF_ERROR(bwd_status);
  RETURN_IF_ERROR(dispatch_status);
  // Backward-end units (O = 0): all communication strictly after
  // backward, in plan order.
  for (const PlanUnit& unit : plan_.units) {
    if (unit.grad_dep != kGradDepBackwardEnd) continue;
    RETURN_IF_ERROR(DispatchUnit(unit));
  }
  return Status::OK();
}

Status BaguaRuntime::DispatchUnit(const PlanUnit& unit) {
  Bucket* const bucket = &buckets_[unit.index];
  Tracer* const tracer = GlobalTracer();
  const int rank = ctx_.comm.rank;
  uint64_t qspan = Tracer::kInvalidSpan;
  if (tracer != nullptr) {
    qspan = tracer->BeginSpan(rank, TraceStream::kCommQueue, "bucket.queue",
                              bucket->numel * sizeof(float),
                              static_cast<int>(unit.index));
  }
  if (engine_ == nullptr || !profiled_) {
    // Synchronous executor (and the profiling flush): zero queue wait,
    // unit runs inline on this thread.
    if (tracer != nullptr) tracer->EndSpan(rank, qspan);
    return RunUnit(bucket);
  }
  engine_->Enqueue(qspan, [this, bucket] { return RunUnit(bucket); });
  return Status::OK();
}

Status BaguaRuntime::RunUnit(Bucket* bucket) {
  TraceSpan span(ctx_.comm.rank, TraceStream::kComm, "bucket",
                 bucket->numel * sizeof(float),
                 static_cast<int>(bucket->index));
  RETURN_IF_ERROR(bucket->GatherToFlat());
  RETURN_IF_ERROR(algorithm_->OnBucketReady(&ctx_, bucket));
  return bucket->ScatterFromFlat();
}

Status BaguaRuntime::JoinStep() {
  if (engine_ == nullptr) return Status::OK();
  return engine_->Drain();
}

Status BaguaRuntime::Finish() {
  // Quiesce the comm thread before the algorithm tears down helper state.
  RETURN_IF_ERROR(JoinStep());
  return algorithm_->Finish(&ctx_);
}

}  // namespace bagua
