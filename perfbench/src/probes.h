// Benchmark-side decorators around the library's public virtual interfaces.
// Each forwards every call unchanged (no arithmetic is altered) and opens a
// span around it while tracing is on:
//
//   TimedLayer      fwd.<layer> / bwd.<layer>   around Layer::Forward/Backward
//   TimedOptimizer  optim.step                  around Optimizer::Step
//   TimedAlgorithm  bucket                      around Algorithm::OnBucketReady
//                   (and, once armed, copies of one bucket's gradient
//                   before and after the call, for an output check)
//   ProbedTransport transport.send / .recv      around TransportGroup messaging
//
// ProbedTransport also counts received messages and bytes per rank, always
// on, and stamps the first message of the run (the end of a replay's set-up).
#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <atomic>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/algorithm.h"
#include "model/layer.h"
#include "model/optimizer.h"
#include "spans.h"
#include "transport/transport.h"

namespace perfbench {

class TimedLayer : public bagua::Layer {
 public:
  TimedLayer(std::unique_ptr<bagua::Layer> inner, int rank)
      : inner_(std::move(inner)),
        rank_(rank),
        fwd_(SpanName("fwd." + inner_->name())),
        bwd_(SpanName("bwd." + inner_->name())) {}

  const std::string& name() const override { return inner_->name(); }
  bagua::Status Forward(const bagua::Tensor& in, bagua::Tensor* out) override {
    ScopedSpan span(rank_, fwd_);
    return inner_->Forward(in, out);
  }
  bagua::Status Backward(const bagua::Tensor& grad_out,
                         bagua::Tensor* grad_in) override {
    ScopedSpan span(rank_, bwd_);
    return inner_->Backward(grad_out, grad_in);
  }
  std::vector<bagua::Param> params() override { return inner_->params(); }
  void InitParams(bagua::Rng* rng) override { inner_->InitParams(rng); }

 private:
  std::unique_ptr<bagua::Layer> inner_;
  int rank_;
  int fwd_;
  int bwd_;
};

class TimedOptimizer : public bagua::Optimizer {
 public:
  TimedOptimizer(std::unique_ptr<bagua::Optimizer> inner, int rank)
      : inner_(std::move(inner)), rank_(rank), span_(SpanName("optim.step")) {}

  bagua::Status Step(size_t slot, float* param, const float* grad,
                     size_t n) override {
    ScopedSpan span(rank_, span_);
    return inner_->Step(slot, param, grad, n);
  }
  const char* name() const override { return inner_->name(); }
  double FlopsPerElement() const override { return inner_->FlopsPerElement(); }

 private:
  std::unique_ptr<bagua::Optimizer> inner_;
  int rank_;
  int span_;
};

class TimedAlgorithm : public bagua::Algorithm {
 public:
  /// One bucket's flat gradient as this rank handed it to OnBucketReady
  /// and as the call left it (reduced and averaged, for the allreduce
  /// family).
  struct Capture {
    size_t bucket = 0;
    std::vector<float> before;
    std::vector<float> after;
  };

  explicit TimedAlgorithm(std::unique_ptr<bagua::Algorithm> inner)
      : inner_(std::move(inner)), span_(SpanName("bucket")) {}

  /// Captures the next OnBucketReady call. Call between steps only.
  void ArmCapture() { armed_ = true; }
  const Capture& capture() const { return capture_; }

  const std::string& name() const override { return inner_->name(); }
  bagua::AlgorithmTraits traits() const override { return inner_->traits(); }
  bagua::Status Init(bagua::BaguaContext* ctx,
                     std::vector<bagua::Bucket>* buckets) override {
    return inner_->Init(ctx, buckets);
  }
  bagua::Status OnBucketReady(bagua::BaguaContext* ctx,
                              bagua::Bucket* bucket) override {
    ScopedSpan span(ctx->rank(), span_);
    if (!armed_) return inner_->OnBucketReady(ctx, bucket);
    armed_ = false;
    const float* grad = bucket->grad_data();
    capture_.bucket = bucket->index;
    capture_.before.assign(grad, grad + bucket->numel);
    RETURN_IF_ERROR(inner_->OnBucketReady(ctx, bucket));
    capture_.after.assign(grad, grad + bucket->numel);
    return bagua::Status::OK();
  }
  bagua::Status OnStepEnd(bagua::BaguaContext* ctx) override {
    return inner_->OnStepEnd(ctx);
  }
  bagua::Status Finish(bagua::BaguaContext* ctx) override {
    return inner_->Finish(ctx);
  }
  double CommCost(size_t numel, const bagua::ClusterTopology& topo,
                  const bagua::NetworkConfig& net,
                  bool hierarchical) const override {
    return inner_->CommCost(numel, topo, net, hierarchical);
  }
  double CodecCost(size_t numel,
                   const bagua::DeviceConfig& dev) const override {
    return inner_->CodecCost(numel, dev);
  }
  double WireBytes(size_t numel, const bagua::ClusterTopology& topo,
                   bool hierarchical) const override {
    return inner_->WireBytes(numel, topo, hierarchical);
  }
  int BarrierGroup(int world) const override {
    return inner_->BarrierGroup(world);
  }
  double BarrierFreq() const override { return inner_->BarrierFreq(); }

 private:
  std::unique_ptr<bagua::Algorithm> inner_;
  int span_;
  bool armed_ = false;
  Capture capture_;
};

/// Per-rank receive counters of a ProbedTransport. A receive is charged to
/// the receiving rank, only ever from that rank's thread; the counters are
/// atomics so that reading them from the main thread is race-free.
class WireProbe {
 public:
  struct Counts {
    uint64_t recv_msgs = 0;
    uint64_t recv_bytes = 0;
  };

  explicit WireProbe(int world) : ranks_(static_cast<size_t>(world)) {}

  void OnSend() { Stamp(); }
  void OnRecv(int rank, size_t bytes) {
    Stamp();
    PerRank& r = ranks_[rank];
    r.recv_msgs.fetch_add(1, std::memory_order_relaxed);
    r.recv_bytes.fetch_add(bytes, std::memory_order_relaxed);
  }

  Counts counts(int rank) const {
    const PerRank& r = ranks_[rank];
    return {r.recv_msgs.load(), r.recv_bytes.load()};
  }
  /// NowNs() of the first message sent or received, 0 if none yet.
  int64_t first_message_ns() const { return first_ns_.load(); }

 private:
  struct alignas(64) PerRank {
    std::atomic<uint64_t> recv_msgs{0};
    std::atomic<uint64_t> recv_bytes{0};
  };

  void Stamp() {
    if (first_ns_.load(std::memory_order_relaxed) != 0) return;
    int64_t expected = 0;
    first_ns_.compare_exchange_strong(expected, NowNs());
  }

  std::vector<PerRank> ranks_;
  std::atomic<int64_t> first_ns_{0};
};

/// A TransportGroup (or decorator such as WireDelayTransport) with every
/// message probed. `Base` keeps its own behaviour, including any wire delay,
/// which therefore lands inside the transport.recv span.
template <typename Base>
class ProbedTransport : public Base {
 public:
  template <typename... Args>
  explicit ProbedTransport(WireProbe* probe, Args&&... base_args)
      : Base(std::forward<Args>(base_args)...),
        probe_(probe),
        send_(SpanName("transport.send")),
        recv_(SpanName("transport.recv")) {}

  bagua::Status Send(int src, int dst, uint64_t tag, const void* data,
                     size_t bytes) override {
    ScopedSpan span(src, send_);
    probe_->OnSend();
    return Base::Send(src, dst, tag, data, bytes);
  }
  bagua::Status SendBuffer(int src, int dst, uint64_t tag,
                           std::vector<uint8_t>&& payload) override {
    ScopedSpan span(src, send_);
    probe_->OnSend();
    return Base::SendBuffer(src, dst, tag, std::move(payload));
  }
  bagua::Status Recv(int src, int dst, uint64_t tag,
                     std::vector<uint8_t>* out) override {
    ScopedSpan span(dst, recv_);
    RETURN_IF_ERROR(Base::Recv(src, dst, tag, out));
    probe_->OnRecv(dst, out->size());
    return bagua::Status::OK();
  }
  bagua::Status RecvWithDeadline(int src, int dst, uint64_t tag,
                                 std::chrono::milliseconds timeout,
                                 std::vector<uint8_t>* out) override {
    ScopedSpan span(dst, recv_);
    RETURN_IF_ERROR(Base::RecvWithDeadline(src, dst, tag, timeout, out));
    probe_->OnRecv(dst, out->size());
    return bagua::Status::OK();
  }
  bagua::Status TryRecvAny(int dst, uint64_t tag, std::vector<uint8_t>* out,
                           int* src_out) override {
    ScopedSpan span(dst, recv_);
    RETURN_IF_ERROR(Base::TryRecvAny(dst, tag, out, src_out));
    probe_->OnRecv(dst, out->size());
    return bagua::Status::OK();
  }

 private:
  WireProbe* probe_;
  int send_;
  int recv_;
};

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
