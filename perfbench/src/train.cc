// Data-parallel training workloads: four ranks on a 2x2 topology, each a
// BaguaRuntime driving an MLP whose layers, optimizer, algorithm and
// transport are wrapped in the benchmark's probes.
#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "algorithms/registry.h"
#include "base/rng.h"
#include "base/strings.h"
#include "collectives/collectives.h"
#include "core/runtime.h"
#include "model/data.h"
#include "model/net.h"
#include "probes.h"
#include "sim/collective_cost.h"
#include "transport/delay.h"
#include "workloads.h"

namespace perfbench {
namespace {

using bagua::Status;

struct TrainSpec {
  const char* algorithm;
  std::vector<size_t> dims;
  size_t batch;  // per rank
  double wire_latency_s;
  double wire_per_byte_s;
  // The latency_ms.tail percentile: >= 10 steps beyond it in the untraced
  // window (40% of 20 s) of a traced run.
  double tail_percentile;
  // fp32 allreduce: one bucket's reduction is checked against a plain sum.
  bool exact_reduction;
};

// train-dense-wire is bound by the wire: the comm gates' 20 us + 1 ns/B
// delay on a 1.1 MB fused fp32 bucket. train-qsgd-compute has no wire delay
// and a model and batch large enough that GEMMs and the QSGD codec dominate.
TrainSpec SpecFor(const std::string& workload) {
  if (workload == "train-dense-wire") {
    return {"allreduce", {32, 512, 512, 8}, 16, 20e-6, 1e-9, 98.0, true};
  }
  return {"qsgd8", {32, 1024, 1024, 8}, 128, 0.0, 0.0, 90.0, false};
}

constexpr int kNodes = 2;
constexpr int kDevicesPerNode = 2;
constexpr size_t kBatchesPerRank = 8;  // generated input batches, cycled
// The loss is checked at this step count; the last of these steps revisits
// the first step's batch, after one update per batch.
constexpr uint64_t kCheckSteps = kBatchesPerRank + 1;
// Set-up is repeated until both minimums are met and its median reported:
// a median of five instances moved by 2x between runs.
constexpr size_t kMinSetupReps = 5;
constexpr double kMinSetupSeconds = 1.0;

class Cluster {
 public:
  Cluster(const TrainSpec& spec, int nodes, int devices, uint64_t seed)
      : world_(nodes * devices), probe_(world_),
        step_span_(SpanName("step")) {
    std::unique_ptr<bagua::TransportGroup> group;
    if (spec.wire_latency_s > 0.0 || spec.wire_per_byte_s > 0.0) {
      group = std::make_unique<ProbedTransport<bagua::WireDelayTransport>>(
          &probe_, world_, spec.wire_latency_s, spec.wire_per_byte_s);
    } else {
      group = std::make_unique<ProbedTransport<bagua::TransportGroup>>(
          &probe_, world_);
    }
    comm_ = std::make_unique<bagua::CommWorld>(
        bagua::ClusterTopology::Make(nodes, devices), seed, std::move(group));

    bagua::SyntheticClassification::Options data;
    data.num_samples =
        static_cast<size_t>(world_) * spec.batch * kBatchesPerRank;
    data.dim = spec.dims.front();
    data.classes = spec.dims.back();
    data.seed = bagua::MixSeed(seed, 1);
    const bagua::SyntheticClassification dataset(data);

    bagua::BaguaOptions options;  // O, F and H on; synchronous executor
    options.intra_op_threads = 1;
    replicas_.resize(static_cast<size_t>(world_));
    for (int r = 0; r < world_; ++r) {
      Replica& rep = replicas_[r];
      rep.x.resize(kBatchesPerRank);
      rep.y.resize(kBatchesPerRank);
      for (size_t b = 0; b < kBatchesPerRank; ++b) {
        const Status st =
            dataset.GetShardBatch(r, world_, 0, b, spec.batch, &rep.x[b],
                                  &rep.y[b]);
        BAGUA_CHECK(st.ok()) << st.ToString();
      }
      rep.net = std::make_unique<bagua::Net>();
      for (size_t i = 0; i + 1 < spec.dims.size(); ++i) {
        const bool last = i + 2 == spec.dims.size();
        rep.net->Add(std::make_unique<TimedLayer>(
            std::make_unique<bagua::DenseLayer>(
                bagua::StrFormat("fc%zu", i), spec.dims[i], spec.dims[i + 1],
                last ? bagua::Activation::kNone : bagua::Activation::kRelu),
            r));
      }
      rep.net->InitParams(bagua::MixSeed(seed, 2));
      rep.opt = std::make_unique<TimedOptimizer>(
          std::make_unique<bagua::SgdOptimizer>(/*lr=*/0.02, /*momentum=*/0.9),
          r);
      auto algo = bagua::MakeAlgorithm(spec.algorithm);
      BAGUA_CHECK(algo.ok()) << algo.status().ToString();
      rep.algo = std::make_unique<TimedAlgorithm>(std::move(algo).value());
      rep.runtime = std::make_unique<bagua::BaguaRuntime>(
          comm_.get(), r, rep.net.get(), rep.opt.get(), rep.algo.get(),
          options);
    }
  }

  /// Runs `n` lockstep training steps on every rank. Appends rank 0's
  /// TrainStepCE wall times (ms) to `rank0_ms` when given.
  Status RunSteps(uint64_t n, std::vector<double>* rank0_ms) {
    std::vector<Status> status(static_cast<size_t>(world_));
    const uint64_t first = steps_;
    RunRanks(world_, [&](int r) {
      Replica& rep = replicas_[r];
      for (uint64_t i = 0; i < n; ++i) {
        const uint64_t step = first + i;
        const size_t b = step % kBatchesPerRank;
        Spans::SetStep(r, static_cast<int64_t>(step));
        const int64_t t0 = NowNs();
        bagua::Result<double> loss = [&] {
          ScopedSpan span(r, step_span_);
          return rep.runtime->TrainStepCE(rep.x[b], rep.y[b]);
        }();
        const int64_t t1 = NowNs();
        if (!loss.ok()) {
          status[r] = loss.status();
          comm_->group()->Shutdown();  // unblock peers waiting on this rank
          return;
        }
        rep.loss = *loss;
        if (step == 0) rep.first_loss = *loss;
        if (r == 0 && rank0_ms != nullptr) {
          rank0_ms->push_back(static_cast<double>(t1 - t0) * 1e-6);
        }
      }
    });
    steps_ += n;
    for (const Status& st : status) RETURN_IF_ERROR(st);
    return Status::OK();
  }

  /// True when every replica's parameters are bitwise equal to rank 0's.
  bool ReplicasEqual() {
    const std::vector<bagua::Param> ref = replicas_[0].net->params();
    for (int r = 1; r < world_; ++r) {
      const std::vector<bagua::Param> mine = replicas_[r].net->params();
      if (mine.size() != ref.size()) return false;
      for (size_t i = 0; i < ref.size(); ++i) {
        const size_t n = ref[i].value->numel();
        if (mine[i].value->numel() != n ||
            std::memcmp(mine[i].value->data(), ref[i].value->data(),
                        n * sizeof(float)) != 0) {
          return false;
        }
      }
    }
    return true;
  }

  double rank0_loss() const { return replicas_[0].loss; }
  double rank0_first_loss() const { return replicas_[0].first_loss; }
  TimedAlgorithm* algorithm(int rank) { return replicas_[rank].algo.get(); }
  int world() const { return world_; }
  const WireProbe& probe() const { return probe_; }
  bagua::TransportGroup* group() { return comm_->group(); }
  size_t bucket_bytes() const {
    size_t bytes = 0;
    for (const bagua::Bucket& b : replicas_[0].runtime->buckets()) {
      bytes += b.numel * sizeof(float);
    }
    return bytes;
  }

 private:
  struct Replica {
    std::vector<bagua::Tensor> x, y;
    std::unique_ptr<bagua::Net> net;
    std::unique_ptr<bagua::Optimizer> opt;
    std::unique_ptr<TimedAlgorithm> algo;
    std::unique_ptr<bagua::BaguaRuntime> runtime;
    double loss = 0.0;
    double first_loss = 0.0;  // step 0's
  };

  int world_;
  WireProbe probe_;
  int step_span_;
  std::unique_ptr<bagua::CommWorld> comm_;
  std::vector<Replica> replicas_;
  uint64_t steps_ = 0;
};

struct Window {
  std::vector<double> step_ms;  // rank 0, per step
  uint64_t steps = 0;
  double wall_s = 0.0;
  Status status;
};

// Runs whole chunks of about 0.1 s of steps until `seconds` have elapsed.
Window TimeWindow(Cluster* cluster, double seconds) {
  Window w;
  std::vector<double> probe;
  w.status = cluster->RunSteps(2, &probe);  // sizes the chunks; untimed
  if (!w.status.ok()) return w;
  const double mean_s = std::max(1e-6, (probe[0] + probe[1]) * 0.5e-3);
  const uint64_t chunk =
      std::clamp<uint64_t>(static_cast<uint64_t>(0.1 / mean_s), 1, 100000);
  const int64_t start = NowNs();
  while (static_cast<double>(NowNs() - start) * 1e-9 < seconds) {
    const int64_t t0 = NowNs();
    w.status = cluster->RunSteps(chunk, &w.step_ms);
    const double wall_s = static_cast<double>(NowNs() - t0) * 1e-9;
    if (!w.status.ok()) return w;
    w.wall_s += wall_s;
    w.steps += chunk;
  }
  return w;
}

// Runs one step with every rank's next bucket captured and checks rank 0's
// reduced gradient against the plain average of the ranks' inputs, within
// the rounding of a sum of `world` fp32 terms.
bool ReductionMatchesSum(Cluster* cluster, std::string* detail) {
  for (int r = 0; r < cluster->world(); ++r) {
    cluster->algorithm(r)->ArmCapture();
  }
  const Status st = cluster->RunSteps(1, nullptr);
  if (!st.ok()) {
    *detail = st.ToString();
    return false;
  }
  const TimedAlgorithm::Capture& out = cluster->algorithm(0)->capture();
  const double inv_world = 1.0 / cluster->world();
  size_t bad = 0;
  double worst = 0.0;
  for (size_t i = 0; i < out.after.size(); ++i) {
    double sum = 0.0, magnitude = 0.0;
    for (int r = 0; r < cluster->world(); ++r) {
      const TimedAlgorithm::Capture& in = cluster->algorithm(r)->capture();
      if (in.bucket != out.bucket || in.before.size() != out.after.size()) {
        *detail = "ranks captured different buckets";
        return false;
      }
      sum += in.before[i];
      magnitude += std::fabs(in.before[i]);
    }
    const double err = std::fabs(out.after[i] - sum * inv_world);
    const double tol =
        4.0 * cluster->world() * FLT_EPSILON * magnitude * inv_world + 1e-30;
    worst = std::max(worst, err / tol);
    if (err > tol) ++bad;
  }
  *detail = bagua::StrFormat("%zu of %zu elements, worst error %.3g of its "
                             "tolerance",
                             bad, out.after.size(), worst);
  return !out.after.empty() && bad == 0;
}

// Global samples per second at the mean time of rank 0's fastest quarter of
// steps (ranks run in lockstep). A shared host's noise only ever adds time,
// and it stretches whole runs of steps, so the fastest steps are the ones it
// disturbs least. On a shared 4-core virtual machine a median over 0.1 s
// chunks of steps spread by up to 27% of its median over ten runs, since
// every chunk took in some stretched steps.
double SamplesPerS(const Window& w, double samples_per_step) {
  const double step_s = LowQuarterMean(w.step_ms) * 1e-3;
  return step_s > 0.0 ? samples_per_step / step_s : 0.0;
}

double PerStep(double total, uint64_t steps) {
  return steps == 0 ? 0.0 : total / static_cast<double>(steps);
}

double PerStepMs(int64_t ns, uint64_t steps) {
  return PerStep(static_cast<double>(ns) * 1e-6, steps);
}

}  // namespace

void RunTrainWorkload(const RunOptions& opts, Report* report) {
  const TrainSpec spec = SpecFor(opts.workload);
  const double samples_per_step =
      static_cast<double>(kNodes * kDevicesPerNode) * spec.batch;

  // Set-up: construction plus the first (profiling / plan-build) step,
  // repeated. The first and the last instance train on to kCheckSteps, and
  // the last one is the instance that is timed.
  std::vector<double> setup_s;
  double setup_total_s = 0.0;
  std::unique_ptr<Cluster> cluster;
  double reference_loss = 0.0;
  double reference_first_loss = 0.0;
  Status st;
  while (setup_s.size() < kMinSetupReps || setup_total_s < kMinSetupSeconds) {
    cluster.reset();
    const int64_t t0 = NowNs();
    cluster = std::make_unique<Cluster>(spec, kNodes, kDevicesPerNode,
                                        opts.seed);
    st = cluster->RunSteps(1, nullptr);
    setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    setup_total_s += setup_s.back();
    if (st.ok() && setup_s.size() == 1) {
      st = cluster->RunSteps(kCheckSteps - 1, nullptr);
      reference_loss = cluster->rank0_loss();
      reference_first_loss = cluster->rank0_first_loss();
    }
    report->Ops(1, st.ok() ? 0 : 1);
    if (!st.ok()) break;
  }
  if (st.ok()) st = cluster->RunSteps(kCheckSteps - 1, nullptr);
  if (!st.ok()) {
    report->Note("set-up failed: " + st.ToString());
    return;
  }
  report->Note(bagua::StrFormat(
      "rank-0 loss at step %llu (seed %llu): %.17g; at step 1, on the same "
      "batch: %.17g",
      static_cast<unsigned long long>(kCheckSteps),
      static_cast<unsigned long long>(opts.seed), reference_loss,
      reference_first_loss));
  report->Check("loss after the fixed step count repeats bitwise",
                std::isfinite(reference_loss) &&
                    cluster->rank0_loss() == reference_loss);
  report->Check("loss on the first batch fell after one pass over the batches",
                reference_loss < reference_first_loss);

  const uint64_t misses_before = cluster->group()->pool_stats().misses;
  const double untraced_s = opts.trace ? opts.seconds * 0.4 : opts.seconds;
  const Window w = TimeWindow(cluster.get(), untraced_s);
  const double peak_rss_mb = PeakRssMb();
  report->Ops(w.steps, w.status.ok() ? 0 : 1);
  if (!w.status.ok()) {
    report->Note("training step failed: " + w.status.ToString());
    return;
  }
  const double samples_per_s = SamplesPerS(w, samples_per_step);
  const double p50 = Median(w.step_ms);
  const Tail tail = TailOf(w.step_ms, spec.tail_percentile);
  report->Note(bagua::StrFormat(
      "%llu steps in %.3f s (%.1f samples/s overall, %.1f at the mean of "
      "the fastest quarter of steps); step p50 %.4f ms; tail p%g %.4f ms "
      "over %zu samples (%zu beyond)",
      static_cast<unsigned long long>(w.steps), w.wall_s,
      w.steps * samples_per_step / w.wall_s, samples_per_s, p50,
      tail.percentile, tail.value, w.step_ms.size(), tail.beyond));
  report->EndToEnd("throughput", samples_per_s, "1/s");
  report->EndToEnd("latency_ms.p50", p50, "ms");
  report->EndToEnd("setup_s", Median(setup_s), "s");
  report->EndToEnd("peak_rss_mb", peak_rss_mb, "MiB");

  if (opts.trace) {
    report->PerLayer("latency_ms.tail", tail.value, "ms");
    const WireProbe::Counts before = cluster->probe().counts(0);
    Spans::Start(cluster->world());
    const Window tw = TimeWindow(cluster.get(), opts.seconds * 0.4);
    Spans::Stop();
    report->Ops(tw.steps, tw.status.ok() ? 0 : 1);
    if (!tw.status.ok()) {
      report->Note("traced training step failed: " + tw.status.ToString());
      return;
    }
    const WireProbe::Counts after = cluster->probe().counts(0);
    const auto spans = Spans::Summarize(0);
    const auto at = [&](const std::string& name) {
      const auto it = spans.find(name);
      return it == spans.end() ? SpanTotals() : it->second;
    };
    const uint64_t steps = at("step").count;
    int64_t fwd_ns = 0, bwd_ns = 0;
    for (size_t i = 0; i + 1 < spec.dims.size(); ++i) {
      const SpanTotals f = at(bagua::StrFormat("fwd.fc%zu", i));
      const SpanTotals b = at(bagua::StrFormat("bwd.fc%zu", i));
      fwd_ns += f.self_ns;
      bwd_ns += b.self_ns;
      report->PerLayer(bagua::StrFormat("model.fwd.fc%zu_ms", i),
                       PerStepMs(f.self_ns, steps), "ms");
      report->PerLayer(bagua::StrFormat("model.bwd.fc%zu_ms", i),
                       PerStepMs(b.self_ns, steps), "ms");
    }
    const double step_ms = PerStepMs(at("step").total_ns, steps);
    const double other_ms = PerStepMs(at("step").self_ns, steps);
    const double coverage = step_ms > 0.0 ? 1.0 - other_ms / step_ms : 0.0;
    const double bucket_ms = PerStepMs(at("bucket").total_ns, steps);
    report->PerLayer("model.fwd_ms", PerStepMs(fwd_ns, steps), "ms");
    report->PerLayer("model.bwd_ms", PerStepMs(bwd_ns, steps), "ms");
    report->PerLayer("model.optim_ms",
                     PerStepMs(at("optim.step").total_ns, steps), "ms");
    report->PerLayer("algorithms.bucket_ms", bucket_ms, "ms");
    report->PerLayer("algorithms.self_ms",
                     PerStepMs(at("bucket").self_ns, steps), "ms");
    report->PerLayer("transport.recv_wait_ms",
                     PerStepMs(at("transport.recv").total_ns, steps), "ms");
    report->PerLayer("transport.send_ms",
                     PerStepMs(at("transport.send").total_ns, steps), "ms");
    report->PerLayer("transport.msgs",
                     PerStep(after.recv_msgs - before.recv_msgs, steps),
                     "count");
    report->PerLayer("transport.bytes",
                     PerStep(after.recv_bytes - before.recv_bytes, steps),
                     "bytes");
    report->PerLayer("transport.pool_misses_steady",
                     static_cast<double>(
                         cluster->group()->pool_stats().misses - misses_before),
                     "count");
    report->PerLayer("core.other_ms", other_ms, "ms");
    report->PerLayer("core.coverage", coverage, "fraction");
    report->Check(bagua::StrFormat("disjoint phases cover %.1f%% (>= 90%%) of "
                                   "the rank-0 step",
                                   coverage * 100.0),
                  coverage >= 0.9);
    const double traced_p50 = Median(tw.step_ms);
    report->PerLayer("trace.latency_ms.p50", traced_p50, "ms");
    report->PerLayer("trace.overhead_ms", traced_p50 - p50, "ms");

    // Predicted vs measured: the sim/ pricer for the bucket's hierarchical
    // allreduce on a network whose every link is this run's wire delay.
    if (spec.wire_latency_s > 0.0) {
      bagua::NetworkConfig net;
      net.inter_latency_s = net.intra_latency_s = spec.wire_latency_s;
      net.inter_bw_Bps = net.intra_bw_Bps = 1.0 / spec.wire_per_byte_s;
      const auto topo = bagua::ClusterTopology::Make(kNodes, kDevicesPerNode);
      const double bytes = static_cast<double>(cluster->bucket_bytes());
      const double des_ms =
          bagua::DesHierAllreduceTime(
              topo, net, bytes,
              static_cast<int>(bagua::WireSegmentsForBytes(
                  cluster->bucket_bytes()))) * 1e3;
      const double closed_ms =
          bagua::HierRingAllreduceCost(topo, net, bytes) * 1e3;
      report->PerLayer("diag.sim_bucket_ms", des_ms, "ms");
      report->Note(bagua::StrFormat(
          "predicted hierarchical allreduce of the %.0f-byte bucket: DES %.3f "
          "ms, closed form %.3f ms; measured algorithms.bucket_ms %.3f ms",
          bytes, des_ms, closed_ms, bucket_ms));
    }

    // Single-worker baseline of the same task: scaling efficiency.
    Cluster single(spec, 1, 1, opts.seed);
    Status st = single.RunSteps(kCheckSteps, nullptr);
    Window sw;
    if (st.ok()) {
      sw = TimeWindow(&single, opts.seconds * 0.2);
      st = sw.status;
    }
    report->Ops(sw.steps + 1, st.ok() ? 0 : 1);
    if (st.ok()) {
      const double single_sps =
          SamplesPerS(sw, static_cast<double>(spec.batch));
      const double efficiency =
          samples_per_s / (kNodes * kDevicesPerNode * single_sps);
      report->PerLayer("diag.scaling_efficiency", efficiency, "fraction");
      report->Note(bagua::StrFormat(
          "world 1: %.1f samples/s; world 4: %.1f samples/s; efficiency "
          "%.3f",
          single_sps, samples_per_s, efficiency));
    }
  }

  if (spec.exact_reduction) {
    std::string detail;
    const bool ok = ReductionMatchesSum(cluster.get(), &detail);
    report->Ops(1, 0);
    report->Check("reduced bucket equals the average of the ranks' gradients "
                  "(" + detail + ")",
                  ok);
  }
  report->Check("all replicas' parameters are bitwise equal after the window",
                cluster->ReplicasEqual());
}

}  // namespace perfbench
