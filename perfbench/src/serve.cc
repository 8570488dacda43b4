// serve-dlrm: open-loop DLRM serving replays through RunServingReplay on
// four ranks that are each an embedding shard and a front-end replica,
// over the training workloads' 20 us + 1 ns/B emulated wire.
#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "base/rng.h"
#include "base/strings.h"
#include "model/embedding.h"
#include "probes.h"
#include "serve/batcher.h"
#include "serve/serving.h"
#include "transport/delay.h"
#include "workloads.h"

namespace perfbench {
namespace {

using bagua::Status;

constexpr int kWorld = 4;
constexpr size_t kRequestsPerReplay = 8192;
// Requests whose logits are recomputed without the serving stack.
constexpr size_t kLocalCheckRequests = 1024;
// The latency_ms.tail percentile, per replay of ~8k timed requests.
constexpr double kTailPercentile = 99.0;
// Throughput is taken over groups of this many consecutive batches (~7 ms
// of service) and the median over groups reported, so that a host stall
// of a few milliseconds moves a few groups rather than the figure.
constexpr size_t kGroupBatches = 16;
// Each batch's two AllToAll rounds pay this wire per message, so a batch
// takes ~0.4 ms of wire time rather than a few thread wake-ups.
constexpr double kWireLatencyS = 20e-6;
constexpr double kWirePerByteS = 1e-9;

bagua::ServingConfig MakeConfig(uint64_t seed, uint64_t replay) {
  bagua::ServingConfig cfg;
  cfg.model.num_tables = 4;
  cfg.model.rows_per_table = 16384;
  cfg.model.dim = 16;
  cfg.model.seed = bagua::MixSeed(seed, 300 + replay);
  cfg.world = kWorld;
  cfg.num_requests = kRequestsPerReplay;
  // Batches close full, 1.6 ms apart on average, so the server is ~28%
  // busy and a host stall drains from the open-loop backlog instead of
  // piling up (with the 1 ms default it was ~42% busy).
  cfg.policy.max_batch = 32;
  cfg.policy.max_delay_us = 4000;
  cfg.cache_rows = 1024;
  cfg.mean_interarrival_us = 50.0;  // 20k requests/s offered
  cfg.seed = bagua::MixSeed(seed, 100 + replay);
  return cfg;
}

struct Replay {
  Status status;
  double setup_s = 0.0;             // call start to the first message
  std::vector<double> service_us;   // per batch, slowest rank's service
  std::vector<double> group_qps;    // per kGroupBatches batches
  std::vector<double> latency_ms;   // per timed request, open loop
  std::vector<float> logits;        // request-indexed
  uint64_t batches = 0;             // including the warm-up batches
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t pool_misses_steady = 0;
  WireProbe::Counts rank0;
};

// Runs one replay on kWorld rank threads, over the emulated wire when
// `wire` is set. Logits do not depend on the transport.
Replay RunReplay(const bagua::ServingConfig& cfg, int64_t replay_index,
                 bool wire) {
  static const int replay_span = SpanName("replay");
  Replay out;
  const int64_t t0 = NowNs();
  WireProbe probe(kWorld);
  std::unique_ptr<bagua::TransportGroup> group;
  if (wire) {
    group = std::make_unique<ProbedTransport<bagua::WireDelayTransport>>(
        &probe, kWorld, kWireLatencyS, kWirePerByteS);
  } else {
    group = std::make_unique<ProbedTransport<bagua::TransportGroup>>(&probe,
                                                                     kWorld);
  }
  std::vector<bagua::ServingReport> partial(kWorld);
  std::vector<Status> status(kWorld);
  RunRanks(kWorld, [&](int r) {
    Spans::SetStep(r, replay_index);
    ScopedSpan span(r, replay_span);
    status[r] = bagua::RunServingReplay(cfg, group.get(), r, &partial[r]);
    if (!status[r].ok()) group->Shutdown();
  });
  for (const Status& st : status) {
    if (!st.ok()) {
      out.status = st;
      return out;
    }
  }
  out.setup_s = static_cast<double>(probe.first_message_ns() - t0) * 1e-9;
  out.rank0 = probe.counts(0);

  // Rebuild the replay's batch timeline with the same pure functions it
  // used. A request's reported latency is its batch's queueing delay plus
  // its rank's measured service time, so subtracting the former recovers
  // the latter; the batch is done when its slowest rank is.
  const std::vector<bagua::ServeRequest> requests = bagua::GenerateArrivals(
      cfg.num_requests, cfg.mean_interarrival_us, cfg.seed);
  const std::vector<bagua::RequestBatch> batches =
      bagua::FormBatches(requests, cfg.policy);
  out.logits.resize(cfg.num_requests);
  out.batches = batches.size();
  double free_at_us = 0.0;  // when the server finishes its backlog
  double group_requests = 0.0, group_us = 0.0;
  for (size_t b = 0; b < batches.size(); ++b) {
    const bagua::RequestBatch& batch = batches[b];
    double service = 0.0;
    for (size_t t = batch.begin; t < batch.begin + batch.count; ++t) {
      const bagua::ServingReport& owner = partial[t % kWorld];
      const double queue_us =
          static_cast<double>(batch.close_us - requests[t].arrival_us);
      service = std::max(service, owner.latency_us[t] - queue_us);
      out.logits[t] = owner.logits[t];
    }
    // The warm-up batches of a fresh replay fill the cache and touch cold
    // memory, a cost a long-running server pays once: they are left out of
    // the timeline, as the replay leaves them out of its pool accounting.
    if (b < cfg.warmup_batches) continue;
    const double start_us =
        std::max(static_cast<double>(batch.close_us), free_at_us);
    free_at_us = start_us + service;
    out.service_us.push_back(service);
    for (size_t t = batch.begin; t < batch.begin + batch.count; ++t) {
      out.latency_ms.push_back(
          (free_at_us - static_cast<double>(requests[t].arrival_us)) * 1e-3);
    }
    group_requests += static_cast<double>(batch.count);
    group_us += service;
    if (out.service_us.size() % kGroupBatches == 0) {
      out.group_qps.push_back(group_requests / (group_us * 1e-6));
      group_requests = group_us = 0.0;
    }
  }
  for (const bagua::ServingReport& p : partial) {
    out.cache_hits += p.cache_hits;
    out.cache_misses += p.cache_misses;
  }
  out.pool_misses_steady = partial[0].pool_misses_steady;
  return out;
}

// Logits of the first `n` requests of `cfg`'s stream from one unsharded,
// uncached DlrmModel::Forward over locally held tables: no transport, no
// Gather, no cache, no batching.
Status LocalLogits(const bagua::ServingConfig& cfg, size_t n,
                   std::vector<float>* out) {
  bagua::DlrmModel model(cfg.model);
  const bagua::DlrmConfig& mc = cfg.model;
  const size_t slots = mc.num_tables * mc.slots_per_bag;
  bagua::Tensor dense = bagua::Tensor::Zeros({n, mc.dense_dim});
  bagua::Tensor ids = bagua::Tensor::Zeros({n, slots});
  std::vector<float> dense_req;
  std::vector<uint32_t> ids_req;
  for (size_t i = 0; i < n; ++i) {
    model.SampleRequest(i, &dense_req, &ids_req);
    std::copy(dense_req.begin(), dense_req.end(),
              dense.data() + i * mc.dense_dim);
    for (size_t s = 0; s < slots; ++s) {
      ids[i * slots + s] = static_cast<float>(ids_req[s]);
    }
  }
  bagua::Tensor logits;
  RETURN_IF_ERROR(model.Forward(dense, ids, &logits));
  out->assign(logits.data(), logits.data() + n);
  return Status::OK();
}

double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

struct Window {
  uint64_t replays = 0;
  uint64_t requests = 0;
  std::vector<double> setup_s;
  std::vector<double> service_us;
  std::vector<double> group_qps;  // requests/s over batch service time
  // Per replay: latency p50 and tail.
  std::vector<double> replay_p50, replay_tail;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t pool_misses_steady = 0;
  uint64_t batches = 0;  // including the warm-up batches
  uint64_t rank0_recv_msgs = 0;
  uint64_t rank0_recv_bytes = 0;
  std::vector<float> first_logits;
  Status status;
};

// Replays fresh seeded streams until `seconds` have elapsed.
void TimeWindow(uint64_t seed, double seconds, Window* w) {
  const int64_t start = NowNs();
  do {
    const bagua::ServingConfig cfg = MakeConfig(seed, w->replays);
    Replay r = RunReplay(cfg, static_cast<int64_t>(w->replays), true);
    if (!r.status.ok()) {
      w->status = r.status;
      return;
    }
    if (w->replays == 0) w->first_logits = std::move(r.logits);
    ++w->replays;
    w->requests += r.latency_ms.size();
    w->setup_s.push_back(r.setup_s);
    const Tail tail = TailOf(r.latency_ms, kTailPercentile);
    w->replay_p50.push_back(Median(r.latency_ms));
    w->replay_tail.push_back(tail.value);
    w->service_us.insert(w->service_us.end(), r.service_us.begin(),
                         r.service_us.end());
    w->group_qps.insert(w->group_qps.end(), r.group_qps.begin(),
                        r.group_qps.end());
    w->cache_hits += r.cache_hits;
    w->cache_misses += r.cache_misses;
    w->pool_misses_steady += r.pool_misses_steady;
    w->batches += r.batches;
    w->rank0_recv_msgs += r.rank0.recv_msgs;
    w->rank0_recv_bytes += r.rank0.recv_bytes;
  } while (static_cast<double>(NowNs() - start) * 1e-9 < seconds);
}

}  // namespace

void RunServeWorkload(const RunOptions& opts, Report* report) {
  Window w;
  TimeWindow(opts.seed, opts.trace ? opts.seconds * 0.45 : opts.seconds, &w);
  const double peak_rss_mb = PeakRssMb();
  report->Ops(w.requests, w.status.ok() ? 0 : 1);
  if (!w.status.ok()) {
    report->Note("serving replay failed: " + w.status.ToString());
    return;
  }
  // Each replay is a fresh server; medians over groups and replays keep a
  // run's figures steady when the shared host stalls some of them.
  const double qps = Median(w.group_qps);
  const double p50 = Median(w.replay_p50);
  const double tail = Median(w.replay_tail);
  report->Note(bagua::StrFormat(
      "%llu replays, %llu timed requests, %zu batches; %.1f requests/s over "
      "batch service time (median of %zu groups of %zu batches); "
      "per-replay medians: latency p50 %.4f ms, tail p%g %.4f ms (%llu timed "
      "requests per replay)",
      static_cast<unsigned long long>(w.replays),
      static_cast<unsigned long long>(w.requests), w.service_us.size(), qps,
      w.group_qps.size(), kGroupBatches, p50,
      kTailPercentile, tail,
      static_cast<unsigned long long>(w.requests / w.replays)));
  report->EndToEnd("throughput", qps, "1/s");
  report->EndToEnd("latency_ms.p50", p50, "ms");
  report->EndToEnd("setup_s", Median(w.setup_s), "s");
  report->EndToEnd("peak_rss_mb", peak_rss_mb, "MiB");

  if (opts.trace) {
    report->PerLayer("latency_ms.tail", tail, "ms");
    Window tw;
    Spans::Start(kWorld);
    TimeWindow(opts.seed, opts.seconds * 0.45, &tw);
    Spans::Stop();
    report->Ops(tw.requests, tw.status.ok() ? 0 : 1);
    if (!tw.status.ok()) {
      report->Note("traced serving replay failed: " + tw.status.ToString());
      return;
    }
    const auto spans = Spans::Summarize(0);
    const auto total_ns = [&](const std::string& name) {
      const auto it = spans.find(name);
      return it == spans.end() ? 0.0 : static_cast<double>(it->second.total_ns);
    };
    // Transport figures cover every batch of a replay, warm-up included.
    const double batches = static_cast<double>(tw.batches);
    const double recv_ms = total_ns("transport.recv") * 1e-6 / batches;
    const double send_ms = total_ns("transport.send") * 1e-6 / batches;
    const double batch_ms =
        Sum(tw.service_us) * 1e-3 / static_cast<double>(tw.service_us.size());
    report->PerLayer("serve.batch_ms.p50", Median(w.service_us) * 1e-3, "ms");
    report->PerLayer("serve.frontend_ms", batch_ms - recv_ms - send_ms, "ms");
    report->PerLayer(
        "serve.cache_hit_rate",
        static_cast<double>(w.cache_hits) / (w.cache_hits + w.cache_misses),
        "fraction");
    report->PerLayer("transport.recv_wait_ms", recv_ms, "ms");
    report->PerLayer("transport.send_ms", send_ms, "ms");
    report->PerLayer("transport.msgs", tw.rank0_recv_msgs / batches, "count");
    report->PerLayer("transport.bytes", tw.rank0_recv_bytes / batches,
                     "bytes");
    report->PerLayer("transport.pool_misses_steady",
                     static_cast<double>(w.pool_misses_steady +
                                         tw.pool_misses_steady),
                     "count");
    const double traced_p50 = Median(tw.replay_p50);
    report->PerLayer("trace.latency_ms.p50", traced_p50, "ms");
    report->PerLayer("trace.overhead_ms", traced_p50 - p50, "ms");
  }

  // The same stream unbatched and uncached must give the same logits bitwise.
  bagua::ServingConfig ref_cfg = MakeConfig(opts.seed, 0);
  ref_cfg.policy.max_batch = 1;
  ref_cfg.cache_rows = 0;
  const Replay ref = RunReplay(ref_cfg, -1, false);
  report->Ops(ref_cfg.num_requests, ref.status.ok() ? 0 : 1);
  report->Check(
      "served logits equal a max_batch=1, cache_rows=0 replay bitwise",
      ref.status.ok() && ref.logits.size() == w.first_logits.size() &&
          std::memcmp(ref.logits.data(), w.first_logits.data(),
                      ref.logits.size() * sizeof(float)) == 0);

  // Both replays share the sharded Gather; this reference does not.
  std::vector<float> local;
  const Status st = LocalLogits(ref_cfg, kLocalCheckRequests, &local);
  report->Ops(kLocalCheckRequests, st.ok() ? 0 : 1);
  report->Check(
      bagua::StrFormat("served logits of the first %zu requests equal an "
                       "unsharded DlrmModel::Forward bitwise",
                       kLocalCheckRequests),
      st.ok() && local.size() == kLocalCheckRequests &&
          w.first_logits.size() >= kLocalCheckRequests &&
          std::memcmp(local.data(), w.first_logits.data(),
                      kLocalCheckRequests * sizeof(float)) == 0);
}

}  // namespace perfbench
