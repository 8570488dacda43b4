#include "serve/serving.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <numeric>
#include <unordered_map>

#include "base/strings.h"
#include "base/sync.h"
#include "ps/embedding_store.h"
#include "serve/cache.h"
#include "tensor/tensor.h"
#include "trace/trace.h"

namespace bagua {

namespace {

double PercentileOf(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t idx = static_cast<size_t>(q * (values.size() - 1));
  return values[idx];
}

}  // namespace

Status RunServingReplay(const ServingConfig& config, TransportGroup* group,
                        int rank, ServingReport* report) {
  const DlrmConfig& mc = config.model;
  const int world = config.world;
  if (world <= 0 || group->world_size() < world) {
    return Status::InvalidArgument("serving: bad world size");
  }
  const size_t dim = mc.dim;
  const size_t slots = mc.num_tables * mc.slots_per_bag;  // rows per request

  std::vector<int> ranks(world);
  std::iota(ranks.begin(), ranks.end(), 0);

  // Identical on every rank: the model, the store's contents (per-global-
  // row init streams), the virtual timeline, and the batch boundaries.
  DlrmModel model(mc);
  EmbeddingShard shard(group, ranks, rank, mc.total_rows(), dim, mc.seed);
  LruRowCache cache(config.cache_rows, dim);
  const std::vector<ServeRequest> requests = GenerateArrivals(
      config.num_requests, config.mean_interarrival_us, config.seed);
  const std::vector<RequestBatch> batches =
      FormBatches(requests, config.policy);

  report->requests = config.num_requests;
  report->logits.assign(config.num_requests, 0.0f);
  report->latency_us.assign(config.num_requests, 0.0);

  // An empty Gather exchanges only headers: a group-wide sync point on the
  // sparse-PS tag space (every member must enter before any can leave).
  auto barrier = [&]() -> Status {
    std::vector<float> none;
    return shard.Gather({}, &none);
  };

  // Park worst-case per-class buffer demand in the pool up front: the
  // per-batch miss count (and so the Gather payload size class) keeps
  // fluctuating with cache state, and a post-warmup batch that first
  // touches a class — or spikes a class's concurrent in-flight demand —
  // would otherwise register a pool miss. Mirrors comm_gate.h PrimePool.
  // The 64 B class gets more: every AllToAll's 8-byte headers (and its
  // smallest payloads) land there. Rank 0 parks for the whole group; in
  // one exchange each rank sends world-1 headers and world-1 payloads, it
  // may send the next exchange's messages before its peers drain this one,
  // and it receives into two buffers.
  if (rank == 0) {
    const size_t worst = std::max<size_t>(
        std::min<size_t>(config.policy.max_batch, config.num_requests),
        size_t{1}) * slots * dim * sizeof(float);
    const size_t w = static_cast<size_t>(world);
    const size_t per_class = 2 * w + 2;
    const size_t per_header_class = w * (4 * (w - 1) + 2);
    std::vector<std::vector<uint8_t>> parked;
    for (size_t bytes = 64; bytes < worst * 2; bytes *= 2) {
      const size_t count = bytes == 64 ? per_header_class : per_class;
      for (size_t k = 0; k < count; ++k) {
        parked.push_back(group->AcquireBuffer(bytes));
      }
    }
    for (auto& buf : parked) group->Recycle(std::move(buf));
  }

  const size_t warm = std::min<size_t>(config.warmup_batches, batches.size());
  uint64_t pool_miss_snapshot = 0;
  bool snapped = false;
  double service_wall_s = 0.0;

  // Per-batch scratch, reused so the replay's own heap churn settles too.
  std::vector<size_t> owned;           // global request indices of this rank
  std::vector<float> dense_req;        // one request's dense features
  std::vector<uint32_t> ids_req;       // one request's local table ids
  std::vector<float> rows;             // [owned, slots, dim] gathered rows
  std::vector<uint64_t> miss_ids;      // cache misses, first-seen order
  std::vector<std::pair<size_t, size_t>> pending;  // (slot, miss position)
  std::unordered_map<uint64_t, size_t> miss_pos;
  std::vector<float> gathered;

  for (size_t b = 0; b < batches.size(); ++b) {
    const RequestBatch& batch = batches[b];
    const auto t_begin = std::chrono::steady_clock::now();

    owned.clear();
    for (size_t t = batch.begin; t < batch.begin + batch.count; ++t) {
      if (requests[t].index % static_cast<uint64_t>(world) ==
          static_cast<uint64_t>(rank)) {
        owned.push_back(t);
      }
    }
    TraceSpan span(rank, TraceStream::kServe, "serve.batch",
                   owned.size() * slots * dim * sizeof(float),
                   static_cast<int>(b));
    TraceIncrement(rank, "serve.requests", owned.size());

    // Draw features and route every needed row through the cache; only
    // misses (deduplicated within the batch) go to the sharded store.
    rows.resize(owned.size() * slots * dim);
    Tensor dense = Tensor::Zeros({owned.size(), mc.dense_dim}, "serve.dense");
    miss_ids.clear();
    pending.clear();
    miss_pos.clear();
    for (size_t k = 0; k < owned.size(); ++k) {
      model.SampleRequest(requests[owned[k]].index, &dense_req, &ids_req);
      std::memcpy(dense.data() + k * mc.dense_dim, dense_req.data(),
                  mc.dense_dim * sizeof(float));
      for (size_t s = 0; s < slots; ++s) {
        const size_t table = s / mc.slots_per_bag;
        const uint64_t gid = mc.GlobalRow(table, ids_req[s]);
        const size_t slot = k * slots + s;
        if (const float* row = cache.Lookup(gid)) {
          std::memcpy(rows.data() + slot * dim, row, dim * sizeof(float));
          continue;
        }
        auto it = miss_pos.find(gid);
        if (it == miss_pos.end()) {
          it = miss_pos.emplace(gid, miss_ids.size()).first;
          miss_ids.push_back(gid);
        }
        pending.emplace_back(slot, it->second);
      }
    }

    // Collective even when this rank has no misses (peers may).
    RETURN_IF_ERROR(shard.Gather(miss_ids, &gathered));
    for (const auto& [slot, pos] : pending) {
      std::memcpy(rows.data() + slot * dim, gathered.data() + pos * dim,
                  dim * sizeof(float));
    }
    for (size_t i = 0; i < miss_ids.size(); ++i) {
      cache.Insert(miss_ids[i], gathered.data() + i * dim);
    }

    if (!owned.empty()) {
      Tensor pooled =
          Tensor::Zeros({owned.size(), mc.num_tables * dim}, "serve.pooled");
      for (size_t k = 0; k < owned.size(); ++k) {
        for (size_t t = 0; t < mc.num_tables; ++t) {
          PoolRows(rows.data() + (k * slots + t * mc.slots_per_bag) * dim,
                   mc.slots_per_bag, dim, mc.pooling,
                   pooled.data() + k * mc.num_tables * dim + t * dim);
        }
      }
      Tensor out;
      RETURN_IF_ERROR(model.ForwardPooled(dense, pooled, &out));
      for (size_t k = 0; k < owned.size(); ++k) {
        report->logits[requests[owned[k]].index] = out[k];
      }
    }

    const double wall_us =
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - t_begin)
            .count();
    service_wall_s += wall_us * 1e-6;
    for (const size_t t : owned) {
      const double queue_us =
          static_cast<double>(batch.close_us - requests[t].arrival_us);
      report->latency_us[requests[t].index] = queue_us + wall_us;
    }

    if (b + 1 == warm) {
      // Quiesce, snapshot the pool on rank 0, then hold everyone until the
      // snapshot is taken (the second barrier's rank-0 message cannot be
      // sent before it): from here on the pooled transport must not miss.
      RETURN_IF_ERROR(barrier());
      if (rank == 0) pool_miss_snapshot = group->pool_stats().misses;
      snapped = true;
      RETURN_IF_ERROR(barrier());
    }
  }

  RETURN_IF_ERROR(barrier());
  if (rank == 0) {
    const uint64_t misses = group->pool_stats().misses;
    report->pool_misses_steady = snapped ? misses - pool_miss_snapshot : 0;
  }
  report->cache_hits = cache.hits();
  report->cache_misses = cache.misses();
  const uint64_t looked = cache.hits() + cache.misses();
  report->cache_hit_rate =
      looked > 0 ? static_cast<double>(cache.hits()) / looked : 0.0;
  report->service_wall_s = service_wall_s;
  report->qps = service_wall_s > 0.0
                    ? static_cast<double>(config.num_requests) / service_wall_s
                    : 0.0;

  // Rank-local percentile view; the merging caller recomputes globally.
  std::vector<double> mine;
  for (size_t i = rank; i < report->latency_us.size();
       i += static_cast<size_t>(world)) {
    mine.push_back(report->latency_us[i]);
  }
  report->p50_latency_us = PercentileOf(mine, 0.50);
  report->p99_latency_us = PercentileOf(mine, 0.99);
  return Status::OK();
}

Status RunServingReplay(const ServingConfig& config, ServingReport* report) {
  if (config.world <= 0) {
    return Status::InvalidArgument("serving: world must be positive");
  }
  TransportGroup group(config.world);
  std::vector<ServingReport> partial(config.world);
  std::vector<Status> status(config.world, Status::OK());
  ParallelFor(static_cast<size_t>(config.world), [&](size_t r) {
    status[r] = RunServingReplay(config, &group, static_cast<int>(r),
                                 &partial[r]);
  });
  for (const Status& s : status) RETURN_IF_ERROR(s);

  // Merge: request i's logit and latency live on rank i mod world; cache
  // counters sum; timing and pool accounting follow rank 0.
  report->requests = config.num_requests;
  report->logits.assign(config.num_requests, 0.0f);
  report->latency_us.assign(config.num_requests, 0.0);
  report->cache_hits = 0;
  report->cache_misses = 0;
  for (int r = 0; r < config.world; ++r) {
    for (size_t i = static_cast<size_t>(r); i < config.num_requests;
         i += static_cast<size_t>(config.world)) {
      report->logits[i] = partial[r].logits[i];
      report->latency_us[i] = partial[r].latency_us[i];
    }
    report->cache_hits += partial[r].cache_hits;
    report->cache_misses += partial[r].cache_misses;
  }
  const uint64_t looked = report->cache_hits + report->cache_misses;
  report->cache_hit_rate =
      looked > 0 ? static_cast<double>(report->cache_hits) / looked : 0.0;
  report->pool_misses_steady = partial[0].pool_misses_steady;
  report->service_wall_s = partial[0].service_wall_s;
  report->qps = partial[0].qps;
  report->p50_latency_us = PercentileOf(report->latency_us, 0.50);
  report->p99_latency_us = PercentileOf(report->latency_us, 0.99);
  return Status::OK();
}

}  // namespace bagua
