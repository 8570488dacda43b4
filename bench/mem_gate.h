#ifndef BAGUA_BENCH_MEM_GATE_H_
#define BAGUA_BENCH_MEM_GATE_H_

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "algorithms/algorithms.h"
#include "algorithms/registry.h"
#include "base/arena.h"
#include "base/logging.h"
#include "base/rng.h"
#include "base/sync.h"
#include "compress/half.h"
#include "compress/sketch.h"
#include "compress/topk.h"
#include "core/runtime.h"
#include "model/data.h"
#include "model/net.h"
#include "serve/serving.h"
#include "transport/transport.h"

namespace bagua {

/// \brief The whole-step memory gate behind `--mem-json=PATH`.
///
/// PR 5's comm gate proved the transport pool reaches zero steady-state
/// allocations for an isolated allreduce. This gate extends that
/// discipline to the *whole training step*: every subsystem that now draws
/// from the shared arena (base/arena.h) — tensor buffers, collective
/// scratch, compressor state, transport pool classes — must stop missing
/// once the workload reaches steady state.
///
/// Two halves, mirroring the two request regimes the repo serves:
///   * training: full C_FP_S ("allreduce"), compressed C_LP_S ("qsgd8"),
///     and error-compensated "1bit-adam" loops on 4 simulated ranks,
///     stepped with a join between steps so per-step miss deltas are well
///     defined. Warm up until a step adds no arena or pool miss, then
///     measure: the measured steps must add zero. A direct top-k + sketch
///     round-trip loop covers the compressor-internal scratch the training
///     algorithms do not reach.
///   * serving: the PR 8 embedding-serving replay run twice; the second
///     replay must add zero arena misses (its free lists were filled by
///     the first), and its own internal steady-state pool-miss counter
///     must read zero.
///
/// Arenas are primed to the free-list cap first — the moral equivalent of
/// comm_gate's PrimePool — so the zero-miss assertion is robust against
/// thread-scheduling wobble in how high the concurrent-live watermark
/// happens to crest on any one step.
///
/// The JSON report carries the per-subsystem byte-attribution table
/// (memory_<tag>_{live_bytes,peak_bytes,allocs}) next to the miss
/// counters, so scripts/mem_gate.sh can both gate on zero misses and
/// assert that every refactored subsystem is actually attributing bytes.

struct MemGateReport {
  uint64_t train_arena_misses_steady = 0;
  uint64_t train_pool_misses_steady = 0;
  uint64_t serving_arena_misses_steady = 0;
  uint64_t pool_misses_steady = 0;  ///< serving replay's internal counter
  std::vector<ArenaSnapshot> memory;
};

namespace mem_gate_internal {

inline uint64_t TotalArenaMisses() {
  uint64_t total = 0;
  for (const ArenaSnapshot& s : MemoryRegistry::Global().Snapshot()) {
    total += s.stats.misses;
  }
  return total;
}

/// Fills each listed arena's free lists to the cap for every class up to
/// `max_class_bytes`: allocate kMaxFreePerClass blocks per class, then
/// recycle them all. After this, any workload whose concurrent-live count
/// stays within the cap per class cannot miss, regardless of scheduling.
inline void PrimeArenas(const std::vector<std::string>& tags,
                        size_t max_class_bytes) {
  for (const std::string& tag : tags) {
    Arena& arena = MemoryRegistry::Global().ArenaFor(tag);
    for (size_t bytes = SizeClassMap::kMinClassBytes; bytes <= max_class_bytes;
         bytes *= 2) {
      std::vector<void*> blocks;
      blocks.reserve(Arena::kMaxFreePerClass);
      for (int i = 0; i < Arena::kMaxFreePerClass; ++i) {
        blocks.push_back(arena.Allocate(bytes));
      }
      for (void* p : blocks) arena.Deallocate(p, bytes);
    }
  }
}

/// Transport-pool analogue of PrimeArenas (same move as comm_gate's
/// PrimePool, generalized over classes): park kMaxFreePerClass buffers in
/// every class up to `max_class_bytes` so the in-flight watermark of any
/// one step cannot outrun the free lists.
inline void PrimeGroupPool(TransportGroup* group, size_t max_class_bytes) {
  for (size_t bytes = SizeClassMap::kMinClassBytes; bytes <= max_class_bytes;
       bytes *= 2) {
    std::vector<std::vector<uint8_t>> bufs;
    bufs.reserve(BufferPool::kMaxFreePerClass);
    for (size_t k = 0; k < BufferPool::kMaxFreePerClass; ++k) {
      bufs.push_back(group->AcquireBuffer(bytes));
    }
    for (auto& b : bufs) group->Recycle(std::move(b));
  }
}

struct MemWorker {
  std::unique_ptr<Net> net;
  std::unique_ptr<Optimizer> opt;
  std::unique_ptr<Algorithm> algo;
  std::unique_ptr<BaguaRuntime> runtime;
};

/// Runs one training config with a join after every step; warms up until a
/// step adds no arena or pool miss (or the warmup budget runs out), then
/// accumulates the measured steps' miss deltas into the out-params.
inline void RunTrainingConfig(const std::string& algo_name, int world_size,
                              int max_warmup_steps, int measured_steps,
                              uint64_t* arena_misses, uint64_t* pool_misses) {
  CommWorld world(ClusterTopology::Make(world_size, 1), 4242);
  PrimeGroupPool(world.group(), 1u << 16);
  BaguaOptions options;
  std::vector<MemWorker> workers(world_size);
  for (int r = 0; r < world_size; ++r) {
    MemWorker& w = workers[r];
    w.net = std::make_unique<Net>(Net::Mlp({16, 32, 4}));
    w.net->InitParams(77);
    if (algo_name == "1bit-adam") {
      w.opt = std::make_unique<AdamOptimizer>(0.01);
    } else {
      w.opt = std::make_unique<SgdOptimizer>(0.1);
    }
    if (algo_name == "1bit-adam") {
      // Short full-precision warmup so the measured steps actually run the
      // compressed path (and its algo-arena momentum scratch).
      w.algo = std::make_unique<OneBitAdamAlgorithm>(/*warmup_steps=*/2);
    } else {
      auto algo = MakeAlgorithm(algo_name);
      BAGUA_CHECK(algo.ok()) << algo.status().ToString();
      w.algo = std::move(*algo);
    }
    w.runtime = std::make_unique<BaguaRuntime>(&world, r, w.net.get(),
                                               w.opt.get(), w.algo.get(),
                                               options);
  }
  SyntheticClassification::Options dopts;
  dopts.num_samples = 512;
  dopts.dim = 16;
  dopts.classes = 4;
  dopts.seed = 21;
  SyntheticClassification data(dopts);

  int step_index = 0;
  auto step = [&] {
    const int s = step_index++;
    ParallelFor(static_cast<size_t>(world_size), [&](size_t r) {
      Tensor x, y;
      BAGUA_CHECK(data.GetShardBatch(static_cast<int>(r), world_size, 0, s % 4,
                                     16, &x, &y)
                      .ok());
      auto loss = workers[r].runtime->TrainStepCE(x, y);
      BAGUA_CHECK(loss.ok()) << loss.status().ToString();
    });
  };

  // Warm up: the first steps fill bucket plans, transport pool classes, and
  // any arena class the primer's byte ceiling did not cover.
  for (int w = 0; w < max_warmup_steps; ++w) {
    const uint64_t arena_before = TotalArenaMisses();
    const uint64_t pool_before = world.group()->pool_stats().misses;
    step();
    if (TotalArenaMisses() == arena_before &&
        world.group()->pool_stats().misses == pool_before) {
      break;
    }
  }

  const uint64_t arena_before = TotalArenaMisses();
  const uint64_t pool_before = world.group()->pool_stats().misses;
  for (int s = 0; s < measured_steps; ++s) step();
  *arena_misses += TotalArenaMisses() - arena_before;
  *pool_misses += world.group()->pool_stats().misses - pool_before;
}

inline ServingConfig MemGateServingConfig(bool quick) {
  ServingConfig cfg;
  cfg.model.num_tables = 4;
  cfg.model.rows_per_table = 2048;
  cfg.model.dim = 32;
  cfg.model.dense_dim = 8;
  cfg.model.slots_per_bag = 4;
  cfg.model.seed = 20260808;
  cfg.world = 4;
  cfg.num_requests = quick ? 512 : 2048;
  cfg.policy.max_batch = 32;
  cfg.policy.max_delay_us = 2000;
  cfg.cache_rows = 256;
  cfg.mean_interarrival_us = 20.0;
  cfg.warmup_batches = 4;
  cfg.seed = 42;
  return cfg;
}

}  // namespace mem_gate_internal

inline MemGateReport RunMemGateMeasurement(bool quick) {
  using namespace mem_gate_internal;
  MemGateReport rep;

  // Prime the arenas every per-call scratch path draws from. 64 KiB covers
  // every class this workload's tensors, partitions, and compressor state
  // touch; anything larger is caught by the warmup-until-clean loop.
  PrimeArenas({"tensor", "comm", "compress", "algo"}, 1u << 16);
  // Rebase the peak gauges so the table reports the workload's high-water
  // marks, not the primer's.
  for (const ArenaSnapshot& s : MemoryRegistry::Global().Snapshot()) {
    MemoryRegistry::Global().ArenaFor(s.tag).ResetPeakBytes();
  }

  // --- training half: full-precision and compressed steps. ---
  const int max_warmup = quick ? 6 : 10;
  const int measured = quick ? 4 : 8;
  for (const char* algo : {"allreduce", "qsgd8", "1bit-adam"}) {
    RunTrainingConfig(algo, /*world_size=*/4, max_warmup, measured,
                      &rep.train_arena_misses_steady,
                      &rep.train_pool_misses_steady);
  }

  // --- compressor-state half: the only compress-arena clients are the
  // stateful sparsifiers' internal scratch (top-k's magnitude/index
  // permutation, the sketch's median estimates), so drive them directly:
  // after one warm-up round-trip per codec, repeated round-trips must be
  // served entirely from the compress arena's free lists. ---
  {
    const size_t n = 1u << 12;
    std::vector<float> in(n), out(n);
    Rng rng(0xbead);
    for (auto& v : in) v = static_cast<float>(rng.Normal());
    const TopKCompressor topk(0.05);
    const CountSketchCompressor sketch(8.0);
    // The 16-bit codecs' Decompress stages the unaligned wire payload
    // through the compress arena before the vectorized widen — same
    // zero-miss rule.
    const HalfCompressor fp16(WireDtype::kFp16);
    const HalfCompressor bf16(WireDtype::kBf16);
    std::vector<uint8_t> payload;
    auto roundtrip = [&](const Compressor& codec) {
      BAGUA_CHECK(codec.Compress(in.data(), n, nullptr, &payload).ok());
      BAGUA_CHECK(
          codec.Decompress(payload.data(), payload.size(), n, out.data())
              .ok());
    };
    roundtrip(topk);
    roundtrip(sketch);
    roundtrip(fp16);
    roundtrip(bf16);
    const uint64_t before = TotalArenaMisses();
    const int reps = quick ? 4 : 16;
    for (int r = 0; r < reps; ++r) {
      roundtrip(topk);
      roundtrip(sketch);
      roundtrip(fp16);
      roundtrip(bf16);
    }
    rep.train_arena_misses_steady += TotalArenaMisses() - before;
  }

  // --- serving half: replay twice, second run must not miss. ---
  const ServingConfig cfg = MemGateServingConfig(quick);
  ServingReport first, second;
  BAGUA_CHECK(RunServingReplay(cfg, &first).ok());
  const uint64_t arena_before = TotalArenaMisses();
  BAGUA_CHECK(RunServingReplay(cfg, &second).ok());
  rep.serving_arena_misses_steady = TotalArenaMisses() - arena_before;
  rep.pool_misses_steady = second.pool_misses_steady;

  rep.memory = MemoryRegistry::Global().Snapshot();
  return rep;
}

/// Runs the gate and writes the JSON report to `path`. Returns 0 on
/// success, 1 if the report could not be written; the pass/fail decision
/// is left to scripts/mem_gate.sh.
inline int RunMemGate(const std::string& path, bool quick) {
  std::fprintf(stdout,
               "mem gate: whole-step zero-allocation + byte attribution\n");
  const MemGateReport rep = RunMemGateMeasurement(quick);
  std::fprintf(stdout,
               "  steady-state misses: train arena %llu, train pool %llu,"
               " serving arena %llu, serving pool %llu\n",
               static_cast<unsigned long long>(rep.train_arena_misses_steady),
               static_cast<unsigned long long>(rep.train_pool_misses_steady),
               static_cast<unsigned long long>(rep.serving_arena_misses_steady),
               static_cast<unsigned long long>(rep.pool_misses_steady));
  std::fprintf(stdout, "  %-14s %14s %14s %10s\n", "subsystem", "live_bytes",
               "peak_bytes", "allocs");
  for (const ArenaSnapshot& s : rep.memory) {
    std::fprintf(stdout, "  %-14s %14llu %14llu %10llu\n", s.tag.c_str(),
                 static_cast<unsigned long long>(s.stats.live_bytes),
                 static_cast<unsigned long long>(s.stats.peak_bytes),
                 static_cast<unsigned long long>(s.stats.allocs));
  }

  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "mem gate: cannot write %s\n", path.c_str());
    return 1;
  }
  std::ostringstream j;
  j << "{\n"
    << "  \"bench\": \"mem_gate\",\n"
    << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
    << "  \"train_arena_misses_steady\": " << rep.train_arena_misses_steady
    << ",\n"
    << "  \"train_pool_misses_steady\": " << rep.train_pool_misses_steady
    << ",\n"
    << "  \"serving_arena_misses_steady\": " << rep.serving_arena_misses_steady
    << ",\n"
    << "  \"pool_misses_steady\": " << rep.pool_misses_steady;
  for (const ArenaSnapshot& s : rep.memory) {
    std::string key = s.tag;
    for (char& c : key) {
      if (c == '.' || c == '-') c = '_';
    }
    j << ",\n  \"memory_" << key << "_live_bytes\": " << s.stats.live_bytes
      << ",\n  \"memory_" << key << "_peak_bytes\": " << s.stats.peak_bytes
      << ",\n  \"memory_" << key << "_allocs\": " << s.stats.allocs;
  }
  j << "\n}\n";
  out << j.str();
  out.close();
  std::fprintf(stdout, "mem gate report written to %s\n", path.c_str());
  return 0;
}

}  // namespace bagua

#endif  // BAGUA_BENCH_MEM_GATE_H_
