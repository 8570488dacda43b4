#ifndef BAGUA_BENCH_PRECISION_GATE_H_
#define BAGUA_BENCH_PRECISION_GATE_H_

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "base/arena.h"
#include "base/logging.h"
#include "base/parallel.h"
#include "base/rng.h"
#include "base/sync.h"
#include "comm/context.h"
#include "comm/primitives.h"
#include "compress/half.h"
#include "model/optimizer.h"
#include "sim/topology.h"
#include "tensor/dtype.h"
#include "tensor/reference.h"
#include "transport/delay.h"
#include "transport/transport.h"

namespace bagua {

/// \brief The mixed-precision perf gate behind `--precision-json=PATH`.
///
/// Measures the three wins the bf16/fp16 stack claims and writes a flat
/// JSON report that scripts/precision_gate.sh greps without a JSON
/// parser. The script fails the build unless
///   * convert_bf16_speedup >= 2 and convert_fp16_speedup >= 2 (the
///     vectorized batch kernels in tensor/convert.cc vs the frozen naive
///     scalars in tensor/reference.cc), with the outputs bitwise equal
///     (convert_matches_reference == 1),
///   * wire_speedup >= 1.4: the bf16 allreduce (C_LP_S with the bf16
///     codec, compress/half.h) vs the default fp32 C_FP_S on the same 4
///     ranks and inputs under WireDelayTransport, which charges real
///     alpha-beta wall time per delivered payload — half the bytes on the
///     wire must show up as wall-clock, net of the pack/unpack compute the
///     codec adds,
///   * train_bitwise_identical == 1: bf16 training (SGD with momentum and
///     Adam behind MixedPrecisionOptimizer's fp32 master weights, the
///     gradient summed by the bf16 C_LP_S) produces byte-identical
///     parameters on every rank and at 1/2/8 intra-op threads, on a flat
///     and on a 2x2 hierarchical topology (bitwise within each topology),
///     and
///   * arena_misses_steady == 0 and pool_misses_steady == 0: once warm,
///     the bf16 path serves every payload and every codec/reduction
///     scratch from recycled memory.

struct PrecisionGateReport {
  double convert_bf16_speedup = 0.0;
  double convert_fp16_speedup = 0.0;
  double convert_bf16_gbps = 0.0;
  bool convert_matches_reference = false;
  double wire_fp32_ms = 0.0;
  double wire_bf16_ms = 0.0;
  double wire_speedup = 0.0;
  bool train_bitwise_identical = false;
  uint64_t arena_misses_steady = 0;
  uint64_t pool_misses_steady = 0;
};

namespace precision_gate_internal {

inline double MinOfRepsMs(int reps, const std::function<void()>& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (ms < best) best = ms;
  }
  return best;
}

/// One rank context per member of `world`, all flat or all hierarchical.
inline std::vector<CommContext> RankContexts(CommWorld* world,
                                             bool hierarchical) {
  std::vector<CommContext> ctx(static_cast<size_t>(world->world_size()));
  for (size_t r = 0; r < ctx.size(); ++r) {
    ctx[r].world = world;
    ctx[r].rank = static_cast<int>(r);
    ctx[r].hierarchical = hierarchical;
  }
  return ctx;
}

/// One allreduce on every rank: the default fp32 C_FP_S when `codec` is
/// null, else C_LP_S through `codec`.
inline void AllreduceRun(std::vector<CommContext>* ctx,
                         const Compressor* codec,
                         std::vector<std::vector<float>>* data, size_t n) {
  ParallelFor(ctx->size(), [&](size_t r) {
    CommContext* c = &(*ctx)[r];
    float* x = (*data)[r].data();
    BAGUA_CHECK((codec == nullptr ? CFpS(c, x, n)
                                  : CLpS(c, *codec, x, n, nullptr))
                    .ok());
  });
}

/// Parks `count` blocks of `bytes` in `arena`: the live-scratch peak of a
/// collective is scheduling-dependent (how many ranks' scratches overlap),
/// so warm rounds alone can undershoot a class's worst-case demand.
inline void PrimeArena(Arena* arena, size_t bytes, int count) {
  std::vector<std::unique_ptr<ArenaScratch>> prime;
  for (int k = 0; k < count; ++k) {
    prime.emplace_back(new ArenaScratch(arena, bytes));
  }
}

/// `steps` bf16 training steps on the ranks of `topo`: widen the bf16
/// params, form a rank-dependent synthetic gradient, sum it with the bf16
/// C_LP_S, average (1/world is exact for world = 4), round the averaged
/// gradient to bf16 storage, and apply it through MixedPrecisionOptimizer
/// (fp32 master weights). Returns rank 0's final bf16 parameter bits and
/// reports whether every rank finished with identical bytes.
inline std::vector<uint16_t> TrainRun(const ClusterTopology& topo,
                                      bool hierarchical, size_t n, int steps,
                                      bool adam, bool* all_ranks_equal) {
  const int world = topo.world_size();
  const HalfCompressor codec(WireDtype::kBf16);
  std::vector<uint16_t> init16(n);
  {
    std::vector<float> init(n);
    Rng rng(11);
    for (auto& x : init) x = static_cast<float>(rng.Normal());
    FloatToBf16N(init.data(), init16.data(), n);
  }
  std::vector<std::vector<float>> noise(world);
  for (int r = 0; r < world; ++r) {
    Rng rng(100 + r);
    noise[r].resize(n);
    for (auto& x : noise[r]) x = static_cast<float>(rng.Normal());
  }

  CommWorld comm(topo, /*seed=*/7);
  std::vector<CommContext> ctx = RankContexts(&comm, hierarchical);
  std::vector<std::vector<uint16_t>> params(
      static_cast<size_t>(world), init16);
  std::vector<std::unique_ptr<MixedPrecisionOptimizer>> opts;
  for (int r = 0; r < world; ++r) {
    std::unique_ptr<Optimizer> inner;
    if (adam) {
      inner.reset(new AdamOptimizer(1e-3));
    } else {
      inner.reset(new SgdOptimizer(0.01, 0.9));
    }
    opts.emplace_back(
        new MixedPrecisionOptimizer(std::move(inner), WireDtype::kBf16));
  }

  const float inv_world = 1.0f / static_cast<float>(world);
  for (int step = 0; step < steps; ++step) {
    ParallelFor(static_cast<size_t>(world), [&](size_t r) {
      std::vector<float> wparam(n), grad32(n);
      std::vector<uint16_t> grad16(n);
      Bf16ToFloatN(params[r].data(), wparam.data(), n);
      for (size_t i = 0; i < n; ++i) {
        grad32[i] = 0.05f * wparam[i] + 0.01f * noise[r][i];
      }
      BAGUA_CHECK(
          CLpS(&ctx[r], codec, grad32.data(), n, nullptr).ok());
      for (size_t i = 0; i < n; ++i) grad32[i] *= inv_world;
      FloatToBf16N(grad32.data(), grad16.data(), n);
      BAGUA_CHECK(
          opts[r]->Step(0, params[r].data(), grad16.data(), n).ok());
    });
  }

  for (int r = 1; r < world; ++r) {
    if (std::memcmp(params[r].data(), params[0].data(),
                    n * sizeof(uint16_t)) != 0) {
      *all_ranks_equal = false;
    }
  }
  return params[0];
}

}  // namespace precision_gate_internal

inline PrecisionGateReport RunPrecisionGateMeasurement(bool quick) {
  using namespace precision_gate_internal;
  PrecisionGateReport rep;

  // --- Vectorized converts vs the frozen naive scalars. ---
  {
    const size_t n = quick ? (1u << 21) : (1u << 22);
    const int reps = quick ? 5 : 9;
    std::vector<float> src(n);
    Rng rng(0xd7);
    for (auto& x : src) x = static_cast<float>(rng.Normal());

    std::vector<uint16_t> h_vec(n), h_ref(n);
    std::vector<float> back_vec(n), back_ref(n);

    // Bitwise equivalence first, on both dtypes (pack then widen).
    rep.convert_matches_reference = true;
    FloatToBf16N(src.data(), h_vec.data(), n);
    Bf16ToFloatN(h_vec.data(), back_vec.data(), n);
    reference::FloatToBf16N(src.data(), h_ref.data(), n);
    reference::Bf16ToFloatN(h_ref.data(), back_ref.data(), n);
    if (std::memcmp(h_vec.data(), h_ref.data(), n * 2) != 0 ||
        std::memcmp(back_vec.data(), back_ref.data(), n * 4) != 0) {
      rep.convert_matches_reference = false;
    }
    FloatToHalfN(src.data(), h_vec.data(), n);
    HalfToFloatN(h_vec.data(), back_vec.data(), n);
    reference::FloatToHalfN(src.data(), h_ref.data(), n);
    reference::HalfToFloatN(h_ref.data(), back_ref.data(), n);
    if (std::memcmp(h_vec.data(), h_ref.data(), n * 2) != 0 ||
        std::memcmp(back_vec.data(), back_ref.data(), n * 4) != 0) {
      rep.convert_matches_reference = false;
    }

    // Round trip (pack + widen) so both directions count. 12 bytes move
    // per element per round trip: read 4 + write 2, read 2 + write 4.
    const double bf16_vec_ms = MinOfRepsMs(reps, [&] {
      FloatToBf16N(src.data(), h_vec.data(), n);
      Bf16ToFloatN(h_vec.data(), back_vec.data(), n);
    });
    const double bf16_ref_ms = MinOfRepsMs(reps, [&] {
      reference::FloatToBf16N(src.data(), h_ref.data(), n);
      reference::Bf16ToFloatN(h_ref.data(), back_ref.data(), n);
    });
    const double fp16_vec_ms = MinOfRepsMs(reps, [&] {
      FloatToHalfN(src.data(), h_vec.data(), n);
      HalfToFloatN(h_vec.data(), back_vec.data(), n);
    });
    const double fp16_ref_ms = MinOfRepsMs(reps, [&] {
      reference::FloatToHalfN(src.data(), h_ref.data(), n);
      reference::HalfToFloatN(h_ref.data(), back_ref.data(), n);
    });
    rep.convert_bf16_speedup =
        bf16_vec_ms > 0.0 ? bf16_ref_ms / bf16_vec_ms : 0.0;
    rep.convert_fp16_speedup =
        fp16_vec_ms > 0.0 ? fp16_ref_ms / fp16_vec_ms : 0.0;
    rep.convert_bf16_gbps =
        bf16_vec_ms > 0.0
            ? (static_cast<double>(n) * 12.0) / (bf16_vec_ms * 1e-3) / 1e9
            : 0.0;
  }

  // --- bf16 C_LP_S vs the default fp32 C_FP_S over a delay-charging
  // transport. ---
  // 4 flat ranks, 2-4 MB fp32 tensor, 20 us per message + 1 ns per byte
  // (~1 GB/s links): ScatterReduce moves n * eb / 4 bytes per message, so
  // halving eb should roughly halve the wire time, minus codec cost.
  {
    const int world = 4;
    const size_t n = quick ? (1u << 19) : (1u << 20);
    const int reps = quick ? 3 : 5;
    const double latency_s = 20e-6;
    const double per_byte_s = 1e-9;
    const ClusterTopology topo = ClusterTopology::Make(world, 1);
    std::vector<std::vector<float>> golden(world);
    Rng rng(0xb16);
    for (auto& v : golden) {
      v.resize(n);
      for (auto& x : v) x = static_cast<float>(rng.Normal());
    }
    const HalfCompressor bf16(WireDtype::kBf16);

    Arena& comm_arena = MemoryRegistry::Global().ArenaFor("comm");
    Arena& compress_arena = MemoryRegistry::Global().ArenaFor("compress");
    auto arena_misses = [&] {
      return comm_arena.stats().misses + compress_arena.stats().misses;
    };

    // Timed runs reuse the (already reduced) buffers, same as the comm
    // gate: values drift but the data-path cost is identical.
    for (const Compressor* codec : {static_cast<const Compressor*>(nullptr),
                                    static_cast<const Compressor*>(&bf16)}) {
      CommWorld comm(topo, /*seed=*/7,
                     std::make_unique<WireDelayTransport>(world, latency_s,
                                                          per_byte_s));
      std::vector<CommContext> ctx = RankContexts(&comm, false);
      auto data = golden;
      // Each rank holds ScatterReduce's input copy and its two chunk-sized
      // reduction scratches at once, plus the codec's decode staging, and
      // up to 10 partition payloads in the pool: its own two, two receive
      // buffers and 2 x 3 sends in flight.
      const size_t chunk = n / world;
      PrimeArena(&comm_arena, n * sizeof(float), world);
      PrimeArena(&comm_arena, chunk * sizeof(float), 2 * world);
      PrimeArena(&compress_arena, chunk * 2, world);
      {
        const size_t payload = codec != nullptr
                                   ? codec->CompressedBytes(chunk)
                                   : chunk * sizeof(float);
        std::vector<std::vector<uint8_t>> parked;
        for (int k = 0; k < 10 * world; ++k) {
          parked.push_back(comm.group()->AcquireBuffer(payload));
        }
        for (auto& buf : parked) comm.group()->Recycle(std::move(buf));
      }
      for (int w = 0; w < 8; ++w) {  // warm until a missless round
        const uint64_t pool_before = comm.group()->pool_stats().misses;
        const uint64_t arena_before = arena_misses();
        AllreduceRun(&ctx, codec, &data, n);
        if (comm.group()->pool_stats().misses == pool_before &&
            arena_misses() == arena_before) {
          break;
        }
      }
      const uint64_t pool_before = comm.group()->pool_stats().misses;
      const uint64_t arena_before = arena_misses();
      const double ms =
          MinOfRepsMs(reps, [&] { AllreduceRun(&ctx, codec, &data, n); });
      if (codec == nullptr) {
        rep.wire_fp32_ms = ms;
      } else {
        rep.wire_bf16_ms = ms;
        rep.pool_misses_steady =
            comm.group()->pool_stats().misses - pool_before;
        rep.arena_misses_steady = arena_misses() - arena_before;
      }
    }
    rep.wire_speedup =
        rep.wire_bf16_ms > 0.0 ? rep.wire_fp32_ms / rep.wire_bf16_ms : 0.0;
  }

  // --- bf16 training determinism: optimizers x topologies x threads. ---
  {
    const size_t n = 2048;
    const int steps = quick ? 4 : 8;
    const struct {
      ClusterTopology topo;
      bool hierarchical;
    } topologies[] = {{ClusterTopology::Make(4, 1), false},
                      {ClusterTopology::Make(2, 2), true}};
    const int thread_counts[] = {1, 2, 8};

    const int saved_threads = IntraOpThreads();
    rep.train_bitwise_identical = true;
    for (int adam = 0; adam < 2; ++adam) {
      for (const auto& t : topologies) {
        std::vector<uint16_t> first;
        bool have_first = false;
        for (int threads : thread_counts) {
          SetIntraOpThreads(threads);
          bool ranks_equal = true;
          std::vector<uint16_t> p = TrainRun(t.topo, t.hierarchical, n, steps,
                                             adam == 1, &ranks_equal);
          if (!ranks_equal) rep.train_bitwise_identical = false;
          if (!have_first) {
            first = std::move(p);
            have_first = true;
          } else if (p != first) {
            rep.train_bitwise_identical = false;
          }
        }
      }
    }
    SetIntraOpThreads(saved_threads);
  }

  return rep;
}

/// Runs the gate and writes the JSON report to `path`. Returns 0 on
/// success, 1 if the report could not be written. The pass/fail decision
/// is left to scripts/precision_gate.sh so a plain run can still inspect
/// a slow build.
inline int RunPrecisionGate(const std::string& path, bool quick) {
  std::fprintf(stdout,
               "precision gate: vectorized converts, bf16 C_LP_S vs fp32 "
               "C_FP_S, mixed-precision determinism\n");
  const PrecisionGateReport rep = RunPrecisionGateMeasurement(quick);
  std::fprintf(
      stdout,
      "  convert    bf16 %5.2fx  fp16 %5.2fx over naive scalars "
      "(bf16 %5.1f GB/s), bitwise match %s\n"
      "  wire       fp32 %8.3f ms  bf16 %8.3f ms  speedup %5.2fx\n"
      "  training   bitwise identical across ranks+threads, flat and "
      "2x2: %s\n"
      "  steady-state misses: arena %llu, pool %llu\n",
      rep.convert_bf16_speedup, rep.convert_fp16_speedup,
      rep.convert_bf16_gbps, rep.convert_matches_reference ? "yes" : "NO",
      rep.wire_fp32_ms, rep.wire_bf16_ms, rep.wire_speedup,
      rep.train_bitwise_identical ? "yes" : "NO",
      static_cast<unsigned long long>(rep.arena_misses_steady),
      static_cast<unsigned long long>(rep.pool_misses_steady));

  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "precision gate: cannot write %s\n", path.c_str());
    return 1;
  }
  char buf[640];
  std::snprintf(buf, sizeof(buf),
                "{\n"
                "  \"bench\": \"precision_gate\",\n"
                "  \"quick\": %s,\n"
                "  \"convert_bf16_speedup\": %.4f,\n"
                "  \"convert_fp16_speedup\": %.4f,\n"
                "  \"convert_bf16_gbps\": %.4f,\n"
                "  \"convert_matches_reference\": %d,\n"
                "  \"wire_fp32_ms\": %.6f,\n"
                "  \"wire_bf16_ms\": %.6f,\n"
                "  \"wire_speedup\": %.4f,\n"
                "  \"train_bitwise_identical\": %d,\n"
                "  \"arena_misses_steady\": %llu,\n"
                "  \"pool_misses_steady\": %llu\n"
                "}\n",
                quick ? "true" : "false", rep.convert_bf16_speedup,
                rep.convert_fp16_speedup, rep.convert_bf16_gbps,
                rep.convert_matches_reference ? 1 : 0, rep.wire_fp32_ms,
                rep.wire_bf16_ms, rep.wire_speedup,
                rep.train_bitwise_identical ? 1 : 0,
                static_cast<unsigned long long>(rep.arena_misses_steady),
                static_cast<unsigned long long>(rep.pool_misses_steady));
  out << buf;
  out.close();
  std::fprintf(stdout, "precision gate report written to %s\n",
               path.c_str());
  return 0;
}

}  // namespace bagua

#endif  // BAGUA_BENCH_PRECISION_GATE_H_
