// fl-churn: federated rounds through RunFlTraining with 256 intermittent
// clients, 3 client threads plus the server on the calling thread.
#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "base/rng.h"
#include "base/strings.h"
#include "fl/federated.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

using bagua::Status;

constexpr uint64_t kRoundsPerCall = 20;
// The latency_ms.tail percentile: >= 10 calls beyond it in the untraced
// window (45% of 20 s) of a traced run.
constexpr double kTailPercentile = 85.0;
// Set-up is repeated until both minimums are met and its median reported.
constexpr size_t kMinSetupCalls = 5;
constexpr double kMinSetupSeconds = 1.0;
// A call's training must lower the participants' mean local loss from its
// first kLossRounds rounds to its last kLossRounds.
constexpr size_t kLossRounds = 5;

bagua::FlConfig MakeConfig(uint64_t seed, uint64_t call, uint64_t rounds) {
  bagua::FlConfig cfg;
  cfg.num_clients = 256;
  cfg.participation = 0.25;
  cfg.dropout = 0.05;
  cfg.client.aggregation = bagua::FlAggregation::kFedAvg;
  cfg.threads = 3;
  cfg.rounds = rounds;
  cfg.seed = bagua::MixSeed(seed, 200 + call);
  cfg.data_seed = bagua::MixSeed(seed, 300 + call);
  return cfg;
}

struct Window {
  uint64_t calls = 0;
  uint64_t rounds = 0;
  double wall_s = 0.0;
  std::vector<double> round_ms;       // per call: wall / rounds
  std::vector<double> rounds_per_s;  // per call
  uint64_t bytes_down = 0;
  uint64_t bytes_up = 0;
  uint64_t participants = 0;
  uint64_t dropouts = 0;
  uint64_t pool_misses_steady = 0;
  uint64_t first_hash = 0;
  uint64_t loss_fell = 0;  // calls whose mean local loss fell
  double worst_loss_ratio = 0.0;
  Status status;
};

// The last kLossRounds rounds' summed mean local loss over the first
// kLossRounds rounds'; NaN when there are too few rounds.
double LossRatio(const bagua::FlReport& rep) {
  const size_t n = rep.rounds.size();
  if (n < 2 * kLossRounds) return std::nan("");
  double early = 0.0, late = 0.0;
  for (size_t i = 0; i < kLossRounds; ++i) {
    early += rep.rounds[i].mean_loss;
    late += rep.rounds[n - 1 - i].mean_loss;
  }
  return late / early;
}

// Runs kRoundsPerCall-round trainings with fresh seeds until `seconds` have
// elapsed.
void TimeWindow(uint64_t seed, double seconds, Window* w) {
  static const int call_span = SpanName("fl.call");
  const int64_t start = NowNs();
  do {
    const bagua::FlConfig cfg = MakeConfig(seed, w->calls, kRoundsPerCall);
    bagua::FlReport rep;
    Spans::SetStep(0, static_cast<int64_t>(w->calls));
    const int64_t t0 = NowNs();
    {
      ScopedSpan span(0, call_span);
      w->status = bagua::RunFlTraining(cfg, &rep);
    }
    const double wall_s = static_cast<double>(NowNs() - t0) * 1e-9;
    if (!w->status.ok()) return;
    if (w->calls == 0) w->first_hash = rep.model_hash;
    ++w->calls;
    w->rounds += rep.rounds.size();
    w->wall_s += wall_s;
    w->round_ms.push_back(wall_s * 1e3 / static_cast<double>(cfg.rounds));
    w->rounds_per_s.push_back(static_cast<double>(rep.rounds.size()) / wall_s);
    for (const bagua::FlRoundStats& r : rep.rounds) {
      w->bytes_down += r.bytes_down;
      w->bytes_up += r.bytes_up;
      w->participants += r.participants;
      w->dropouts += r.dropouts;
    }
    w->pool_misses_steady += rep.pool_misses_steady;
    const double ratio = LossRatio(rep);
    if (ratio < 1.0) ++w->loss_fell;  // false for NaN
    w->worst_loss_ratio = std::max(w->worst_loss_ratio, ratio);
  } while (static_cast<double>(NowNs() - start) * 1e-9 < seconds);
}

}  // namespace

void RunFlWorkload(const RunOptions& opts, Report* report) {
  // Set-up: a one-round training is the call's fixed set-up plus its first
  // round, the FL counterpart of a training run's construction plus first
  // step.
  std::vector<double> setup_s;
  double setup_total_s = 0.0;
  while (setup_s.size() < kMinSetupCalls || setup_total_s < kMinSetupSeconds) {
    bagua::FlReport rep;
    const int64_t t0 = NowNs();
    const Status st = bagua::RunFlTraining(
        MakeConfig(opts.seed, 1000 + setup_s.size(), 1), &rep);
    setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    setup_total_s += setup_s.back();
    report->Ops(1, st.ok() ? 0 : 1);
    if (!st.ok()) {
      report->Note("fl set-up failed: " + st.ToString());
      return;
    }
  }

  Window w;
  TimeWindow(opts.seed, opts.trace ? opts.seconds * 0.45 : opts.seconds, &w);
  const double peak_rss_mb = PeakRssMb();
  report->Ops(w.rounds, w.status.ok() ? 0 : 1);
  if (!w.status.ok()) {
    report->Note("fl training failed: " + w.status.ToString());
    return;
  }
  // Medians over calls: steady when the shared host stalls a few.
  const double rounds_per_s = Median(w.rounds_per_s);
  const double p50 = Median(w.round_ms);
  const Tail tail = TailOf(w.round_ms, kTailPercentile);
  report->Note(bagua::StrFormat(
      "%llu calls, %llu rounds in %.3f s (%.2f rounds/s overall, %.2f median "
      "per call); round p50 %.4f ms; tail p%g %.4f ms over %zu calls (%zu "
      "beyond)",
      static_cast<unsigned long long>(w.calls),
      static_cast<unsigned long long>(w.rounds), w.wall_s,
      static_cast<double>(w.rounds) / w.wall_s, rounds_per_s, p50,
      tail.percentile, tail.value, w.round_ms.size(), tail.beyond));
  report->EndToEnd("throughput", rounds_per_s, "1/s");
  report->EndToEnd("latency_ms.p50", p50, "ms");
  report->EndToEnd("setup_s", Median(setup_s), "s");
  report->EndToEnd("peak_rss_mb", peak_rss_mb, "MiB");

  if (opts.trace) {
    report->PerLayer("latency_ms.tail", tail.value, "ms");
    Window tw;
    Spans::Start(1);
    TimeWindow(opts.seed, opts.seconds * 0.45, &tw);
    Spans::Stop();
    report->Ops(tw.rounds, tw.status.ok() ? 0 : 1);
    if (!tw.status.ok()) {
      report->Note("traced fl training failed: " + tw.status.ToString());
      return;
    }
    const double rounds = static_cast<double>(w.rounds);
    report->PerLayer("fl.bytes_down", w.bytes_down / rounds, "bytes");
    report->PerLayer("fl.bytes_up", w.bytes_up / rounds, "bytes");
    report->PerLayer("fl.participants", w.participants / rounds, "count");
    report->PerLayer("fl.dropouts", w.dropouts / rounds, "count");
    report->PerLayer("fl.pool_misses_steady",
                     static_cast<double>(w.pool_misses_steady +
                                         tw.pool_misses_steady),
                     "count");
    const double traced_p50 = Median(tw.round_ms);
    report->PerLayer("trace.latency_ms.p50", traced_p50, "ms");
    report->PerLayer("trace.overhead_ms", traced_p50 - p50, "ms");
  }

  // The committed model must not depend on the client-thread count.
  bagua::FlConfig ref_cfg = MakeConfig(opts.seed, 0, kRoundsPerCall);
  ref_cfg.threads = 1;
  bagua::FlReport ref;
  const Status st = bagua::RunFlTraining(ref_cfg, &ref);
  report->Ops(ref_cfg.rounds, st.ok() ? 0 : 1);
  report->Check("fl model_hash equals a threads=1 replay",
                st.ok() && ref.model_hash == w.first_hash);
  report->Check(bagua::StrFormat("mean local loss fell from the first %zu to "
                                 "the last %zu rounds in %llu of %llu calls "
                                 "(largest last/first ratio %.3f)",
                                 kLossRounds, kLossRounds,
                                 static_cast<unsigned long long>(w.loss_fell),
                                 static_cast<unsigned long long>(w.calls),
                                 w.worst_loss_ratio),
                w.loss_fell == w.calls);
}

}  // namespace perfbench
