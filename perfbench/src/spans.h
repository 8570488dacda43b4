// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded only by the benchmark's own probes (probes.h), around
// the calls it makes into the library. Each rank thread writes only its own
// log, so recording takes no lock; the logs are read only after the rank
// threads have been joined. Spans nest per rank, which yields each span's
// self time (its duration minus its direct children). Per-name totals cover
// every span; the first kMaxRecordsPerRank spans of each rank are also kept
// for the Chrome trace file, which bounds its size.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Interns a span name. Call before the traced window starts: the name
/// table is not guarded for concurrent registration.
int SpanName(const std::string& name);

struct SpanTotals {
  uint64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};

/// Process-wide span recorder, off unless Start() was called.
class Spans {
 public:
  /// Clears all logs and enables recording for ranks [0, ranks).
  static void Start(int ranks);
  /// Disables recording; the logs stay readable.
  static void Stop();
  static bool on() { return on_.load(std::memory_order_relaxed); }

  static constexpr size_t kMaxRecordsPerRank = 50000;

  /// The id that the rank's following spans carry (training step, served
  /// replay or FL call index).
  static void SetStep(int rank, int64_t step);
  /// Opens a span on `rank`; false (and nothing to close) if the rank has no
  /// log. Spans of one rank must close in reverse order of opening.
  static bool Begin(int rank, int name);
  static void End(int rank);

  /// Per span name (keyed by its string) totals of one rank's log.
  static std::map<std::string, SpanTotals> Summarize(int rank);

  /// Writes every rank's spans as a Chrome trace-event JSON file (opens in
  /// Perfetto and chrome://tracing). Returns false if the file cannot be
  /// written.
  static bool WriteChromeTrace(const std::string& path);

 private:
  static std::atomic<bool> on_;
};

/// RAII span; a no-op while recording is off.
class ScopedSpan {
 public:
  ScopedSpan(int rank, int name)
      : rank_(rank), open_(Spans::on() && Spans::Begin(rank, name)) {}
  ~ScopedSpan() {
    if (open_) Spans::End(rank_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int rank_;
  bool open_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
