// The benchmark's workloads. Each generates its inputs from the seed, runs
// its set-up several times, measures for the requested wall time, checks its
// outputs and fills the report.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "report.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  /// Traced run: per-layer metrics from spans instead of end-to-end ones.
  bool trace = false;
};

/// train-dense-wire and train-qsgd-compute.
void RunTrainWorkload(const RunOptions& opts, Report* report);
/// serve-dlrm.
void RunServeWorkload(const RunOptions& opts, Report* report);
/// fl-churn.
void RunFlWorkload(const RunOptions& opts, Report* report);

/// Runs fn(rank) for every rank: rank 0 on the calling thread, the others
/// on world - 1 spawned threads, all joined before returning.
template <typename Fn>
void RunRanks(int world, Fn&& fn) {
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(world > 0 ? world - 1 : 0));
  for (int r = 1; r < world; ++r) threads.emplace_back([&fn, r] { fn(r); });
  fn(0);
  for (std::thread& t : threads) t.join();
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
