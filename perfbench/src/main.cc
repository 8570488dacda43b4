// perfbench: the repository's wall-clock benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-file <path>]
//
// Prints a human-readable table, then one JSON line with `correct`,
// `attempted`, `failed` and the metrics the workload measured: the
// end-to-end family when --trace 0, the per-layer family (from spans) when
// --trace 1. run.py completes and orders them from BENCHMARK.json. A traced
// run also writes its spans as Chrome trace-event JSON to --trace-file.
#include <sys/prctl.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "base/arena.h"
#include "base/parallel.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-file <path>]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions opts;
  std::string trace_file;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      opts.trace = value == "1";
    } else if (flag == "--trace-file") {
      trace_file = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("every flag takes a value");
  if (!(opts.seconds > 0.0 && opts.seconds <= 600.0)) {
    return Usage("--seconds must be in (0, 600]");
  }

  // One compute thread per rank: the rank threads are the parallelism.
  bagua::SetIntraOpThreads(1);
  // WireDelayTransport sleeps for each message's wire time. The default
  // 50 us timer slack, inherited by every thread started from here, would
  // add up to that much to each sleep and vary with other timers on the
  // host, so the emulated wire is held to the delay it asks for.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);

  Report report;
  if (opts.workload == "train-dense-wire" ||
      opts.workload == "train-qsgd-compute") {
    RunTrainWorkload(opts, &report);
  } else if (opts.workload == "serve-dlrm") {
    RunServeWorkload(opts, &report);
  } else if (opts.workload == "fl-churn") {
    RunFlWorkload(opts, &report);
  } else {
    return Usage(("unknown workload " + opts.workload).c_str());
  }

  if (opts.trace) {
    for (const bagua::ArenaSnapshot& snap :
         bagua::MemoryRegistry::Global().Snapshot()) {
      for (const std::string& tag : ArenaTags()) {
        if (snap.tag == tag) {
          report.PerLayer("memory." + tag + ".peak_bytes",
                          static_cast<double>(snap.stats.peak_bytes), "bytes");
        }
      }
    }
    if (!trace_file.empty()) {
      report.Check("spans written to " + trace_file,
                   Spans::WriteChromeTrace(trace_file));
    }
  }
  report.Print(opts.trace);
  return 0;
}
