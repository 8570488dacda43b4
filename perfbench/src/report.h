// Result collection for one benchmark run: named metrics with units, output
// checks and operation counts, printed as a human-readable table followed by
// the one-line JSON result that ends standard output.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Linear-interpolated median. Returns 0 for no samples.
double Median(const std::vector<double>& values);

/// Mean of the smallest quarter of the samples (at least one). Returns 0 for
/// no samples.
double LowQuarterMean(std::vector<double> values);

/// A tail percentile and how many samples lie beyond it. Each workload fixes
/// its percentile as the highest that leaves at least ten samples beyond it
/// in a run of the benchmark's length; a percentile that moved with the
/// sample count would make the figure jump between runs.
struct Tail {
  double percentile = 0.0;
  double value = 0.0;
  size_t beyond = 0;
};
Tail TailOf(const std::vector<double>& values, double percentile);

/// Peak resident set size of this process so far, MiB.
double PeakRssMb();

/// The library's subsystem arena tags reported as memory.<tag>.peak_bytes.
const std::vector<std::string>& ArenaTags();

class Report {
 public:
  /// Adds an end-to-end (untraced) or per-layer (traced) metric.
  void EndToEnd(const std::string& name, double value, const std::string& unit);
  void PerLayer(const std::string& name, double value, const std::string& unit);

  /// Counts `attempted` timed operations of which `failed` failed.
  void Ops(uint64_t attempted, uint64_t failed);
  /// Records an output check; a failed check counts as a failed operation.
  void Check(const std::string& what, bool ok);
  /// A free-form line of the human-readable table.
  void Note(const std::string& line);

  bool correct() const { return checks_failed_ == 0 && failed_ == 0; }

  /// Prints notes, metric rows and then the JSON result line. `traced`
  /// selects which metric family the table and the JSON carry.
  void Print(bool traced) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> end_to_end_;
  std::vector<Metric> per_layer_;
  std::vector<std::string> notes_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t checks_failed_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
