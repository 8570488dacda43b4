#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

// Linear-interpolated quantile, q in [0, 1]. Returns 0 for no samples.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

}  // namespace

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

double LowQuarterMean(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const size_t n = std::max<size_t>(1, values.size() / 4);
  std::partial_sort(values.begin(), values.begin() + n, values.end());
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) sum += values[i];
  return sum / static_cast<double>(n);
}

Tail TailOf(const std::vector<double>& values, double percentile) {
  Tail tail;
  tail.percentile = percentile;
  tail.value = Quantile(values, percentile / 100.0);
  tail.beyond = static_cast<size_t>(std::count_if(
      values.begin(), values.end(), [&](double v) { return v > tail.value; }));
  return tail;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

const std::vector<std::string>& ArenaTags() {
  static const std::vector<std::string> tags = {
      "tensor", "transport", "comm", "compress",
      "algo",   "ps.embedding", "serve.cache", "fl"};
  return tags;
}

void Report::EndToEnd(const std::string& name, double value,
                      const std::string& unit) {
  end_to_end_.push_back({name, value, unit});
}

void Report::PerLayer(const std::string& name, double value,
                      const std::string& unit) {
  per_layer_.push_back({name, value, unit});
}

void Report::Ops(uint64_t attempted, uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::Check(const std::string& what, bool ok) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    ++checks_failed_;
  }
  notes_.push_back(std::string(ok ? "check ok    " : "check FAILED ") + what);
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

void Report::Print(bool traced) const {
  const std::vector<Metric>& shown = traced ? per_layer_ : end_to_end_;
  for (const std::string& line : notes_) std::printf("%s\n", line.c_str());
  std::printf("| metric | value | unit |\n|---|---|---|\n");
  for (const Metric& m : shown) {
    std::printf("| %s | %.6g | %s |\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct() ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  for (size_t i = 0; i < shown.size(); ++i) {
    const double value = std::isfinite(shown[i].value) ? shown[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", shown[i].name.c_str(), value,
                shown[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
