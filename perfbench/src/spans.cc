#include "spans.h"

#include <cstdio>

namespace perfbench {

namespace {

struct Record {
  int name = 0;
  int64_t step = 0;
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
};

struct Open {
  int name = 0;
  int64_t begin_ns = 0;
  int64_t child_ns = 0;  // summed duration of direct children
  long record = -1;      // index into RankLog::records, -1 if not kept
};

struct RankLog {
  std::vector<SpanTotals> totals;  // by name id
  std::vector<Record> records;
  std::vector<Open> open;  // innermost last
  int64_t step = 0;
};

std::vector<std::string>& Names() {
  static std::vector<std::string> names;
  return names;
}

std::vector<RankLog>& Logs() {
  static std::vector<RankLog> logs;
  return logs;
}

int64_t& Origin() {
  static int64_t origin = 0;
  return origin;
}

}  // namespace

std::atomic<bool> Spans::on_{false};

int SpanName(const std::string& name) {
  std::vector<std::string>& names = Names();
  for (size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return static_cast<int>(i);
  }
  names.push_back(name);
  return static_cast<int>(names.size() - 1);
}

void Spans::Start(int ranks) {
  Logs().assign(static_cast<size_t>(ranks), RankLog());
  for (RankLog& log : Logs()) {
    log.totals.resize(Names().size());
    log.records.reserve(kMaxRecordsPerRank);
  }
  Origin() = NowNs();
  on_.store(true);
}

void Spans::Stop() { on_.store(false); }

void Spans::SetStep(int rank, int64_t step) {
  if (rank >= 0 && rank < static_cast<int>(Logs().size())) {
    Logs()[rank].step = step;
  }
}

bool Spans::Begin(int rank, int name) {
  if (rank < 0 || rank >= static_cast<int>(Logs().size())) return false;
  RankLog& log = Logs()[rank];
  Open span;
  span.name = name;
  span.begin_ns = NowNs();
  if (log.records.size() < kMaxRecordsPerRank) {
    span.record = static_cast<long>(log.records.size());
    log.records.push_back({name, log.step, span.begin_ns, 0});
  }
  log.open.push_back(span);
  return true;
}

void Spans::End(int rank) {
  const int64_t end_ns = NowNs();
  RankLog& log = Logs()[rank];
  const Open span = log.open.back();
  log.open.pop_back();
  const int64_t dur = end_ns - span.begin_ns;
  if (static_cast<size_t>(span.name) >= log.totals.size()) {
    log.totals.resize(span.name + 1);
  }
  SpanTotals& t = log.totals[span.name];
  ++t.count;
  t.total_ns += dur;
  t.self_ns += dur - span.child_ns;
  if (!log.open.empty()) log.open.back().child_ns += dur;
  if (span.record >= 0) log.records[span.record].end_ns = end_ns;
}

std::map<std::string, SpanTotals> Spans::Summarize(int rank) {
  std::map<std::string, SpanTotals> out;
  if (rank < 0 || rank >= static_cast<int>(Logs().size())) return out;
  const std::vector<SpanTotals>& totals = Logs()[rank].totals;
  for (size_t i = 0; i < totals.size(); ++i) {
    if (totals[i].count > 0) out[Names()[i]] = totals[i];
  }
  return out;
}

bool Spans::WriteChromeTrace(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  const std::vector<RankLog>& logs = Logs();
  for (size_t rank = 0; rank < logs.size(); ++rank) {
    std::fprintf(f,
                 "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":%zu,\"args\":{\"name\":\"rank %zu\"}}",
                 rank == 0 ? "" : ",\n", rank, rank);
    for (const Record& rec : logs[rank].records) {
      if (rec.end_ns == 0) continue;  // still open when recording stopped
      std::fprintf(f,
                   ",\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                   "\"pid\":1,\"tid\":%zu,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"step\":%lld}}",
                   Names()[rec.name].c_str(), rank,
                   static_cast<double>(rec.begin_ns - Origin()) * 1e-3,
                   static_cast<double>(rec.end_ns - rec.begin_ns) * 1e-3,
                   static_cast<long long>(rec.step));
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
