#include "harness.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>

namespace perfbench {

double Samples::Percentile(double p) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(sorted.size())));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

double Samples::Mean() const {
  if (values_.empty()) return 0;
  double sum = 0;
  for (double v : values_) sum += v;
  return sum / static_cast<double>(values_.size());
}

double Samples::FractionBelow(double v) const {
  if (values_.empty()) return 0;
  size_t below = 0;
  for (double x : values_) below += x < v ? 1 : 0;
  return static_cast<double>(below) / static_cast<double>(values_.size());
}

bool Report::Check(bool ok, const std::string& what) {
  if (!ok) {
    correct = false;
    ++failed;
    std::cerr << "CHECK FAILED: " << what << "\n";
  }
  return ok;
}

void Report::Fail(const std::string& what) {
  ++failed;
  std::cerr << "OPERATION FAILED: " << what << "\n";
}

std::string Report::ToJson() const {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
      << ", \"failed\": " << failed << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    double value = std::isfinite(m.value) ? m.value : 0;
    out << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << value
        << ", \"unit\": \"" << m.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

namespace {

uint64_t Mix(uint64_t h, uint64_t v) {
  uint64_t z = h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t NodeKey(const graphitti::agraph::NodeRef& n) {
  return (static_cast<uint64_t>(n.kind) << 56) ^ n.id;
}

}  // namespace

uint64_t FingerprintItems(const graphitti::query::QueryResult& result) {
  std::vector<uint64_t> keys;
  keys.reserve(result.items.size());
  for (const auto& item : result.items) {
    uint64_t k = Mix(item.content_id, item.referent_id);
    k = Mix(k, std::hash<std::string>{}(item.fragment));
    k = Mix(k, item.count);
    for (const auto& t : item.terminals) k = Mix(k, NodeKey(t));
    keys.push_back(k);
  }
  std::sort(keys.begin(), keys.end());
  uint64_t h = Mix(static_cast<uint64_t>(result.target), result.total_pages);
  for (uint64_t k : keys) h = Mix(h, k);
  return h;
}

uint64_t FingerprintPage(const graphitti::query::QueryResult& result) {
  uint64_t h = Mix(result.page, result.page_count);
  for (const auto& item : result.Page()) {
    h = Mix(h, item.subgraph_ready ? 1 : 0);
    for (const auto& n : item.subgraph.nodes) h = Mix(h, NodeKey(n));
    for (const auto& e : item.subgraph.edges) {
      h = Mix(Mix(h, NodeKey(e.from)), NodeKey(e.to));
    }
  }
  return h;
}

int32_t TraceLog::Open(const char* name) {
  int32_t parent = open_.empty() ? -1 : open_.back();
  int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now().time_since_epoch())
                    .count();
  spans_.push_back({name, now, now, parent, op_});
  int32_t index = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void TraceLog::Close(int32_t index) {
  spans_[static_cast<size_t>(index)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
          .count();
  open_.pop_back();
}

std::map<std::string, SpanSummary> Summarize(const std::vector<const TraceLog*>& logs) {
  std::map<std::string, SpanSummary> out;
  for (const TraceLog* log : logs) {
    const auto& spans = log->spans();
    // Children of one span run one after another on the span's thread, so
    // the part of the parent they cover is the sum of their durations.
    std::vector<int64_t> child_ns(spans.size(), 0);
    for (const auto& s : spans) {
      if (s.parent >= 0) child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const auto& s = spans[i];
      double dur_us = static_cast<double>(s.end_ns - s.start_ns) / 1000.0;
      SpanSummary& sum = out[s.name];
      ++sum.count;
      sum.total_us += dur_us;
      sum.self_us += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) / 1000.0;
      sum.durations_us.Add(dur_us);
    }
  }
  return out;
}

bool WriteSpans(const std::string& path, const std::vector<const TraceLog*>& logs) {
  std::ofstream out(path);
  if (!out) return false;
  for (const TraceLog* log : logs) {
    const auto& spans = log->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const auto& s = spans[i];
      out << "{\"thread\": " << log->thread() << ", \"id\": " << i
          << ", \"parent\": " << s.parent << ", \"op\": " << s.op << ", \"name\": \""
          << s.name << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
          << "}\n";
    }
  }
  return static_cast<bool>(out);
}

namespace {

int64_t CpuNanos(clockid_t clock) {
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) return 0;
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

}  // namespace

int64_t ThreadCpuNanos() { return CpuNanos(CLOCK_THREAD_CPUTIME_ID); }
int64_t ProcessCpuNanos() { return CpuNanos(CLOCK_PROCESS_CPUTIME_ID); }

double PeakRssMiB() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

}  // namespace perfbench
