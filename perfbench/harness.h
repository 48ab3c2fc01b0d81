// Shared pieces of the end-to-end benchmark: latency samples, the report
// printed at exit, result fingerprints for the output checks, and the
// in-memory span tracer of the traced run.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "query/result.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// CPU time the calling thread has run, in nanoseconds
/// (CLOCK_THREAD_CPUTIME_ID). Waits for I/O, locks or a processor are not
/// in it, and on a kernel with paravirtual steal accounting neither is the
/// time the hypervisor gave the vCPU to another guest.
int64_t ThreadCpuNanos();
/// CPU time of every thread of this process, in nanoseconds.
int64_t ProcessCpuNanos();

/// Times one operation of the calling thread on both clocks: its CPU time
/// is what the end-to-end metrics report, its wall time is printed beside.
class Stopwatch {
 public:
  Stopwatch() : wall_(Clock::now()), cpu_ns_(ThreadCpuNanos()) {}
  double CpuMicros() const { return static_cast<double>(ThreadCpuNanos() - cpu_ns_) / 1e3; }
  double WallMicros() const { return MicrosBetween(wall_, Clock::now()); }

 private:
  Clock::time_point wall_;
  int64_t cpu_ns_;
};

/// One latency (or count) per completed operation.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t size() const { return values_.size(); }
  /// Nearest-rank percentile, p in (0, 1]; 0 when empty.
  double Percentile(double p) const;
  double Median() const { return Percentile(0.5); }
  double Mean() const;
  /// Share of samples below `v`.
  double FractionBelow(double v) const;

 private:
  std::vector<double> values_;
};

/// What one run prints: the output-check verdict, the operation counts and
/// the named metrics, in insertion order.
struct Report {
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
  };
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Records an output check. A failed check marks the run incorrect and
  /// counts as one failed operation.
  bool Check(bool ok, const std::string& what);
  /// Records a call that returned an error status.
  void Fail(const std::string& what);
  std::string ToJson() const;
};

/// Order-independent fingerprint of a result's items (sorted ids, fragments
/// and terminal sets), plus its page count.
uint64_t FingerprintItems(const graphitti::query::QueryResult& result);
/// Fingerprint of the current page's materialized connection subgraphs.
uint64_t FingerprintPage(const graphitti::query::QueryResult& result);

/// Per-thread span log of the traced run. Spans are kept in memory and
/// written out when the run ends; every span of one user operation shares
/// that operation's id.
class TraceLog {
 public:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;  // index into this log, -1 for an operation's root
    uint64_t op;
  };

  explicit TraceLog(int thread) : thread_(thread) {}
  int thread() const { return thread_; }
  const std::vector<Span>& spans() const { return spans_; }

  int32_t Open(const char* name);
  void Close(int32_t index);
  /// Starts a new user operation; the next root span belongs to it.
  void BeginOp() { ++op_; }

 private:
  int thread_;
  uint64_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII span; a no-op when the log is null (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(TraceLog* log, const char* name)
      : log_(log), index_(log != nullptr ? log->Open(name) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  TraceLog* log_;
  int32_t index_;
};

/// Per span name over every log: count, median duration, total and self
/// time (duration minus the part its child spans cover).
struct SpanSummary {
  size_t count = 0;
  double total_us = 0;
  double self_us = 0;
  Samples durations_us;
};
std::map<std::string, SpanSummary> Summarize(const std::vector<const TraceLog*>& logs);

/// Writes every span as one JSON object per line.
bool WriteSpans(const std::string& path, const std::vector<const TraceLog*>& logs);

/// Peak resident set size of this process (getrusage ru_maxrss), in MiB.
double PeakRssMiB();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
