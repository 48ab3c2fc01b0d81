#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/graphitti.h"
#include "core/workload.h"
#include "counting_env.h"
#include "query/executor.h"
#include "query/parser.h"
#include "relational/predicate.h"
#include "util/random.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using graphitti::agraph::NodeRef;
using graphitti::annotation::AnnotationBuilder;
using graphitti::annotation::AnnotationId;
using graphitti::core::DurabilityOptions;
using graphitti::core::Graphitti;
using graphitti::core::InfluenzaCorpus;
using graphitti::query::ExecutorOptions;
using graphitti::query::QueryResult;
using graphitti::util::Rng;
using State = Graphitti::EngineState;

// Corpus sizes (annotations). browse is the large read-only working set;
// the Figure 3 join check runs on a small engine of its own (a 2k join
// takes tens of ms, a 5k one ~0.3 s); annotate stays at 2k so a run holds
// >100 durable commits even though each one clones the corpus; restart
// reopens a 20k corpus with a 10% WAL tail.
constexpr size_t kBrowseFlu = 20000;
constexpr size_t kBrowseBrain = 5000;
constexpr size_t kJoinFlu = 2000;
constexpr size_t kAnnotateFlu = 2000;
constexpr size_t kRestartFlu = 20000;
constexpr size_t kRestartTail = kRestartFlu / 10;

// Commits per restart iteration, enough that a run holds >100. The first
// one or two commits after a reopen clone the corpus; at 50 those stay out
// of the 90th percentile.
constexpr size_t kRestartCommits = 50;

const State& Pinned(const QueryResult& r) {
  return *static_cast<const State*>(r.snapshot.get());
}

double CpuMillis(const Stopwatch& sw) { return sw.CpuMicros() / 1000.0; }
double Elapsed(Clock::time_point start) { return MicrosBetween(start, Clock::now()) / 1e6; }

/// One closed-loop client: its own span log, checks, samples and per-layer
/// samples, merged after the window.
struct Client {
  Client(int id, bool traced_in, bool quiescent_in)
      : log(id), traced(traced_in), quiescent(quiescent_in) {}

  TraceLog* trace() { return traced ? &log : nullptr; }
  void Layer(const std::string& name, double value) {
    if (traced) layer[name].Add(value);
  }

  TraceLog log;
  bool traced;
  // A single client with no writer: direct calls into the substrates read
  // the same state the facade did.
  bool quiescent;
  Report report;
  std::map<std::string, Samples> layer;
  std::map<std::string, Samples> overhead_by_kind;
  // CPU time of each timed operation and its wall time; the query CPU
  // times make end-to-end metrics, the rest are printed.
  Samples query_us, flip_us, commit_us;
  Samples query_wall_us, flip_wall_us, commit_wall_us;
  uint64_t ops = 0;
  double cpu_s = 0;  // CPU time of the client's thread in its window
  double last_shadow_us = 0;
};

// Root span of one user operation; the spans it encloses share its op id.
struct OpSpan {
  OpSpan(Client& c, const char* name) : span(Begin(c), name) {}
  static TraceLog* Begin(Client& c) {
    c.log.BeginOp();
    return c.trace();
  }
  ScopedSpan span;
};

// Times one direct call into a layer in CPU time (traced run only).
template <typename F>
auto Shadow(Client& c, const char* name, F&& fn) -> decltype(fn()) {
  ScopedSpan span(&c.log, name);
  Stopwatch sw;
  auto out = fn();
  c.last_shadow_us = sw.CpuMicros();
  c.Layer(std::string(name) + "_us", c.last_shadow_us);
  return out;
}

std::optional<QueryResult> UserQuery(Client& c, const Graphitti& g, const std::string& text,
                                     const ExecutorOptions& opts, const char* kind, bool timed) {
  ++c.report.attempted;
  Stopwatch sw;
  auto r = [&] {
    ScopedSpan span(c.trace(), "core.query");
    return g.Query(text, opts);
  }();
  double us = sw.CpuMicros();
  double wall_us = sw.WallMicros();
  if (!r.ok()) {
    c.report.Fail(text + ": " + r.status().ToString());
    return std::nullopt;
  }
  ++c.ops;
  if (timed) {
    c.query_us.Add(us);
    c.query_wall_us.Add(wall_us);
  }
  if (c.traced) {
    const auto& st = r->stats;
    c.Layer("query.rows_examined", static_cast<double>(st.rows_examined));
    c.Layer("query.peak_bytes", static_cast<double>(st.peak_bytes));
    if (st.rows_examined > 0) {
      c.Layer("query.items_per_row_examined",
              static_cast<double>(st.items_produced) / static_cast<double>(st.rows_examined));
    }
    auto parsed = Shadow(c, "query.parse", [&] { return graphitti::query::ParseQuery(text); });
    double parse_us = c.last_shadow_us;
    if (c.quiescent && parsed.ok()) {
      const State& s = Pinned(*r);
      graphitti::query::QueryContext ctx{s.store.get(), &s.indexes, &s.graph, &g, &g};
      graphitti::query::Executor executor(ctx, opts);
      auto again = Shadow(c, "query.execute", [&] { return executor.Execute(*parsed); });
      c.report.Check(again.ok() && FingerprintItems(*again) == FingerprintItems(*r),
                     "direct Executor::Execute agrees with Graphitti::Query: " + text);
      double overhead = us - parse_us - c.last_shadow_us;
      c.Layer("core.query_overhead_us", overhead);
      c.overhead_by_kind[kind].Add(overhead);
    }
  }
  return std::move(r).ValueUnsafe();
}

bool UserFlip(Client& c, const Graphitti& g, QueryResult* r, size_t page) {
  ++c.report.attempted;
  size_t trees_before = r->stats.connect_trees_built;
  Stopwatch sw;
  auto status = [&] {
    ScopedSpan span(c.trace(), "core.page_flip");
    return g.MaterializePage(r, page);
  }();
  double us = sw.CpuMicros();
  double wall_us = sw.WallMicros();
  if (!status.ok()) {
    c.report.Fail("MaterializePage " + std::to_string(page) + ": " + status.ToString());
    return false;
  }
  ++c.ops;
  if (r->target != graphitti::query::Target::kGraph) return true;
  // Only GRAPH pages build anything (their connection subgraphs); other
  // flips just move the page window and are not timed.
  c.flip_us.Add(us);
  c.flip_wall_us.Add(wall_us);
  if (c.traced) {
    c.Layer("agraph.connect_trees_built",
            static_cast<double>(r->stats.connect_trees_built - trees_before));
    const State& s = Pinned(*r);
    for (const auto& item : r->Page()) {
      if (item.terminals.empty()) continue;
      Shadow(c, "agraph.connect", [&] { return s.graph.Connect(item.terminals).ok(); });
    }
  }
  return true;
}

void ReleaseResult(Client& c, std::optional<QueryResult>* r) {
  Stopwatch sw;
  {
    ScopedSpan span(c.trace(), "core.result_release");
    r->reset();
  }
  c.Layer("core.result_release_us", sw.CpuMicros());
}

std::optional<AnnotationId> UserCommit(Client& c, Graphitti& g, const AnnotationBuilder& b) {
  ++c.report.attempted;
  Stopwatch sw;
  auto id = [&] {
    ScopedSpan span(c.trace(), "core.commit");
    return g.Commit(b);
  }();
  double us = sw.CpuMicros();
  double wall_us = sw.WallMicros();
  if (!id.ok()) {
    c.report.Fail("Commit: " + id.status().ToString());
    return std::nullopt;
  }
  ++c.ops;
  c.commit_us.Add(us);
  c.commit_wall_us.Add(wall_us);
  c.Layer("core.live_versions", static_cast<double>(g.live_engine_versions()));
  return *id;
}

bool UserRemove(Client& c, Graphitti& g, AnnotationId id) {
  ++c.report.attempted;
  Stopwatch sw;
  auto status = [&] {
    ScopedSpan span(c.trace(), "core.remove");
    return g.RemoveAnnotation(id);
  }();
  if (!status.ok()) {
    c.report.Fail("RemoveAnnotation: " + status.ToString());
    return false;
  }
  ++c.ops;
  c.Layer("core.remove_us", sw.CpuMicros());
  return true;
}

// A unique, letters-only keyword per note, so each commit can be found by
// its own keyword query.
std::string NoteToken(uint64_t n) {
  std::string out = "zq";
  do {
    out.push_back(static_cast<char>('a' + n % 26));
    n /= 26;
  } while (n > 0);
  return out;
}

AnnotationBuilder NoteBuilder(Rng& rng, const InfluenzaCorpus& flu, const std::string& token) {
  AnnotationBuilder b;
  b.Title("Note " + token)
      .Creator("annotator")
      .Body("Follow-up " + token + " on the " + rng.Pick(flu.keywords) + " site.");
  const std::string& domain = rng.Pick(flu.segment_domains);
  int64_t cursor = rng.Uniform(0, 900);
  int64_t marks = rng.Uniform(1, 3);
  for (int64_t m = 0; m < marks; ++m) {
    int64_t lo = cursor;
    int64_t hi = lo + rng.Uniform(30, 200);
    b.MarkInterval(domain, lo, hi, rng.Pick(flu.sequence_objects));
    cursor = hi + 1 + rng.Uniform(10, 100);
  }
  return b;
}

graphitti::core::InfluenzaParams FluParams(uint64_t seed, size_t n) {
  graphitti::core::InfluenzaParams p;
  p.seed = seed;
  p.num_annotations = n;
  p.protease_fraction = 0.15;
  return p;
}

// Fails the run when set-up cannot build its corpus: there is nothing to
// measure.
template <typename T>
T MustOk(graphitti::util::Result<T> r, const char* what) {
  if (!r.ok()) {
    std::cerr << "set-up failed (" << what << "): " << r.status().ToString() << "\n";
    std::exit(3);
  }
  return std::move(r).ValueUnsafe();
}

void MustOk(const graphitti::util::Status& s, const char* what) {
  if (!s.ok()) {
    std::cerr << "set-up failed (" << what << "): " << s.ToString() << "\n";
    std::exit(3);
  }
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

// ------------------------------------------------------------ reporting

// What set-up cost: CPU seconds of the whole process (the metric), wall
// seconds (printed), and the peak RSS once set-up is done (the corpus's
// footprint, before any version churn in the window).
struct SetupCost {
  void Start() {
    cpu0_ns = ProcessCpuNanos();
    wall0 = Clock::now();
  }
  void Stop() {
    cpu_s = static_cast<double>(ProcessCpuNanos() - cpu0_ns) / 1e9;
    wall_s = Elapsed(wall0);
    rss_mib = PeakRssMiB();
  }

  double cpu_s = 0;
  double wall_s = 0;
  double rss_mib = 0;
  int64_t cpu0_ns = 0;
  Clock::time_point wall0;
};

struct WindowResult {
  std::vector<std::unique_ptr<Client>> clients;
  double elapsed_s = 0;
  uint64_t window_ops = 0;  // ops completed inside the measured window
};

Samples Merge(const WindowResult& w, Samples Client::*field) {
  Samples out;
  for (const auto& c : w.clients) out.Append((*c).*field);
  return out;
}

void PrintLatency(const std::string& what, const Samples& s, const char* unit, double scale) {
  std::cout << "# " << what << ": n=" << s.size();
  if (s.size() == 0) {
    std::cout << "\n";
    return;
  }
  std::cout << " p50=" << s.Median() / scale << unit;
  // The highest percentile with at least ten samples beyond it.
  if (s.size() >= 1000) std::cout << " p99=" << s.Percentile(0.99) / scale << unit;
  if (s.size() >= 100) std::cout << " p90=" << s.Percentile(0.90) / scale << unit;
  std::cout << " max=" << s.Percentile(1.0) / scale << unit << "\n";
}

void EmitEndToEnd(const SetupCost& setup, const WindowResult& w, Report* report) {
  Samples queries = Merge(w, &Client::query_us);
  Samples flips = Merge(w, &Client::flip_us);
  Samples commits = Merge(w, &Client::commit_us);
  double cpu_s = 0;
  for (const auto& c : w.clients) cpu_s += c->cpu_s;
  PrintLatency("query cpu", queries, "us", 1);
  PrintLatency("page_flip cpu", flips, "us", 1);
  PrintLatency("commit cpu", commits, "us", 1);
  PrintLatency("query wall", Merge(w, &Client::query_wall_us), "us", 1);
  PrintLatency("page_flip wall", Merge(w, &Client::flip_wall_us), "us", 1);
  PrintLatency("commit wall", Merge(w, &Client::commit_wall_us), "us", 1);
  std::cout << "# setup: cpu " << setup.cpu_s << " s, wall " << setup.wall_s << " s\n";
  std::cout << "# ops per wall second: " << static_cast<double>(w.window_ops) / w.elapsed_s
            << "; clients' CPU seconds in the window: " << cpu_s << "\n";
  if (commits.size() > 0) {
    // A recycled commit takes well under a millisecond; one that finds the
    // previous version pinned pays a full clone.
    std::cout << "# commits slower than 1 ms (cloned): "
              << 100.0 * (1.0 - commits.FractionBelow(1000.0)) << "%\n";
  }
  // The run's own peak depends on how many versions readers happen to pin
  // at once and moved by a third between runs of annotate; it is printed
  // but not a metric.
  std::cout << "# peak RSS of the run: " << PeakRssMiB() << " MiB\n";
  report->Set("setup_s", setup.cpu_s, "s");
  report->Set("ops_per_cpu_s", static_cast<double>(w.window_ops) / cpu_s, "1/s");
  report->Set("query_cpu_p50_us", queries.Median(), "us");
  report->Set("query_cpu_p90_us", queries.Percentile(0.90), "us");
  // Page flips and commits are printed above but are not metrics: their
  // medians moved by a third between runs of the same build on this host
  // (README.md, Steadiness).
  report->Set("setup_rss_mb", setup.rss_mib, "MiB");
}

struct LayerSpec {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in BENCHMARK.json order. Times report the median
// of their samples, counts and ratios the mean; a layer the workload never
// reaches reports 0.
constexpr LayerSpec kLayerMetrics[] = {
    {"query.parse_us", "us"},
    {"query.execute_us", "us"},
    {"core.query_overhead_us", "us"},
    {"annotation.search_keyword_us", "us"},
    {"spatial.query_intervals_us", "us"},
    {"spatial.query_regions_us", "us"},
    {"spatial.entries_returned", "count"},
    {"ontology.expand_below_us", "us"},
    {"relational.find_objects_us", "us"},
    {"core.correlated_us", "us"},
    {"query.rows_examined", "count"},
    {"query.peak_bytes", "bytes"},
    {"query.items_per_row_examined", "ratio"},
    {"util.pool_speedup", "ratio"},
    {"agraph.connect_us", "us"},
    {"agraph.connect_trees_built", "count"},
    {"annotation.clone_ms", "ms"},
    {"agraph.clone_ms", "ms"},
    {"spatial.clone_ms", "ms"},
    {"relational.clone_ms", "ms"},
    {"annotation.store_commit_us", "us"},
    {"core.live_versions", "count"},
    {"core.remove_us", "us"},
    {"core.result_release_us", "us"},
    {"persist.append_bytes_per_commit", "bytes"},
    {"persist.syncs_per_commit", "count"},
    {"persist.sync_us", "us"},
    {"persist.open_read_bytes", "bytes"},
    {"core.open_ms", "ms"},
    {"core.first_query_ms", "ms"},
    {"core.hydrate_ms", "ms"},
    {"core.checkpoint_ms", "ms"},
    {"persist.checkpoint_write_bytes", "bytes"},
    {"persist.disk_bytes_per_annotation", "bytes"},
    {"trace.overhead_pct", "%"},
};

void EmitLayers(const std::map<std::string, Samples>& layer, Report* report) {
  for (const LayerSpec& spec : kLayerMetrics) {
    std::string unit = spec.unit;
    auto it = layer.find(spec.name);
    double value = 0;
    if (it != layer.end()) {
      bool is_time = unit == "us" || unit == "ms";
      value = is_time ? it->second.Median() : it->second.Mean();
    }
    report->Set(spec.name, value, unit);
  }
}

void EmitTrace(const Options& o, const WindowResult& w) {
  std::vector<const TraceLog*> logs;
  for (const auto& c : w.clients) logs.push_back(&c->log);
  std::cout << "# spans (traced window): name count median_us total_ms self_ms\n";
  for (const auto& [name, s] : Summarize(logs)) {
    std::cout << "#   " << name << " " << s.count << " " << s.durations_us.Median() << " "
              << s.total_us / 1000.0 << " " << s.self_us / 1000.0 << "\n";
  }
  for (const auto& c : w.clients) {
    for (const auto& [kind, s] : c->overhead_by_kind) {
      std::cout << "# core.query_overhead_us[" << kind << "] median=" << s.Median()
                << " n=" << s.size() << "\n";
    }
  }
  if (!o.trace_out.empty() && !WriteSpans(o.trace_out, logs)) {
    std::cerr << "could not write spans to " << o.trace_out << "\n";
  }
}

// Clones of each substrate (the cost a commit pays when it cannot recycle
// a version) and commits into a benchmark-owned replica of the annotation
// store. Run at the end of the traced run, with the engine quiescent.
void MeasureSubstrates(Client& c, const Graphitti& g, const InfluenzaCorpus& flu, Rng& rng) {
  for (int rep = 0; rep < 3; ++rep) {
    {
      Stopwatch sw;
      ScopedSpan span(&c.log, "relational.clone");
      auto copy = g.catalog().Clone();
      c.Layer("relational.clone_ms", CpuMillis(sw));
    }
    {
      Stopwatch sw;
      ScopedSpan span(&c.log, "spatial.clone");
      auto copy = g.indexes().Clone();
      c.Layer("spatial.clone_ms", CpuMillis(sw));
    }
    {
      Stopwatch sw;
      ScopedSpan span(&c.log, "agraph.clone");
      auto copy = g.graph().Clone();
      c.Layer("agraph.clone_ms", CpuMillis(sw));
    }
  }
  for (int rep = 0; rep < 3; ++rep) {
    auto indexes = g.indexes().Clone();
    auto graph = g.graph().Clone();
    Stopwatch sw;
    std::unique_ptr<graphitti::annotation::AnnotationStore> replica;
    {
      ScopedSpan span(&c.log, "annotation.clone");
      replica = g.annotations().Clone(&indexes, &graph);
    }
    c.Layer("annotation.clone_ms", CpuMillis(sw));
    if (rep > 0) continue;
    for (int i = 0; i < 100; ++i) {
      AnnotationBuilder b = NoteBuilder(rng, flu, NoteToken(900000 + i));
      bool ok = Shadow(c, "annotation.store_commit", [&] { return replica->Commit(b).ok(); });
      c.report.Check(ok, "AnnotationStore::Commit into the replica");
    }
  }
}

// Keeps a finished window's checks and drops its samples.
void KeepChecks(WindowResult* from, WindowResult* into) {
  for (auto& c : from->clients) {
    c->query_us = c->flip_us = c->commit_us = Samples();
    c->query_wall_us = c->flip_wall_us = c->commit_wall_us = Samples();
    c->cpu_s = 0;
    c->layer.clear();
    c->overhead_by_kind.clear();
    into->clients.push_back(std::move(c));
  }
}

// Runs a warm-up window of a quarter of the run length, so caches and
// lazily built state settle before anything is timed, then the measured
// window. The traced run measures an untraced and a traced window of half
// the length each and reports the query-latency change between them as the
// tracing overhead. `window(seconds, traced)` is the workload's closed loop.
template <typename Window>
WindowResult RunWindows(const Options& o, Window window, std::map<std::string, Samples>* layer) {
  WindowResult warm = window(o.seconds / 4, false);
  WindowResult measured;
  if (!o.trace) {
    measured = window(o.seconds, false);
  } else {
    WindowResult plain = window(o.seconds / 2, false);
    measured = window(o.seconds / 2, true);
    double base = Merge(plain, &Client::query_us).Median();
    double with = Merge(measured, &Client::query_us).Median();
    if (base > 0) (*layer)["trace.overhead_pct"].Add(100.0 * (with - base) / base);
    KeepChecks(&plain, &measured);
  }
  KeepChecks(&warm, &measured);
  return measured;
}

// Merges the window's clients and the after-window client (checks after
// the window, substrate clones) into `report`, then emits the end-to-end
// metrics, or in the traced run the span summary and the per-layer metrics.
void Finish(const Options& o, const SetupCost& setup, WindowResult* w, Client* after,
            std::map<std::string, Samples>* layer, Report* report) {
  w->clients.push_back(std::make_unique<Client>(std::move(*after)));
  for (const auto& c : w->clients) {
    report->attempted += c->report.attempted;
    report->failed += c->report.failed;
    report->correct = report->correct && c->report.correct;
    for (const auto& [name, s] : c->layer) (*layer)[name].Append(s);
  }
  if (o.trace) {
    EmitTrace(o, *w);
    EmitLayers(*layer, report);
  } else {
    EmitEndToEnd(setup, *w, report);
  }
}

// ------------------------------------------------------------ answers and Figure 3

// A query and the answer it must give: its item fingerprint, then the
// fingerprints of pages 1-4 (index 0 unused).
struct Expected {
  std::string text;
  uint64_t items = 0;
  std::vector<uint64_t> pages;
};

Expected RecordAnswer(const Graphitti& g, std::string text, const ExecutorOptions& opts) {
  Expected e;
  e.text = std::move(text);
  auto r = MustOk(g.Query(e.text, opts), "expected answer");
  e.items = FingerprintItems(r);
  e.pages = {0, FingerprintPage(r)};
  for (size_t page = 2; page <= std::min<size_t>(4, r.total_pages); ++page) {
    MustOk(g.MaterializePage(&r, page), "expected page");
    e.pages.push_back(FingerprintPage(r));
  }
  return e;
}

std::string FlagshipQuery(const std::string& keyword, const std::string& domain) {
  return "FIND GRAPH WHERE { ?a1 CONTAINS \"" + keyword + "\" ; ?a2 CONTAINS \"" + keyword +
         "\" ; ?s1 IS REFERENT ; ?s1 DOMAIN \"" + domain + "\" ; ?s2 IS REFERENT ; "
         "?s2 DOMAIN \"" + domain + "\" ; ?a1 ANNOTATES ?s1 ; ?a2 ANNOTATES ?s2 } "
         "CONSTRAIN consecutive(?s1, ?s2), disjoint(?s1, ?s2) LIMIT 10";
}

// The paper's Figure 3 join on a small influenza engine of its own, at
// workers=1 and at workers=nproc: the two must give the same rows and
// pages. The join of the figure's keyword on each segment domain; the
// traced run reports the thread pool's wall-time speed-up. Run after the
// window, untimed.
void CheckFigure3Join(Client& c, uint64_t seed) {
  Graphitti g;
  InfluenzaCorpus flu = MustOk(
      graphitti::core::GenerateInfluenzaStudy(&g, FluParams(seed, kJoinFlu)), "influenza corpus");
  ExecutorOptions serial;
  ExecutorOptions parallel;
  parallel.workers = std::max(1u, std::thread::hardware_concurrency());
  for (const std::string& domain : flu.segment_domains) {
    const std::string text = FlagshipQuery("protease", domain);
    Stopwatch one;
    Expected a = RecordAnswer(g, text, serial);
    double serial_us = one.WallMicros();
    Stopwatch many;
    Expected b = RecordAnswer(g, text, parallel);
    double parallel_us = many.WallMicros();
    c.report.Check(a.items == b.items && a.pages == b.pages,
                   "Figure 3 join at workers=1 equals workers=nproc on " + domain);
    c.Layer("util.pool_speedup", serial_us / parallel_us);
  }
}

// ------------------------------------------------------------ browse

enum class Kind { kKeyword, kInterval, kRegion, kTerm, kTable, kFragments, kGraph };
constexpr Kind kKinds[] = {Kind::kKeyword, Kind::kInterval, Kind::kRegion, Kind::kTerm,
                           Kind::kTable,   Kind::kFragments, Kind::kGraph};

const char* KindName(Kind k) {
  switch (k) {
    case Kind::kKeyword: return "keyword";
    case Kind::kInterval: return "interval";
    case Kind::kRegion: return "region";
    case Kind::kTerm: return "term_below";
    case Kind::kTable: return "table_join";
    case Kind::kFragments: return "fragments";
    case Kind::kGraph: return "graph";
  }
  return "?";
}

struct QuerySpec {
  Kind kind = Kind::kKeyword;
  std::string text;
  std::vector<std::string> words;  // CONTAINS keywords
  std::string domain;              // interval domain or coordinate system
  graphitti::spatial::Interval window;
  graphitti::spatial::Rect rect;
  std::string term;
  std::string organism;
};

// Every browse query text, one list per kind in kKinds order. The texts
// are a fixed grid over the corpus vocabulary (keywords, segment domains,
// window positions, organisms, creators), so every seed asks the same
// questions and only the corpus and the order change.
std::vector<std::vector<QuerySpec>> BrowseQueries(const InfluenzaCorpus& flu,
                                                  const graphitti::core::BrainAtlasCorpus& brain) {
  static const char* kOrganisms[] = {"H5N1", "H3N2", "H1N1", "H7N9"};
  std::vector<std::vector<QuerySpec>> by_kind(std::size(kKinds));
  auto add = [&](Kind kind, QuerySpec q) {
    q.kind = kind;
    by_kind[static_cast<size_t>(kind)].push_back(std::move(q));
  };
  for (const std::string& word : flu.keywords) {
    QuerySpec q;
    q.words = {word};
    q.text = "FIND CONTENTS WHERE { ?a CONTAINS \"" + word + "\" }";
    add(Kind::kKeyword, q);
    for (int creator = 0; creator < 6; ++creator) {
      QuerySpec f;
      f.words = {word};
      f.text = "FIND FRAGMENTS ?a XPATH \"/annotation/dc:title\" WHERE { ?a CONTAINS \"" + word +
               "\" ; ?a CREATOR \"scientist" + std::to_string(creator) + "\" }";
      add(Kind::kFragments, f);
    }
    for (const std::string& domain : flu.segment_domains) {
      QuerySpec gq;
      gq.words = {word};
      gq.text = "FIND GRAPH WHERE { ?a CONTAINS \"" + word +
                "\" ; ?s IS REFERENT ; ?a ANNOTATES ?s ; ?s DOMAIN \"" + domain + "\" } LIMIT 10";
      add(Kind::kGraph, gq);
    }
  }
  for (const std::string& domain : flu.segment_domains) {
    for (int64_t lo = 0; lo <= 1500; lo += 250) {
      QuerySpec q;
      q.domain = domain;
      q.window = {lo, lo + 300};
      q.text = "FIND REFERENTS WHERE { ?s TYPE interval ; ?s DOMAIN \"" + domain +
               "\" ; ?s OVERLAPS [" + std::to_string(lo) + ", " + std::to_string(lo + 300) + "] }";
      add(Kind::kInterval, q);
    }
    for (const char* organism : kOrganisms) {
      QuerySpec q;
      q.organism = organism;
      q.text = "FIND REFERENTS WHERE { ?s IS REFERENT ; ?s DOMAIN \"" + domain +
               "\" ; ?o TABLE \"dna_sequences\" FILTER organism = '" + q.organism +
               "' ; ?s OF ?o }";
      add(Kind::kTable, q);
    }
  }
  for (int64_t x = 0; x <= 8000; x += 500) {
    QuerySpec q;
    q.domain = brain.canonical_system;
    q.rect = graphitti::spatial::Rect::Make3D(static_cast<double>(x), 0, 0,
                                              static_cast<double>(x + 2000), 10000, 10000);
    q.text = "FIND REFERENTS WHERE { ?s TYPE region ; ?s DOMAIN \"" + q.domain +
             "\" ; ?s OVERLAPS RECT [" + std::to_string(x) + ",0,0, " + std::to_string(x + 2000) +
             ",10000,10000] }";
    add(Kind::kRegion, q);
  }
  QuerySpec term;
  term.term = brain.ontology_name + ":NIF:0000";
  term.text = "FIND CONTENTS WHERE { ?a IS CONTENT ; ?t TERM BELOW \"" + term.term +
              "\" ; ?a REFERS ?t }";
  add(Kind::kTerm, term);
  return by_kind;
}

template <typename T>
void Shuffle(std::vector<T>* v, Rng& rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[static_cast<size_t>(rng.Uniform(0, int64_t(i) - 1))]);
  }
}

void ShadowSubstrates(Client& c, const Graphitti& g, const State& s, const QuerySpec& q) {
  for (const std::string& w : q.words) {
    Shadow(c, "annotation.search_keyword", [&] { return s.store->SearchKeyword(w).size(); });
  }
  switch (q.kind) {
    case Kind::kInterval: {
      size_t n = Shadow(c, "spatial.query_intervals",
                        [&] { return s.indexes.QueryIntervals(q.domain, q.window).size(); });
      c.Layer("spatial.entries_returned", static_cast<double>(n));
      break;
    }
    case Kind::kRegion: {
      size_t n = Shadow(c, "spatial.query_regions", [&] {
        auto hits = s.indexes.QueryRegions(q.domain, q.rect);
        return hits.ok() ? hits->size() : size_t{0};
      });
      c.Layer("spatial.entries_returned", static_cast<double>(n));
      break;
    }
    case Kind::kTerm:
      Shadow(c, "ontology.expand_below", [&] { return g.ExpandTermBelow(q.term).size(); });
      break;
    case Kind::kTable:
      Shadow(c, "relational.find_objects", [&] {
        auto objects = g.FindObjects(
            "dna_sequences", graphitti::relational::Predicate::Eq(
                                 "organism", graphitti::relational::Value::Str(q.organism)));
        return objects.ok() ? objects->size() : size_t{0};
      });
      break;
    default:
      break;
  }
}

uint64_t FingerprintCorrelated(const graphitti::core::CorrelatedData& d) {
  uint64_t h = d.annotations.size() * 1000003ULL + d.referents.size() * 101ULL +
               d.objects.size() * 7ULL + d.terms.size();
  for (auto id : d.annotations) h = h * 31 + id;
  for (auto id : d.referents) h = h * 37 + id;
  return h;
}

void RunBrowse(const Options& o, Report* report) {
  SetupCost setup;
  std::unique_ptr<Graphitti> g;
  InfluenzaCorpus flu;
  graphitti::core::BrainAtlasCorpus brain;
  setup.Start();
  g = std::make_unique<Graphitti>();
  flu = MustOk(graphitti::core::GenerateInfluenzaStudy(g.get(), FluParams(o.seed, kBrowseFlu)),
               "influenza corpus");
  graphitti::core::BrainAtlasParams bp;
  bp.seed = o.seed + 1;
  bp.num_annotations = kBrowseBrain;
  brain = MustOk(graphitti::core::GenerateBrainAtlas(g.get(), bp), "brain atlas corpus");
  setup.Stop();
  std::cout << "# browse: influenza " << kBrowseFlu << " + brain atlas " << kBrowseBrain
            << " annotations, in memory; 1 client, workers=1\n";

  Rng rng(o.seed * 7919 + 3);
  std::vector<std::vector<QuerySpec>> queries = BrowseQueries(flu, brain);
  for (auto& texts : queries) Shuffle(&texts, rng);
  std::vector<size_t> next(queries.size(), 0);  // per kind: next text to ask
  std::unordered_map<std::string, uint64_t> expected;  // text (+page) -> fingerprint
  std::unordered_map<AnnotationId, uint64_t> expected_correlated;
  const ExecutorOptions opts;  // workers = 1

  auto expect = [&](Client& c, const std::string& key, uint64_t fp) {
    auto [it, fresh] = expected.emplace(key, fp);
    c.report.Check(fresh || it->second == fp, "repeatable result for " + key);
  };

  auto window = [&](double seconds, bool traced) {
    WindowResult w;
    w.clients.push_back(std::make_unique<Client>(0, traced, true));
    Client& c = *w.clients[0];
    std::vector<size_t> order(queries.size());
    Clock::time_point start = Clock::now();
    int64_t cpu0_ns = ThreadCpuNanos();
    while (Elapsed(start) < seconds) {
      // One round asks one query of every kind, in a seeded order.
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      Shuffle(&order, rng);
      for (size_t k : order) {
        const QuerySpec& q = queries[k][next[k]++ % queries[k].size()];
        std::optional<QueryResult> r;
        {
          OpSpan op(c, "op.query");
          r = UserQuery(c, *g, q.text, opts, KindName(q.kind), true);
          if (!r) continue;
          expect(c, q.text, FingerprintItems(*r));
          if (traced) ShadowSubstrates(c, *g, Pinned(*r), q);
        }
        if (q.kind == Kind::kGraph) {
          for (size_t page = 2; page <= std::min<size_t>(4, r->total_pages); ++page) {
            OpSpan op(c, "op.page_flip");
            if (UserFlip(c, *g, &*r, page)) {
              expect(c, q.text + "#" + std::to_string(page), FingerprintPage(*r));
            }
          }
        }
        if (q.kind == Kind::kKeyword && !r->items.empty()) {
          AnnotationId id = r->items[static_cast<size_t>(
                                         rng.Uniform(0, int64_t(r->items.size()) - 1))]
                                .content_id;
          OpSpan op(c, "op.correlated");
          ++c.report.attempted;
          Stopwatch sw;
          graphitti::core::CorrelatedData d;
          {
            ScopedSpan span(c.trace(), "core.correlated");
            d = g->Correlated(NodeRef::Content(id));
          }
          c.Layer("core.correlated_us", sw.CpuMicros());
          ++c.ops;
          auto [it, fresh] = expected_correlated.emplace(id, FingerprintCorrelated(d));
          c.report.Check(!d.referents.empty() && (fresh || it->second == FingerprintCorrelated(d)),
                         "repeatable Correlated() for content " + std::to_string(id));
        }
        ReleaseResult(c, &r);
      }
    }
    w.elapsed_s = Elapsed(start);
    c.cpu_s = static_cast<double>(ThreadCpuNanos() - cpu0_ns) / 1e9;
    w.window_ops = c.ops;
    return w;
  };

  std::map<std::string, Samples> layer;
  WindowResult w = RunWindows(o, window, &layer);
  Client probe(9, o.trace, true);
  CheckFigure3Join(probe, o.seed);
  if (o.trace) MeasureSubstrates(probe, *g, flu, rng);
  Finish(o, setup, &w, &probe, &layer, report);
}

// Group commit: the WAL syncs at most every 10 ms. Set-ups bulk-load with
// it, since 2k fsyncs took 0.3 s in one run and 1 s in the next. restart
// also reopens with it: its commits then time apply + append, which repeat
// from run to run, rather than this filesystem's fsync tail, which does
// not. annotate's measured engine keeps the default fsync on every record.
DurabilityOptions GroupCommit(graphitti::persist::Env* env) {
  DurabilityOptions durability;
  durability.env = env;
  durability.wal.sync_policy = graphitti::persist::WalOptions::SyncPolicy::kInterval;
  return durability;
}

// WAL traffic of one commit as the counting Env saw it (traced run only).
void RecordWalTraffic(Client& c, const CountingEnv::Counters& before,
                      const CountingEnv::Counters& after) {
  uint64_t syncs = after.syncs - before.syncs;
  c.Layer("persist.append_bytes_per_commit",
          static_cast<double>(after.appended_bytes - before.appended_bytes));
  c.Layer("persist.syncs_per_commit", static_cast<double>(syncs));
  if (syncs > 0) {
    c.Layer("persist.sync_us", static_cast<double>(after.sync_ns - before.sync_ns) / 1000.0 /
                                   static_cast<double>(syncs));
  }
}

// ------------------------------------------------------------ annotate

// Joins every thread on scope exit, after asking them to stop.
struct ThreadGroup {
  explicit ThreadGroup(std::atomic<bool>* stop_in) : stop(stop_in) {}
  ~ThreadGroup() {
    stop->store(true);
    for (auto& t : threads) t.join();
  }
  ThreadGroup(const ThreadGroup&) = delete;
  ThreadGroup& operator=(const ThreadGroup&) = delete;

  std::atomic<bool>* stop;
  std::vector<std::thread> threads;
};

void RunAnnotate(const Options& o, Report* report) {
  CountingEnv env;  // borrowed by the engine: declared first, destroyed last
  SetupCost setup;
  std::unique_ptr<Graphitti> g;
  InfluenzaCorpus flu;
  const std::string dir = o.data_dir + "/annotate";
  fs::remove_all(dir);
  setup.Start();
  {
    auto bulk = MustOk(Graphitti::OpenDurable(dir, GroupCommit(&env)), "OpenDurable");
    flu = MustOk(
        graphitti::core::GenerateInfluenzaStudy(bulk.get(), FluParams(o.seed, kAnnotateFlu)),
        "influenza corpus");
  }
  DurabilityOptions durability;  // WAL: fsync on every record (the default)
  durability.env = &env;
  g = MustOk(Graphitti::OpenDurable(dir, durability), "reopen");
  setup.Stop();
  std::cout << "# annotate: influenza " << kAnnotateFlu
            << " annotations, durable, WAL fsync on every record; 2 readers + 1 annotator\n";

  uint64_t next_note = 0;
  std::deque<std::pair<AnnotationId, std::string>> own;  // annotator's notes, oldest first

  auto reader = [&](Client& c, uint64_t seed, const std::atomic<bool>& stop) {
    Rng rng(seed);
    for (uint64_t i = 0; !stop.load(); ++i) {
      std::string word = rng.Pick(flu.keywords);
      std::string domain = rng.Pick(flu.segment_domains);
      int64_t lo = rng.Uniform(0, 1500);
      std::string text;
      switch (i % 3) {
        case 0:
          text = "FIND GRAPH WHERE { ?a CONTAINS \"" + word +
                 "\" ; ?s IS REFERENT ; ?a ANNOTATES ?s ; ?s DOMAIN \"" + domain + "\" } LIMIT 10";
          break;
        case 1:
          text = "FIND CONTENTS WHERE { ?a CONTAINS \"" + word + "\" } LIMIT 20";
          break;
        default:
          text = "FIND REFERENTS WHERE { ?s TYPE interval ; ?s DOMAIN \"" + domain +
                 "\" ; ?s OVERLAPS [" + std::to_string(lo) + ", " + std::to_string(lo + 300) +
                 "] } LIMIT 20";
      }
      std::optional<QueryResult> r;
      {
        OpSpan op(c, "op.query");
        r = UserQuery(c, *g, text, ExecutorOptions{}, "reader", true);
      }
      if (!r) continue;
      // Hold the result and flip two pages: the pin keeps its version alive.
      for (size_t page = 2; page <= std::min<size_t>(3, r->total_pages); ++page) {
        OpSpan op(c, "op.page_flip");
        if (UserFlip(c, *g, &*r, page)) {
          c.report.Check(r->page == page && r->page_count > 0, "reader flip lands on its page");
        }
      }
      ReleaseResult(c, &r);
    }
  };

  // The annotator confirms every commit and remove with a keyword query and
  // keeps its last two confirmations open. Each pins the version its
  // mutation published, so every commit and remove finds the version it
  // would recycle pinned and clones the corpus. Left to the readers'
  // timing, runs settle into a cloning or a recycling mode, and the commit
  // median jumps between the two.
  auto annotator = [&](Client& c, Rng& rng, const std::atomic<bool>& stop) {
    std::deque<QueryResult> confirmations;
    auto confirm = [&](const std::string& token, std::optional<AnnotationId> expect_id) {
      OpSpan op(c, "op.verify");
      auto r = UserQuery(c, *g, "FIND CONTENTS WHERE { ?a CONTAINS \"" + token + "\" }",
                         ExecutorOptions{}, "verify", false);
      if (!r) return;
      bool ok = expect_id ? r->items.size() == 1 && r->items[0].content_id == *expect_id
                          : r->items.empty();
      c.report.Check(ok, (expect_id ? "commit found by its keyword " : "removed note gone: ") +
                             token);
      confirmations.push_back(std::move(*r));
      if (confirmations.size() > 2) confirmations.pop_front();
    };
    while (!stop.load()) {
      const std::string token = NoteToken(next_note++);
      AnnotationBuilder b = NoteBuilder(rng, flu, token);
      CountingEnv::Counters before = env.Snapshot();
      std::optional<AnnotationId> id;
      {
        OpSpan op(c, "op.commit");
        id = UserCommit(c, *g, b);
      }
      if (!id) continue;
      RecordWalTraffic(c, before, env.Snapshot());
      own.emplace_back(*id, token);
      confirm(token, *id);
      // Remove the oldest own note, so the corpus keeps its set-up size.
      if (own.size() > 1) {
        auto [old_id, old_token] = own.front();
        own.pop_front();
        bool removed = false;
        {
          OpSpan op(c, "op.remove");
          removed = UserRemove(c, *g, old_id);
        }
        if (removed) confirm(old_token, std::nullopt);
      }
    }
  };

  Rng annotator_rng(o.seed * 31 + 5);
  uint64_t reader_seed = o.seed * 1000003 + 17;
  auto window = [&](double seconds, bool traced) {
    WindowResult w;
    for (int id = 0; id < 3; ++id) w.clients.push_back(std::make_unique<Client>(id, traced, false));
    std::atomic<bool> stop{false};
    Clock::time_point start = Clock::now();
    {
      ThreadGroup group(&stop);
      group.threads.emplace_back([&] {
        Client& c = *w.clients[0];
        int64_t cpu0_ns = ThreadCpuNanos();
        annotator(c, annotator_rng, stop);
        c.cpu_s = static_cast<double>(ThreadCpuNanos() - cpu0_ns) / 1e9;
      });
      for (int id = 1; id < 3; ++id) {
        group.threads.emplace_back([&, id, seed = reader_seed++] {
          Client& c = *w.clients[id];
          int64_t cpu0_ns = ThreadCpuNanos();
          reader(c, seed, stop);
          c.cpu_s = static_cast<double>(ThreadCpuNanos() - cpu0_ns) / 1e9;
        });
      }
      std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    }
    w.elapsed_s = Elapsed(start);
    for (const auto& c : w.clients) w.window_ops += c->ops;
    return w;
  };

  std::map<std::string, Samples> layer;
  WindowResult w = RunWindows(o, window, &layer);
  Client probe(9, o.trace, true);
  probe.report.Check(g->ValidateIntegrity().ok(), "ValidateIntegrity after the annotate run");
  Rng rng(o.seed * 7919 + 7);
  if (o.trace) MeasureSubstrates(probe, *g, flu, rng);
  Finish(o, setup, &w, &probe, &layer, report);
  g.reset();
  fs::remove_all(dir);
}

// ------------------------------------------------------------ restart

// Flushes a copied directory so that the engine's own fsyncs, which are
// timed, do not also pay for writing back the copy.
void SyncTree(const std::string& dir) {
  graphitti::persist::Env* env = graphitti::persist::Env::Default();
  for (const auto& entry : fs::directory_iterator(dir)) {
    auto file = MustOk(env->NewWritableFile(entry.path().string(), /*truncate=*/false),
                       "reopen copied file");
    MustOk(file->Sync(), "sync copied file");
    MustOk(file->Close(), "close copied file");
  }
  MustOk(env->SyncDir(dir), "sync copied directory");
}

void RunRestart(const Options& o, Report* report) {
  const std::string pristine = o.data_dir + "/restart-pristine";
  const std::string work = o.data_dir + "/restart-work";
  SetupCost setup;
  InfluenzaCorpus flu;
  std::vector<Expected> expected;  // [0] is the first query after reopen
  std::string expected_stats;
  {
    fs::remove_all(pristine);
    setup.Start();
    auto g = MustOk(Graphitti::OpenDurable(pristine, GroupCommit(nullptr)), "OpenDurable");
    flu = MustOk(graphitti::core::GenerateInfluenzaStudy(g.get(), FluParams(o.seed, kRestartFlu)),
                 "influenza corpus");
    MustOk(g->Checkpoint(), "Checkpoint");
    Rng rng(o.seed * 131 + 7);
    for (size_t i = 0; i < kRestartTail; ++i) {
      MustOk(g->Commit(NoteBuilder(rng, flu, NoteToken(i))), "WAL tail commit");
    }
    setup.Stop();
    // Expected answers after a reopen, recorded before the engine closes:
    // a GRAPH keyword query for every keyword x segment domain pair.
    Rng qrng(o.seed * 977 + 1);
    for (const std::string& keyword : flu.keywords) {
      for (const std::string& domain : flu.segment_domains) {
        expected.push_back(RecordAnswer(
            *g,
            "FIND GRAPH WHERE { ?a CONTAINS \"" + keyword +
                "\" ; ?s IS REFERENT ; ?a ANNOTATES ?s ; ?s DOMAIN \"" + domain + "\" } LIMIT 10",
            ExecutorOptions{}));
      }
    }
    Shuffle(&expected, qrng);
    expected_stats = g->Stats().ToString();
  }
  const size_t pristine_annotations = kRestartFlu + kRestartTail;
  std::cout << "# restart: influenza " << kRestartFlu << " annotations checkpointed + "
            << kRestartTail << " in the WAL tail; 1 client; WAL group commit (sync every 10 ms)\n"
            << "# pristine snapshot+WAL bytes per annotation: "
            << static_cast<double>(DirBytes(pristine)) / static_cast<double>(pristine_annotations)
            << "\n";

  CountingEnv env;
  Samples open_ms, first_ms, checkpoint_ms;  // of the last window
  auto window = [&](double seconds, bool traced) {
    WindowResult w;
    w.clients.push_back(std::make_unique<Client>(0, traced, true));
    Client& c = *w.clients[0];
    open_ms = first_ms = checkpoint_ms = Samples();
    // Copying the pristine directory and closing the engine are not part
    // of the cycle.
    double excluded_s = 0;
    double excluded_cpu_s = 0;
    uint64_t iteration = 0;
    Clock::time_point start = Clock::now();
    int64_t cpu0_ns = ThreadCpuNanos();
    while (Elapsed(start) - excluded_s < seconds) {
      Stopwatch copy;
      fs::remove_all(work);
      fs::copy(pristine, work, fs::copy_options::recursive);
      SyncTree(work);
      excluded_s += copy.WallMicros() / 1e6;
      excluded_cpu_s += copy.CpuMicros() / 1e6;

      DurabilityOptions durability = GroupCommit(&env);
      CountingEnv::Counters before = env.Snapshot();
      std::unique_ptr<Graphitti> g;
      {
        OpSpan op(c, "op.open");
        ++c.report.attempted;
        Stopwatch sw;
        auto opened = [&] {
          ScopedSpan span(c.trace(), "core.open");
          return Graphitti::OpenDurable(work, durability);
        }();
        if (!opened.ok()) {
          c.report.Fail("OpenDurable: " + opened.status().ToString());
          break;
        }
        g = std::move(opened).ValueUnsafe();
        double ms = CpuMillis(sw);
        open_ms.Add(ms);
        ++c.ops;
        c.Layer("core.open_ms", ms);
        c.Layer("persist.open_read_bytes",
                static_cast<double>(env.Snapshot().read_bytes - before.read_bytes));
      }
      double first = 0;
      {
        OpSpan op(c, "op.first_query");
        Stopwatch sw;
        auto r = UserQuery(c, *g, expected[0].text, ExecutorOptions{}, "first", false);
        first = CpuMillis(sw);
        c.report.Check(r && FingerprintItems(*r) == expected[0].items,
                       "first query after reopen equals the answer before close");
      }
      first_ms.Add(first);
      c.Layer("core.first_query_ms", first);
      c.report.Check(g->Stats().ToString() == expected_stats, "Stats() after reopen equal");

      // Browse the reopened engine: every expected query once, warm, with
      // flips to pages 2-4. The first one repeats the first query.
      for (const Expected& e : expected) {
        std::optional<QueryResult> r;
        {
          OpSpan op(c, "op.query");
          Stopwatch sw;
          r = UserQuery(c, *g, e.text, ExecutorOptions{}, "warm", true);
          if (&e == &expected[0]) c.Layer("core.hydrate_ms", first - CpuMillis(sw));
          c.report.Check(r && FingerprintItems(*r) == e.items, "answer after reopen: " + e.text);
        }
        for (size_t page = 2; r && page < e.pages.size(); ++page) {
          OpSpan op(c, "op.page_flip");
          if (UserFlip(c, *g, &*r, page)) {
            c.report.Check(FingerprintPage(*r) == e.pages[page], "page after reopen: " + e.text);
          }
        }
        ReleaseResult(c, &r);
      }

      Rng rng(o.seed * 613 + iteration++);
      std::vector<std::pair<std::string, AnnotationId>> notes;
      for (size_t i = 0; i < kRestartCommits; ++i) {
        std::string token = NoteToken(kRestartTail + i);
        CountingEnv::Counters pre = env.Snapshot();
        std::optional<AnnotationId> id;
        {
          OpSpan op(c, "op.commit");
          id = UserCommit(c, *g, NoteBuilder(rng, flu, token));
        }
        if (!id) continue;
        RecordWalTraffic(c, pre, env.Snapshot());
        notes.emplace_back(token, *id);
      }

      {
        OpSpan op(c, "op.checkpoint");
        ++c.report.attempted;
        CountingEnv::Counters pre = env.Snapshot();
        Stopwatch sw;
        auto status = [&] {
          ScopedSpan span(c.trace(), "core.checkpoint");
          return g->Checkpoint();
        }();
        double ms = CpuMillis(sw);
        if (!status.ok()) {
          c.report.Fail("Checkpoint: " + status.ToString());
          break;
        }
        ++c.ops;
        checkpoint_ms.Add(ms);
        c.Layer("core.checkpoint_ms", ms);
        uint64_t written = env.Snapshot().appended_bytes - pre.appended_bytes;
        uint64_t on_disk = DirBytes(work);
        c.Layer("persist.checkpoint_write_bytes", static_cast<double>(written));
        c.Layer("persist.disk_bytes_per_annotation",
                static_cast<double>(on_disk) / static_cast<double>(g->Stats().num_annotations));
        c.report.Check(on_disk == written,
                       "directory size after Checkpoint equals the bytes the Env counted");
      }
      for (const auto& [token, id] : notes) {
        auto found = g->Query("FIND CONTENTS WHERE { ?a CONTAINS \"" + token + "\" }");
        c.report.Check(found.ok() && found->items.size() == 1 &&
                           found->items[0].content_id == id,
                       "commit after reopen found by its keyword " + token);
      }
      Stopwatch close;
      g.reset();
      excluded_s += close.WallMicros() / 1e6;
      excluded_cpu_s += close.CpuMicros() / 1e6;
    }
    w.elapsed_s = Elapsed(start) - excluded_s;
    c.cpu_s = static_cast<double>(ThreadCpuNanos() - cpu0_ns) / 1e9 - excluded_cpu_s;
    w.window_ops = c.ops;
    return w;
  };

  std::map<std::string, Samples> layer;
  WindowResult w = RunWindows(o, window, &layer);
  PrintLatency("open cpu", open_ms, "ms", 1);
  PrintLatency("first_query cpu", first_ms, "ms", 1);
  PrintLatency("checkpoint cpu", checkpoint_ms, "ms", 1);
  Client probe(9, o.trace, true);
  if (o.trace) {
    auto g = MustOk(Graphitti::OpenDurable(pristine), "OpenDurable");
    MustOk(g->Query(expected[0].text), "hydrate before cloning");
    Rng rng(o.seed * 7919 + 11);
    MeasureSubstrates(probe, *g, flu, rng);
  }
  Finish(o, setup, &w, &probe, &layer, report);
  fs::remove_all(work);
  fs::remove_all(pristine);
}

}  // namespace

bool IsWorkload(const std::string& name) {
  return name == "browse" || name == "annotate" || name == "restart";
}

void RunWorkload(const Options& options, Report* report) {
  if (options.workload == "browse") {
    RunBrowse(options, report);
  } else if (options.workload == "annotate") {
    RunAnnotate(options, report);
  } else {
    RunRestart(options, report);
  }
}

}  // namespace perfbench
