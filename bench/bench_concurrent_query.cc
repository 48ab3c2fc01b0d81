// Concurrent query throughput: the multi-core numbers in the BENCH
// trajectory. Measures fig-3-style read throughput at 1/2/4/8 reader
// threads against one shared engine, (a) read-only and (b) while one
// writer thread continuously commits and removes annotations. Readers pin
// an engine version for the duration of each query (epoch-pinned
// copy-on-write publication); writers build the next version off to the
// side and publish it with a pointer swing, so neither side ever blocks
// the other.
//
// The read-only series is the scaling baseline: the per-thread traversal
// scratch and connect pools make const-graph queries embarrassingly
// parallel, so throughput should scale near-linearly until memory
// bandwidth. The with-writer series shows what a sustained annotation
// stream costs the query tab; its per-iteration p99 latency counter
// (p99_us, averaged across reader threads) against the read-only p99 is
// the churn tail-latency picture — under epoch pinning the two should be
// within a small constant of each other, where a reader-writer gate would
// let each commit stall every in-flight reader.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <thread>
#include <string>
#include <vector>

#include "core/graphitti.h"
#include "core/workload.h"

namespace {

using graphitti::annotation::AnnotationBuilder;
using graphitti::core::GenerateInfluenzaStudy;
using graphitti::core::Graphitti;
using graphitti::core::InfluenzaParams;
using graphitti::relational::Value;
using graphitti::util::Rng;

// One shared engine for every benchmark in this binary (threads hammer the
// same instance — that is the point). Magic-static init is thread-safe.
Graphitti& SharedInstance() {
  static Graphitti* engine = [] {
    auto* g = new Graphitti();
    InfluenzaParams params;
    params.num_annotations = 2000;
    params.protease_fraction = 0.15;
    if (!GenerateInfluenzaStudy(g, params).ok()) std::abort();
    return g;
  }();
  return *engine;
}

// One reader iteration: a keyword CONTENTS query plus a spatial REFERENTS
// window — the query-formulation panel's two common conditions.
size_t RunReaderQueries(Graphitti& g, Rng* rng) {
  size_t items = 0;
  auto contents = g.Query("FIND CONTENTS WHERE { ?a CONTAINS \"protease\" }");
  if (contents.ok()) items += contents->items.size();
  int64_t lo = rng->Uniform(0, 1500);
  auto referents = g.Query(
      "FIND REFERENTS WHERE { ?s TYPE interval ; ?s DOMAIN \"flu:seg" +
      std::to_string(rng->Uniform(0, 7)) + "\" ; ?s OVERLAPS [" + std::to_string(lo) +
      ", " + std::to_string(lo + 300) + "] }");
  if (referents.ok()) items += referents->items.size();
  return items;
}

// Per-iteration latency tail. Each reader thread records every iteration's
// wall time and reports its own p99; the counter averages across threads
// (kAvgThreads), giving the mean per-thread p99 for the run.
double P99Micros(std::vector<double>& lat_us) {
  if (lat_us.empty()) return 0.0;
  size_t idx = std::min(lat_us.size() - 1, (lat_us.size() * 99) / 100);
  std::nth_element(lat_us.begin(), lat_us.begin() + static_cast<ptrdiff_t>(idx),
                   lat_us.end());
  return lat_us[idx];
}

// One writer iteration: commit an annotation marking two fresh intervals in
// a writer-private domain, then remove it — both sides of the exclusive
// gate, with the corpus size held steady.
void RunWriterCycle(Graphitti& g, uint64_t cycle) {
  int64_t base = static_cast<int64_t>((cycle % 100000) * 16);
  AnnotationBuilder b;
  b.Title("writer-churn " + std::to_string(cycle))
      .Creator("bench-writer")
      .Body("transient churn annotation")
      .MarkInterval("bench:churn", base, base + 5)
      .MarkInterval("bench:churn", base + 6, base + 11);
  auto id = g.Commit(b);
  if (id.ok()) (void)g.RemoveAnnotation(*id);
}

// Read-only scaling: every thread is a reader.
void BM_ConcurrentQuery_ReadOnly(benchmark::State& state) {
  Graphitti& g = SharedInstance();
  Rng rng(1000 + static_cast<uint64_t>(state.thread_index()));
  size_t items = 0;
  std::vector<double> lat_us;
  for (auto _ : state) {
    auto t0 = std::chrono::steady_clock::now();
    items += RunReaderQueries(g, &rng);
    lat_us.push_back(std::chrono::duration<double, std::micro>(
                         std::chrono::steady_clock::now() - t0)
                         .count());
  }
  benchmark::DoNotOptimize(items);
  state.SetItemsProcessed(state.iterations() * 2);  // two queries per iter
  state.counters["reader_threads"] = static_cast<double>(state.threads());
  state.counters["p99_us"] =
      benchmark::Counter(P99Micros(lat_us), benchmark::Counter::kAvgThreads);
}
BENCHMARK(BM_ConcurrentQuery_ReadOnly)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

// Readers with one concurrent writer. Every benchmark thread is a reader;
// a dedicated background std::thread churns commit/remove cycles for the
// whole measurement window (benchmark threads start together, so the
// writer covers the readers' timed region), making WithWriter/threads:N
// directly comparable to ReadOnly/threads:N.
void BM_ConcurrentQuery_WithWriter(benchmark::State& state) {
  Graphitti& g = SharedInstance();
  static std::atomic<int> active_readers{0};
  static std::atomic<bool> stop_writer{false};
  static std::unique_ptr<std::thread> writer;
  // Pre-loop code on every thread finishes before any thread starts
  // iterating (benchmark threads synchronize on a start barrier at the
  // top of the state loop), so the reader count and the writer are in
  // place before the first timed iteration.
  active_readers.fetch_add(1, std::memory_order_acq_rel);
  if (state.thread_index() == 0) {
    stop_writer.store(false, std::memory_order_release);
    writer = std::make_unique<std::thread>([&g] {
      uint64_t cycle = uint64_t{1} << 32;
      while (!stop_writer.load(std::memory_order_acquire)) {
        RunWriterCycle(g, cycle++);
      }
    });
  }
  Rng rng(2000 + static_cast<uint64_t>(state.thread_index()));
  size_t items = 0;
  std::vector<double> lat_us;
  for (auto _ : state) {
    auto t0 = std::chrono::steady_clock::now();
    items += RunReaderQueries(g, &rng);
    lat_us.push_back(std::chrono::duration<double, std::micro>(
                         std::chrono::steady_clock::now() - t0)
                         .count());
  }
  benchmark::DoNotOptimize(items);
  // The writer must churn until the LAST reader finishes its timed loop,
  // not just thread 0 — otherwise the tail of the other readers'
  // measurement would run writer-free and overstate their throughput.
  active_readers.fetch_sub(1, std::memory_order_acq_rel);
  if (state.thread_index() == 0) {
    while (active_readers.load(std::memory_order_acquire) > 0) {
      std::this_thread::yield();
    }
    stop_writer.store(true, std::memory_order_release);
    writer->join();
    writer.reset();
  }
  state.SetItemsProcessed(state.iterations() * 2);  // two queries per iter
  state.counters["reader_threads"] = static_cast<double>(state.threads());
  state.counters["p99_us"] =
      benchmark::Counter(P99Micros(lat_us), benchmark::Counter::kAvgThreads);
}
BENCHMARK(BM_ConcurrentQuery_WithWriter)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

// Writer-only baseline: the exclusive side with no reader contention, for
// reading the with-writer numbers (how much commit/remove throughput the
// churn thread is even capable of).
void BM_ConcurrentQuery_WriterOnly(benchmark::State& state) {
  Graphitti& g = SharedInstance();
  uint64_t cycle = uint64_t{1} << 48;
  for (auto _ : state) {
    RunWriterCycle(g, cycle++);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ConcurrentQuery_WriterOnly)->Unit(benchmark::kMicrosecond);

// Commit cost with and without a held result, per corpus size. A result
// pins the version it was computed from, which is the documented usage
// (page flips answer from that snapshot); the ROADMAP target is that this
// does not change what a commit costs. In the held-pin series a reader
// re-queries before every commit and holds the result through it, so the
// version each commit supersedes is always pinned (as in a browsing loop
// under write churn). Only the committing call is timed (the query and the
// RemoveAnnotation that keeps the corpus size steady are not); p50_us is
// the median commit.
struct StudyCorpus {
  std::unique_ptr<Graphitti> engine;
  graphitti::core::InfluenzaCorpus corpus;
};

StudyCorpus& CorpusOfSize(size_t annotations) {
  static std::map<size_t, StudyCorpus> corpora;
  StudyCorpus& c = corpora[annotations];
  if (c.engine == nullptr) {
    c.engine = std::make_unique<Graphitti>();
    InfluenzaParams params;
    params.num_annotations = annotations;
    params.protease_fraction = 0.15;
    auto corpus = GenerateInfluenzaStudy(c.engine.get(), params);
    if (!corpus.ok()) std::abort();
    c.corpus = std::move(*corpus);
  }
  return c;
}

// Times `op` (which returns the id of what it committed, or an error) once
// per iteration, with a fresh held result first when `hold_pin`; `undo`
// runs untimed after each op.
template <typename Op, typename Undo>
void RunTimedCommits(benchmark::State& state, Graphitti& g, bool hold_pin, Op op, Undo undo) {
  graphitti::util::Result<graphitti::query::QueryResult> held =
      graphitti::util::Status::NotFound("no result held");
  uint64_t cycle = uint64_t{1} << 40;
  std::vector<double> lat_us;
  size_t pinned = 0;
  for (auto _ : state) {
    if (hold_pin) {
      // A cheap query, so the timed commit measures the pin, not the
      // allocator churn of a large result freed just before it.
      held = g.Query("FIND COUNT ?a WHERE { ?a CONTAINS \"unmatchedprobe\" }");
      if (held.ok()) ++pinned;
    }
    auto t0 = std::chrono::steady_clock::now();
    auto id = op(cycle++);
    double us = std::chrono::duration<double, std::micro>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    benchmark::DoNotOptimize(id);
    state.SetIterationTime(us / 1e6);
    lat_us.push_back(us);
    if (id.ok()) undo(*id);
  }
  std::sort(lat_us.begin(), lat_us.end());
  state.counters["p50_us"] = lat_us.empty() ? 0.0 : lat_us[lat_us.size() / 2];
  state.counters["held_pins"] = static_cast<double>(pinned);
}

// A probe annotation on an object-less domain: touches no hub node.
void RunCommitBench(benchmark::State& state, bool hold_pin) {
  Graphitti& g = *CorpusOfSize(static_cast<size_t>(state.range(0))).engine;
  RunTimedCommits(
      state, g, hold_pin,
      [&](uint64_t cycle) {
        int64_t base = static_cast<int64_t>((cycle % 100000) * 16);
        AnnotationBuilder b;
        b.Title("commit-bench " + std::to_string(cycle))
            .Creator("bench-writer")
            .Body("commit cost probe")
            .MarkInterval("bench:commit", base, base + 5);
        return g.Commit(b);
      },
      [&](uint64_t id) { (void)g.RemoveAnnotation(id); });
}

void BM_Commit_HeldPin(benchmark::State& state) { RunCommitBench(state, true); }
void BM_Commit_Unpinned(benchmark::State& state) { RunCommitBench(state, false); }
BENCHMARK(BM_Commit_HeldPin)
    ->Arg(2000)
    ->Arg(20000)
    ->Arg(50000)
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Commit_Unpinned)
    ->Arg(2000)
    ->Arg(20000)
    ->Arg(50000)
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond);

// A probe annotation that adds edges to the corpus's busiest a-graph
// nodes: a fresh node-set referent on the shared interaction-graph object
// (in-degree ~0.3 x annotations) and a reference to one ontology term
// (~0.05 x annotations). Commit cost must not grow with those degrees.
void RunHubCommitBench(benchmark::State& state, bool hold_pin) {
  StudyCorpus& c = CorpusOfSize(static_cast<size_t>(state.range(0)));
  Graphitti& g = *c.engine;
  const uint64_t hub = c.corpus.interaction_object;
  RunTimedCommits(
      state, g, hold_pin,
      [&](uint64_t cycle) {
        AnnotationBuilder b;
        b.Title("hub-commit-bench " + std::to_string(cycle))
            .Creator("bench-writer")
            .Body("hub commit cost probe")
            .MarkNodeSet("flu_interactions", {1000 + cycle % 100000}, hub)
            .OntologyReference("flu", "FLU:1");
        return g.Commit(b);
      },
      [&](uint64_t id) { (void)g.RemoveAnnotation(id); });
}

void BM_CommitToHub_HeldPin(benchmark::State& state) { RunHubCommitBench(state, true); }
void BM_CommitToHub_Unpinned(benchmark::State& state) { RunHubCommitBench(state, false); }
BENCHMARK(BM_CommitToHub_HeldPin)
    ->Arg(2000)
    ->Arg(50000)
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_CommitToHub_Unpinned)
    ->Arg(2000)
    ->Arg(50000)
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond);

// A row insert into a user table with an ordered index over a random key,
// per table size (rows are not removed, so a run adds its iteration count
// to the table; the iteration count is fixed to keep sizes comparable).
Graphitti& OrderedTableOfSize(size_t rows) {
  static std::map<size_t, std::unique_ptr<Graphitti>> engines;
  std::unique_ptr<Graphitti>& g = engines[rows];
  if (g == nullptr) {
    g = std::make_unique<Graphitti>();
    auto table = g->CreateTable(
        "measurements", graphitti::relational::SchemaBuilder().Int("k").Str("note").Build());
    if (!table.ok() ||
        !(*table)->CreateIndex("k", graphitti::relational::IndexKind::kOrdered).ok()) {
      std::abort();
    }
    Rng rng(77);
    for (size_t i = 0; i < rows; ++i) {
      graphitti::relational::Row row = {Value::Int(rng.Uniform(0, 1 << 30)),
                                        Value::Str("seed row")};
      if (!g->IngestRecord("measurements", std::move(row)).ok()) std::abort();
    }
  }
  return *g;
}

void RunOrderedInsertBench(benchmark::State& state, bool hold_pin) {
  Graphitti& g = OrderedTableOfSize(static_cast<size_t>(state.range(0)));
  Rng rng(78 + static_cast<uint64_t>(hold_pin));
  RunTimedCommits(
      state, g, hold_pin,
      [&](uint64_t) {
        graphitti::relational::Row row = {Value::Int(rng.Uniform(0, 1 << 30)),
                                          Value::Str("probe row")};
        return g.IngestRecord("measurements", std::move(row));
      },
      [](uint64_t) {});
}

void BM_OrderedIndexInsert_HeldPin(benchmark::State& state) {
  RunOrderedInsertBench(state, true);
}
void BM_OrderedIndexInsert_Unpinned(benchmark::State& state) {
  RunOrderedInsertBench(state, false);
}
BENCHMARK(BM_OrderedIndexInsert_HeldPin)
    ->Arg(2000)
    ->Arg(50000)
    ->Iterations(3000)
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_OrderedIndexInsert_Unpinned)
    ->Arg(2000)
    ->Arg(50000)
    ->Iterations(3000)
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond);

}  // namespace
