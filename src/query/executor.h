// Query executor: "separating subqueries that belong to the different types
// of data elements, finding a feasible order among these subqueries, and
// collating partial results from these subqueries into a set of
// type-extended connection subgraphs" (§II).
//
// Thread-safety contract. An Executor is a cheap, stateless view over a
// QueryContext: every method below is const and reads the borrowed
// substrates without mutating them, so any number of Executors (or calls
// on one Executor) may run concurrently on different threads AS LONG AS
// the substrates behind the context stay immutable for the duration of
// each call. The executor performs no synchronization of its own — when
// the context is borrowed from a core::Graphitti, the facade's epoch-
// pinned snapshots provide that immutability (Query / MaterializePage pin
// the engine version they read; writers publish new versions off to the
// side and never mutate a pinned one; see core/graphitti.h and
// util/epoch.h). Callers wiring a QueryContext by hand own that
// guarantee themselves.
//
// Read-side caches and where they live (the const-safety audit):
//   - per-execution state (sorted candidate vectors, join-domain memos,
//     CONNECTED reachability cache, binding table) is local to each
//     Execute call; parallel join workers keep their own memos and only
//     read the candidate vectors;
//   - per-thread state (a-graph TraversalScratch, ConnectBatch tree/state
//     pools) is thread_local inside src/agraph — concurrent readers never
//     share it;
//   - store-resident read-acceleration state (keyword postings, the
//     phrase-search lowercase text, per-domain referent index) is built
//     at Commit/Remove time, on the writer's exclusive side — the read
//     path never lazily populates store state.
#ifndef GRAPHITTI_QUERY_EXECUTOR_H_
#define GRAPHITTI_QUERY_EXECUTOR_H_

#include <string>

#include "query/ast.h"
#include "query/context.h"
#include "query/result.h"
#include "util/governance.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace graphitti {
namespace query {

struct ExecutorOptions {
  /// Order subqueries by estimated selectivity (candidate-set size). When
  /// false, variables are bound in declaration order — the naive baseline
  /// for the ordering ablation (bench_query_optimizer).
  bool use_selectivity_order = true;
  /// Abort with OutOfRange when the intermediate binding table exceeds this.
  size_t max_intermediate_rows = 1u << 20;
  /// Hop bound used for CONNECTED clauses without an explicit bound.
  size_t default_connected_hops = 6;
  /// Intra-query parallelism: total workers (including the calling thread)
  /// used to partition candidate filtering, join row ranges, and batched-
  /// connect tree expansion. 1 = fully serial. Results are bit-identical
  /// across worker counts — parallel chunks merge in deterministic order.
  size_t workers = 1;
  /// Pool supplying helper threads when workers > 1. nullptr falls back to
  /// the process-wide util::ThreadPool::Shared().
  util::ThreadPool* pool = nullptr;
  /// Wall-clock budget. When it expires mid-execution the query aborts
  /// cooperatively with kDeadlineExceeded (stats.stop_reason records where);
  /// the default is infinite. Checks are amortized (~one clock read per
  /// 1024 loop iterations), so expiry is detected promptly but not exactly.
  util::Deadline deadline;
  /// Cooperative cancellation; RequestCancel() from any thread makes the
  /// query abort with kCancelled at its next check.
  util::CancellationToken cancel;
  /// Byte budget for the columnar binding table (values + parent links
  /// across all columns). 0 = unlimited. Exceeding it aborts the join with
  /// kResourceExhausted.
  size_t memory_budget_bytes = 0;
};

class Executor {
 public:
  explicit Executor(QueryContext context, ExecutorOptions options = {})
      : ctx_(context), options_(options) {}

  /// Parses and executes `query_text`.
  util::Result<QueryResult> ExecuteText(std::string_view query_text) const;

  /// Executes a parsed query. The requested page is materialized before
  /// returning (GRAPH subgraphs are built for that page only); flip to
  /// another page with MaterializePage.
  util::Result<QueryResult> Execute(const Query& query) const;

  /// Repositions `result` on `page` (1-based; 0 is clamped to 1, overflow
  /// clamps to the last page; an empty result has no pages and stays on
  /// page 0) and, for GRAPH targets, materializes the page's connection
  /// subgraphs from their terminal row handles through one batched connect
  /// — per-terminal BFS trees are shared across the page's rows, and the
  /// batch itself is cached on the result (QueryResult::connect_batch), so
  /// trees also survive from flip to flip. Already materialized items are
  /// never rebuilt, so flipping pages is idempotent and page N's subgraphs
  /// are identical whether or not other pages were materialized first.
  ///
  /// Concurrency: through core::Graphitti the result pins the engine
  /// version the query ran against (QueryResult::snapshot), so every flip
  /// — no matter how much later, or how many commits have landed since —
  /// materializes from that same frozen version. `result` itself is
  /// caller-owned: two threads must not flip the same QueryResult at once.
  util::Status MaterializePage(QueryResult* result, size_t page) const;

  /// Executes the query and renders its plan — the typed subqueries, the
  /// feasible order chosen, per-variable candidate counts and join sizes —
  /// as human-readable text (the §II "separating subqueries / feasible
  /// order" pipeline made visible).
  util::Result<std::string> Explain(const Query& query) const;
  util::Result<std::string> ExplainText(std::string_view query_text) const;

 private:
  /// Runs the full pipeline into *result, always recording
  /// result->stats.stop_reason. Governance stops (deadline, cancellation,
  /// row limit, memory budget) return OK with the partial result; only
  /// hard errors (parse/type/plan) return non-OK. Execute() maps a non-
  /// kCompleted stop_reason onto its status code; Explain() renders the
  /// partial plan instead.
  util::Status ExecuteInto(const Query& query, QueryResult* result) const;

  QueryContext ctx_;
  ExecutorOptions options_;
};

}  // namespace query
}  // namespace graphitti

#endif  // GRAPHITTI_QUERY_EXECUTOR_H_
