// Query results: heterogeneous substructure collections, XML fragments, or
// connection subgraphs — organized in pages (§II/III).
//
// GRAPH targets are paged lazily: `items` holds one lightweight row handle
// (the row's sorted distinct terminal nodes) per distinct binding row, and
// the connection subgraphs themselves are only materialized — via
// Executor::MaterializePage, batched through agraph::ConnectBatch — for the
// rows of the requested page. The paper's §III presents connection
// subgraphs as the paged presentation layer over binding rows; building
// 100k Steiner subgraphs to show page 1 of 100k rows violated exactly that.
#ifndef GRAPHITTI_QUERY_RESULT_H_
#define GRAPHITTI_QUERY_RESULT_H_

#include <memory>
#include <string>
#include <vector>

#include "agraph/agraph.h"
#include "annotation/annotation.h"
#include "query/ast.h"
#include "substructure/substructure.h"
#include "util/epoch.h"

namespace graphitti {
namespace query {

/// One result item; the populated fields depend on the query target.
struct ResultItem {
  // kContents / kFragments
  annotation::AnnotationId content_id = 0;
  // kReferents
  annotation::ReferentId referent_id = 0;
  substructure::Substructure substructure;
  // kFragments
  std::string fragment;
  // kGraph: the row handle — sorted distinct terminal nodes of the binding
  // row. Always populated at collation time; cheap to carry per row.
  std::vector<agraph::NodeRef> terminals;
  // kGraph: the row's type-extended connection subgraph. Empty until the
  // item's page is materialized (subgraph_ready distinguishes "not yet
  // materialized" from "materialized but disconnected").
  agraph::SubGraph subgraph;
  bool subgraph_ready = false;
  // kCount
  size_t count = 0;
  /// Display label (annotation title, substructure description, ...).
  std::string label;
};

/// Why an execution finished (governance observability: a row-budget,
/// deadline, memory-budget, or cancellation abort must be distinguishable
/// from natural completion — ExecutionStats::stop_reason + Explain report
/// it, and the executor maps each to its status code).
enum class StopReason {
  kCompleted = 0,   // ran to the end
  kRowLimit,        // max_intermediate_rows exceeded (kOutOfRange)
  kDeadline,        // ExecutorOptions::deadline expired (kDeadlineExceeded)
  kMemoryBudget,    // memory_budget_bytes exceeded (kResourceExhausted)
  kCancelled,       // CancellationToken fired (kCancelled)
};

inline const char* StopReasonName(StopReason r) {
  switch (r) {
    case StopReason::kCompleted:
      return "completed";
    case StopReason::kRowLimit:
      return "row-limit";
    case StopReason::kDeadline:
      return "deadline";
    case StopReason::kMemoryBudget:
      return "memory-budget";
    case StopReason::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

/// How the executor ran the query (exposed for tests and the ordering
/// ablation benchmark).
struct ExecutionStats {
  /// Variables in the order they were bound ("feasible order", §II).
  std::vector<std::string> binding_order;
  /// Candidate-set size per variable, keyed like binding_order.
  std::vector<size_t> candidate_counts;
  /// Intermediate binding rows materialized across all joins.
  size_t rows_examined = 0;
  /// Final (pre-paging) result item count.
  size_t items_produced = 0;
  /// Largest single join level (columnar binding-table width peak).
  size_t peak_rows = 0;
  /// Running maximum of the bytes held by the columnar binding table
  /// across join levels (values + parent links across all columns).
  size_t peak_bytes = 0;
  /// Connection subgraphs materialized so far — grows with each
  /// MaterializePage call, and stays proportional to the pages actually
  /// viewed, not to the result size.
  size_t subgraphs_materialized = 0;
  /// Per-terminal BFS trees built by batched connects across all
  /// MaterializePage calls.
  size_t connect_trees_built = 0;
  /// Bytes of tree storage held by the result's ConnectBatch (see
  /// agraph::ConnectBatch::tree_bytes) after the latest MaterializePage:
  /// what a held GRAPH result costs in memory until it is released.
  size_t connect_tree_bytes = 0;
  /// Why execution stopped (see StopReason). Anything but kCompleted means
  /// the query aborted early and any results are partial.
  StopReason stop_reason = StopReason::kCompleted;
};

struct QueryResult {
  Target target = Target::kContents;
  /// All items, pre-paging. For kGraph these are row handles; see
  /// ResultItem::terminals / subgraph_ready.
  std::vector<ResultItem> items;
  /// Current page, 1-based; 0 when the result is empty (no pages exist).
  size_t page = 0;
  size_t page_size = 0;
  /// Number of pages; 0 when `items` is empty.
  size_t total_pages = 0;
  /// The current page as an index range over `items` (replaces the old
  /// `page_items` deep copy; see Page()).
  size_t page_first = 0;
  size_t page_count = 0;
  ExecutionStats stats;
  /// Pin on the engine version this result was computed from (set by
  /// core::Graphitti::Query; empty for hand-wired QueryContexts). Keeps
  /// every pointer the result borrows — NodeRefs, substructure views, and
  /// the graph behind `connect_batch` — alive and frozen for the result's
  /// lifetime, regardless of commits that land after the query returns.
  util::EpochPin snapshot;
  /// Batched-connect state reused across MaterializePage flips: the
  /// per-terminal BFS trees built for one page survive into the next, so
  /// revisiting a page (or sharing terminals across pages) never rebuilds
  /// them. Borrows the same graph `snapshot` pins; reset automatically if
  /// a flip sees a different graph.
  std::shared_ptr<agraph::ConnectBatch> connect_batch;

  /// Borrowed, iterable view of the current page's slice of `items`.
  /// Invalidated by anything that mutates `items`.
  struct PageView {
    const ResultItem* first = nullptr;
    size_t count = 0;
    const ResultItem* begin() const { return first; }
    const ResultItem* end() const { return first + count; }
    size_t size() const { return count; }
    bool empty() const { return count == 0; }
    const ResultItem& operator[](size_t i) const { return first[i]; }
  };
  PageView Page() const { return {items.data() + page_first, page_count}; }
};

}  // namespace query
}  // namespace graphitti

#endif  // GRAPHITTI_QUERY_RESULT_H_
