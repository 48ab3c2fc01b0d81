#include "query/executor.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "query/binding_table.h"
#include "query/parser.h"
#include "substructure/operators.h"
#include "util/dense_set.h"
#include "xml/xpath.h"

namespace graphitti {
namespace query {

namespace {

using agraph::NodeKind;
using agraph::NodeRef;
using agraph::NodeRefHash;
using annotation::AnnotationId;
using annotation::ReferentId;
using util::Result;
using util::Status;

/// Per-variable compiled info. Constrained variables stream their
/// candidates into `streamed` (sorted + deduplicated), which also answers
/// join membership by binary search. Unconstrained variables (no single-var
/// filters) skip enumeration entirely — membership is a kind check against
/// the a-graph, the count comes from the owning store, and `streamed` is
/// materialized lazily only for cartesian extension.
struct VarInfo {
  std::string name;
  size_t declaration_index = 0;  // first clause mentioning it
  VarKind kind = VarKind::kAny;
  std::vector<const Clause*> filters;  // single-var clauses
  bool unconstrained = false;
  size_t candidate_count = 0;
  std::vector<NodeRef> streamed;  // sorted unique candidates (when enumerated)
  bool streamed_ready = false;
};

/// Pairwise constraint predicate between two bound variables.
struct PairPredicate {
  enum class Kind { kBefore, kDisjoint, kOverlapping, kSameDomain };
  Kind kind;
  std::string var_a;
  std::string var_b;
};

/// Edge clause between two variables, normalized.
struct EdgeInfo {
  const Clause* clause;
  std::string var_a;  // clause->var
  std::string var_b;  // clause->var2
  std::string label;  // a-graph edge label ("" for CONNECTED)
};

std::string_view EdgeLabelFor(Clause::Kind kind) {
  switch (kind) {
    case Clause::Kind::kAnnotates:
      return annotation::kEdgeAnnotates;
    case Clause::Kind::kRefersTo:
      return annotation::kEdgeRefersTo;
    case Clause::Kind::kOfObject:
      return annotation::kEdgeOfObject;
    default:
      return "";
  }
}

/// Expected kinds induced by each clause, for inference/validation.
struct KindExpectation {
  VarKind subject = VarKind::kAny;
  VarKind object = VarKind::kAny;
};

KindExpectation ExpectationFor(const Clause& c) {
  switch (c.kind) {
    case Clause::Kind::kIs:
      return {c.is_kind, VarKind::kAny};
    case Clause::Kind::kContains:
    case Clause::Kind::kXPath:
    case Clause::Kind::kCreator:
      return {VarKind::kContent, VarKind::kAny};
    case Clause::Kind::kType:
    case Clause::Kind::kDomain:
    case Clause::Kind::kOverlaps:
    case Clause::Kind::kContainedIn:
      return {VarKind::kReferent, VarKind::kAny};
    case Clause::Kind::kTerm:
    case Clause::Kind::kTermBelow:
      return {VarKind::kTerm, VarKind::kAny};
    case Clause::Kind::kTable:
      return {VarKind::kObject, VarKind::kAny};
    case Clause::Kind::kAnnotates:
      return {VarKind::kContent, VarKind::kReferent};
    case Clause::Kind::kRefersTo:
      return {VarKind::kContent, VarKind::kTerm};
    case Clause::Kind::kOfObject:
      return {VarKind::kReferent, VarKind::kObject};
    case Clause::Kind::kConnected:
      return {VarKind::kAny, VarKind::kAny};
  }
  return {};
}

Status MergeKind(VarInfo* info, VarKind kind) {
  if (kind == VarKind::kAny) return Status::OK();
  if (info->kind == VarKind::kAny) {
    info->kind = kind;
    return Status::OK();
  }
  if (info->kind != kind) {
    return Status::TypeError("variable ?" + info->name + " used with conflicting kinds");
  }
  return Status::OK();
}

NodeKind ToNodeKind(VarKind kind) {
  switch (kind) {
    case VarKind::kContent:
      return NodeKind::kContent;
    case VarKind::kReferent:
      return NodeKind::kReferent;
    case VarKind::kTerm:
      return NodeKind::kOntologyTerm;
    case VarKind::kObject:
      return NodeKind::kDataObject;
    case VarKind::kAny:
      break;
  }
  return NodeKind::kContent;  // unreachable: kinds are resolved before use
}

/// Shared governance stop flag for one execution. Holds a StopReason
/// (kCompleted == 0 == keep going); the first tripper wins, so a worker
/// that hits the row limit while another hits the deadline records exactly
/// one coherent reason.
using StopFlag = std::atomic<uint8_t>;

void TripStop(StopFlag* stop, StopReason reason) {
  uint8_t expected = 0;
  stop->compare_exchange_strong(expected, static_cast<uint8_t>(reason),
                                std::memory_order_relaxed);
}

StopReason ReasonFromStatus(const Status& s) {
  if (s.IsDeadlineExceeded()) return StopReason::kDeadline;
  if (s.IsCancelled()) return StopReason::kCancelled;
  if (s.IsResourceExhausted()) return StopReason::kMemoryBudget;
  return StopReason::kCompleted;  // not a governance status
}

void TripStop(StopFlag* stop, const Status& s) {
  StopReason r = ReasonFromStatus(s);
  if (r != StopReason::kCompleted) TripStop(stop, r);
}

StopReason StopOf(const StopFlag& stop) {
  return static_cast<StopReason>(stop.load(std::memory_order_relaxed));
}

/// The status Execute() reports for a governance stop.
Status StopStatus(StopReason reason, const ExecutorOptions& options) {
  switch (reason) {
    case StopReason::kRowLimit:
      return Status::OutOfRange("query exceeded max_intermediate_rows (" +
                                std::to_string(options.max_intermediate_rows) + ")");
    case StopReason::kDeadline:
      return Status::DeadlineExceeded("query deadline exceeded");
    case StopReason::kMemoryBudget:
      return Status::ResourceExhausted(
          "query exceeded memory budget (" +
          std::to_string(options.memory_budget_bytes) + " bytes)");
    case StopReason::kCancelled:
      return Status::Cancelled("query cancelled");
    case StopReason::kCompleted:
      break;
  }
  return Status::OK();
}

/// Streams every candidate for `info` — its typed subquery with all
/// single-variable filters applied — into `emit`, without materializing the
/// intermediate id vectors the row-based executor built per filter stage.
/// *emitted_ordered is set when the stream is ascending and duplicate-free
/// (store-order feeds), letting the consumer skip its sort+dedup pass.
/// With workers > 1 and a pool, expensive per-candidate filters (XPath
/// matching) fan out over id chunks; chunk outputs concatenate in order,
/// so the emitted stream is identical to the serial one.
Status ForEachCandidate(const QueryContext& ctx, const VarInfo& info, bool* emitted_ordered,
                        util::ThreadPool* pool, size_t workers,
                        const util::Deadline& deadline,
                        const util::CancellationToken& cancel, StopFlag* stop,
                        const std::function<void(NodeRef)>& emit) {
  const annotation::AnnotationStore& store = *ctx.store;
  const agraph::AGraph& graph = *ctx.graph;

  // Serial-path governance gate. Parallel chunk bodies build their own
  // local gates (GovernanceGate is per-thread); everyone shares `stop` so
  // the first tripper halts all paths.
  util::GovernanceGate gate(deadline, cancel);
  auto tripped = [&]() {
    if (stop->load(std::memory_order_relaxed) != 0) return true;
    Status gs = gate.Check();
    if (!gs.ok()) {
      TripStop(stop, gs);
      return true;
    }
    return false;
  };

  switch (info.kind) {
    case VarKind::kContent: {
      // Start from the most selective content filter available: the
      // intersection of CONTAINS posting hits.
      std::vector<AnnotationId> ids;
      bool have_ids = false;
      for (const Clause* c : info.filters) {
        if (c->kind == Clause::Kind::kContains) {
          std::vector<AnnotationId> found = store.SearchPhrase(c->text);
          if (!have_ids) {
            ids = std::move(found);
            have_ids = true;
          } else {
            std::vector<AnnotationId> merged;
            std::set_intersection(ids.begin(), ids.end(), found.begin(), found.end(),
                                  std::back_inserter(merged));
            ids = std::move(merged);
          }
        }
      }
      // Remaining content filters are applied inline while streaming.
      std::vector<xml::XPathExpr> xpaths;
      std::vector<const std::string*> creators;
      for (const Clause* c : info.filters) {
        if (c->kind == Clause::Kind::kXPath) {
          GRAPHITTI_ASSIGN_OR_RETURN(xml::XPathExpr expr, xml::XPathExpr::Compile(c->text));
          xpaths.push_back(std::move(expr));
        } else if (c->kind == Clause::Kind::kCreator) {
          creators.push_back(&c->text);
        }
      }
      auto passes = [&](const annotation::Annotation& ann) {
        for (const xml::XPathExpr& expr : xpaths) {
          // ContentOf hydrates snapshot-restored cold content on demand.
          const xml::XmlDocument& content = store.ContentOf(ann);
          if (content.root() == nullptr || !expr.Matches(content.root())) {
            return false;
          }
        }
        for (const std::string* creator : creators) {
          if (ann.dc.creator != *creator) return false;
        }
        return true;
      };
      *emitted_ordered = true;  // posting lists and the store stream ascend
      // XPath matching dominates content filtering; with workers > 1 the
      // per-annotation filter fans out over contiguous id chunks and the
      // chunk outputs concatenate in order (ids ascend, so the stream is
      // the serial one). Creator-only filters stay serial — a string
      // compare is cheaper than the fan-out.
      const bool parallel_filter = pool != nullptr && workers > 1 && !xpaths.empty();
      if (parallel_filter && !have_ids) {
        ids.reserve(store.size());
        store.ForEachAnnotation(
            [&](AnnotationId id, const annotation::Annotation&) { ids.push_back(id); });
        have_ids = true;
      }
      if (parallel_filter && ids.size() > 1) {
        const size_t chunks = std::min(ids.size(), workers);
        std::vector<std::vector<AnnotationId>> kept(chunks);
        pool->ParallelFor(chunks, workers - 1, [&](size_t ci) {
          // Local gate per chunk: GovernanceGate is per-thread state.
          util::GovernanceGate chunk_gate(deadline, cancel);
          const size_t lo = ids.size() * ci / chunks;
          const size_t hi = ids.size() * (ci + 1) / chunks;
          for (size_t i = lo; i < hi; ++i) {
            if (stop->load(std::memory_order_relaxed) != 0) return;
            Status gs = chunk_gate.Check();
            if (!gs.ok()) {
              TripStop(stop, gs);
              return;
            }
            const annotation::Annotation* ann = store.Get(ids[i]);
            if (ann != nullptr && passes(*ann)) kept[ci].push_back(ids[i]);
          }
        }, stop);
        for (const std::vector<AnnotationId>& chunk : kept) {
          if (tripped()) return Status::OK();
          for (AnnotationId id : chunk) emit(NodeRef::Content(id));
        }
      } else if (have_ids) {
        for (AnnotationId id : ids) {
          if (tripped()) return Status::OK();
          const annotation::Annotation* ann = store.Get(id);
          if (ann != nullptr && passes(*ann)) emit(NodeRef::Content(id));
        }
      } else {
        store.ForEachAnnotation([&](AnnotationId id, const annotation::Annotation& ann) {
          if (tripped()) return;
          if (passes(ann)) emit(NodeRef::Content(id));
        });
      }
      return Status::OK();
    }

    case VarKind::kReferent: {
      std::string type_filter;
      std::string domain;
      std::vector<const Clause*> windows;  // kOverlaps + kContainedIn
      for (const Clause* c : info.filters) {
        if (c->kind == Clause::Kind::kType) type_filter = c->text;
        if (c->kind == Clause::Kind::kDomain) domain = c->text;
        if (c->kind == Clause::Kind::kOverlaps || c->kind == Clause::Kind::kContainedIn) {
          windows.push_back(c);
        }
      }
      // Rect windows compare in canonical coordinates: each window (in
      // DOMAIN's system, raw without DOMAIN) maps once; a referent's local
      // rect maps through its system, looked up once per run of referents
      // sharing a domain. Unregistered systems and dims mismatches stay raw.
      const spatial::CoordinateSystemRegistry& systems = ctx.indexes->coordinate_systems();
      auto canonical = [](const spatial::CoordinateSystem* cs, const spatial::Rect& r) {
        return cs != nullptr && cs->dims == r.dims ? cs->ToCanonical(r) : r;
      };
      std::vector<spatial::Rect> window_rects;  // parallel to windows
      for (const Clause* c : windows) {
        window_rects.push_back(
            c->rect_window ? canonical(systems.Find(domain.empty() ? c->text : domain), c->rect)
                           : c->rect);
      }
      const std::string* run_domain = nullptr;
      const spatial::CoordinateSystem* run_system = nullptr;
      auto keep = [&](const annotation::Referent& ref) {
        const substructure::Substructure& sub = ref.substructure;
        if (!domain.empty() && sub.domain() != domain) return false;
        if (!type_filter.empty() &&
            substructure::SubTypeToString(sub.type()) != type_filter) {
          return false;
        }
        for (size_t i = 0; i < windows.size(); ++i) {
          const Clause* w = windows[i];
          if (w->rect_window) {
            if (sub.type() != substructure::SubType::kRegion) return false;
            if (run_domain == nullptr || *run_domain != sub.domain()) {
              run_domain = &sub.domain();
              run_system = systems.Find(sub.domain());
            }
            spatial::Rect stored_rect = canonical(run_system, sub.rect());
            bool ok_w = w->kind == Clause::Kind::kOverlaps
                            ? stored_rect.Overlaps(window_rects[i])
                            : window_rects[i].Contains(stored_rect);
            if (!ok_w) return false;
          } else {
            if (sub.type() != substructure::SubType::kInterval) return false;
            bool ok_w = w->kind == Clause::Kind::kOverlaps
                            ? sub.interval().Overlaps(w->interval)
                            : w->interval.Contains(sub.interval());
            if (!ok_w) return false;
          }
        }
        return true;
      };
      auto visit = [&](ReferentId id, const annotation::Referent& ref) {
        if (tripped()) return;
        if (keep(ref)) emit(NodeRef::Referent(id));
      };
      if (!windows.empty() && !domain.empty()) {
        // Index-accelerated spatial subquery. Probing with overlap semantics
        // is a superset of containment; exact semantics live in keep().
        // Index hits stream in tree order, not id order.
        const Clause* probe = windows.front();
        auto visit_id = [&](uint64_t id) {
          const annotation::Referent* ref = store.GetReferent(id);
          if (ref != nullptr) visit(id, *ref);
        };
        if (probe->rect_window) {
          GRAPHITTI_RETURN_NOT_OK(ctx.indexes->ForEachRegion(
              domain, probe->rect,
              [&](const spatial::RTreeEntry& h) { visit_id(h.id); }));
        } else {
          ctx.indexes->ForEachInterval(
              domain, probe->interval,
              [&](const spatial::IntervalEntry& h) { visit_id(h.id); });
        }
      } else if (!domain.empty()) {
        // DOMAIN-only subquery: index-backed, O(|referents in domain|).
        *emitted_ordered = true;
        store.ForEachReferentInDomain(domain, visit);
      } else {
        *emitted_ordered = true;
        store.ForEachReferent(visit);
      }
      return Status::OK();
    }

    case VarKind::kTerm: {
      std::vector<std::string> wanted;
      for (const Clause* c : info.filters) {
        if (c->kind == Clause::Kind::kTerm) {
          wanted.push_back(c->text);
        } else if (c->kind == Clause::Kind::kTermBelow) {
          if (ctx.ontologies == nullptr) {
            return Status::Unsupported("TERM BELOW requires an ontology resolver");
          }
          for (const std::string& q : ctx.ontologies->ExpandTermBelow(c->text)) {
            wanted.push_back(q);
          }
        }
      }
      if (wanted.empty()) {
        graph.ForEachNodeOfKind(NodeKind::kOntologyTerm, [&](NodeRef n) {
          if (tripped()) return;
          emit(n);
        });
      } else {
        for (const std::string& q : wanted) {
          auto node = store.FindTermNode(q);
          if (node.ok()) emit(*node);
        }
      }
      return Status::OK();
    }

    case VarKind::kObject: {
      const Clause* table_clause = nullptr;
      for (const Clause* c : info.filters) {
        if (c->kind == Clause::Kind::kTable) table_clause = c;
      }
      if (table_clause != nullptr) {
        if (ctx.objects == nullptr) {
          return Status::Unsupported("TABLE clauses require an object resolver");
        }
        GRAPHITTI_ASSIGN_OR_RETURN(
            std::vector<uint64_t> ids,
            ctx.objects->FindObjects(table_clause->text, table_clause->table_filter));
        for (uint64_t id : ids) {
          if (tripped()) return Status::OK();
          emit(NodeRef::Object(id));
        }
      } else {
        graph.ForEachNodeOfKind(NodeKind::kDataObject, [&](NodeRef n) {
          if (tripped()) return;
          emit(n);
        });
      }
      return Status::OK();
    }

    case VarKind::kAny:
      break;
  }
  return Status::Internal("unreachable: unresolved kind");
}

}  // namespace

Result<QueryResult> Executor::ExecuteText(std::string_view query_text) const {
  GRAPHITTI_ASSIGN_OR_RETURN(Query query, ParseQuery(query_text));
  return Execute(query);
}

Result<QueryResult> Executor::Execute(const Query& query) const {
  QueryResult result;
  GRAPHITTI_RETURN_NOT_OK(ExecuteInto(query, &result));
  if (result.stats.stop_reason != StopReason::kCompleted) {
    return StopStatus(result.stats.stop_reason, options_);
  }
  return result;
}

util::Status Executor::ExecuteInto(const Query& query, QueryResult* out) const {
  if (ctx_.store == nullptr || ctx_.indexes == nullptr || ctx_.graph == nullptr) {
    return Status::InvalidArgument("QueryContext must provide store, indexes and graph");
  }
  QueryResult& result = *out;
  result.target = query.target;
  ExecutionStats& stats = result.stats;
  const annotation::AnnotationStore& store = *ctx_.store;
  const agraph::AGraph& graph = *ctx_.graph;

  // Intra-query parallelism: resolved once, used by candidate filtering
  // and the join. workers == 1 (the default) keeps every stage serial.
  util::ThreadPool* pool = nullptr;
  if (options_.workers > 1) {
    pool = options_.pool != nullptr ? options_.pool : util::ThreadPool::Shared();
  }
  const size_t workers = pool != nullptr ? options_.workers : 1;

  // Governance stop flag shared by every stage and worker below: trips on
  // deadline expiry, cancellation, the row limit, or the byte budget, and
  // every loop observes it cooperatively.
  StopFlag stop{0};

  // Unamortized entry check: a query arriving with an expired deadline or a
  // pre-cancelled token must stop before any work, regardless of corpus
  // size — the amortized gates below only read the clock every kCheckStride
  // iterations, which a small scan may never reach.
  {
    Status gs = util::GovernanceGate(options_.deadline, options_.cancel).CheckNow();
    if (!gs.ok()) {
      stats.stop_reason = ReasonFromStatus(gs);
      return Status::OK();
    }
  }

  // ------------------------------------------------------------------
  // 1. Collect variables, infer kinds, split clauses into per-variable
  //    subqueries and inter-variable edges (the §II decomposition).
  // ------------------------------------------------------------------
  // lint: allow-map(query vars: a handful per statement, ordered iteration)
  std::map<std::string, VarInfo> vars;
  std::vector<EdgeInfo> edges;

  auto touch = [&](const std::string& name, size_t decl) -> VarInfo* {
    auto [it, inserted] = vars.try_emplace(name);
    if (inserted) {
      it->second.name = name;
      it->second.declaration_index = decl;
    }
    return &it->second;
  };

  for (size_t i = 0; i < query.clauses.size(); ++i) {
    const Clause& c = query.clauses[i];
    VarInfo* subject = touch(c.var, i);
    KindExpectation expect = ExpectationFor(c);
    GRAPHITTI_RETURN_NOT_OK(MergeKind(subject, expect.subject));
    if (!c.var2.empty()) {
      VarInfo* object = touch(c.var2, i);
      GRAPHITTI_RETURN_NOT_OK(MergeKind(object, expect.object));
      edges.push_back({&c, c.var, c.var2, std::string(EdgeLabelFor(c.kind))});
    } else if (c.kind != Clause::Kind::kIs) {
      subject->filters.push_back(&c);
    }
  }

  for (auto& [name, info] : vars) {
    if (info.kind == VarKind::kAny) {
      return Status::InvalidArgument("cannot infer the kind of ?" + name +
                                     "; add an IS clause");
    }
  }

  // ------------------------------------------------------------------
  // 2. Candidate enumeration per variable (the typed subqueries), streamed
  //    into sorted candidate vectors. Variables with no narrowing filter never
  //    enumerate: their domain is "every node of the kind", answered by a
  //    kind check during joins and a store count for ordering.
  // ------------------------------------------------------------------
  for (auto& [name, info] : vars) {
    if (info.filters.empty()) {
      info.unconstrained = true;
      switch (info.kind) {
        case VarKind::kContent:
          info.candidate_count = store.size();
          break;
        case VarKind::kReferent:
          info.candidate_count = store.num_referents();
          break;
        case VarKind::kTerm:
          info.candidate_count = graph.CountNodesOfKind(NodeKind::kOntologyTerm);
          break;
        case VarKind::kObject:
          info.candidate_count = graph.CountNodesOfKind(NodeKind::kDataObject);
          break;
        case VarKind::kAny:
          return Status::Internal("unreachable: unresolved kind");
      }
      continue;
    }
    bool ordered = false;
    GRAPHITTI_RETURN_NOT_OK(ForEachCandidate(
        ctx_, info, &ordered, pool, workers,
        options_.deadline, options_.cancel, &stop,
        [&info = info](NodeRef n) { info.streamed.push_back(n); }));
    if (stop.load(std::memory_order_relaxed) != 0) {
      stats.stop_reason = StopOf(stop);
      return Status::OK();
    }
    if (!ordered) {
      std::sort(info.streamed.begin(), info.streamed.end());
      info.streamed.erase(std::unique(info.streamed.begin(), info.streamed.end()),
                          info.streamed.end());
    }
    // Join membership binary-searches `streamed`, so it must be strictly
    // ascending (a stream wrongly reported as ordered would silently drop
    // join rows).
    assert(std::adjacent_find(info.streamed.begin(), info.streamed.end(),
                              [](NodeRef a, NodeRef b) { return !(a < b); }) ==
           info.streamed.end());
    info.streamed_ready = true;
    info.candidate_count = info.streamed.size();
  }

  // Join membership: a binary search of the sorted candidate vector, or a
  // kind check when the variable is unconstrained (a-graph neighbours of
  // the right kind are committed store entries by construction).
  auto is_candidate = [&](const VarInfo& info, NodeRef n) {
    if (info.unconstrained) return n.kind == ToNodeKind(info.kind);
    return std::binary_search(info.streamed.begin(), info.streamed.end(), n);
  };

  // Sorted candidate vector for variables bound without a join edge
  // (cartesian extension needs a deterministic ascending order). For
  // unconstrained variables it materializes lazily from the stores.
  auto sorted_candidates = [&](VarInfo& info) -> const std::vector<NodeRef>& {
    if (info.streamed_ready) return info.streamed;
    info.streamed_ready = true;
    switch (info.kind) {
      case VarKind::kContent:
        info.streamed.reserve(store.size());
        store.ForEachAnnotation([&](AnnotationId id, const annotation::Annotation&) {
          info.streamed.push_back(NodeRef::Content(id));  // ascending by id
        });
        break;
      case VarKind::kReferent:
        info.streamed.reserve(store.num_referents());
        store.ForEachReferent([&](ReferentId id, const annotation::Referent&) {
          info.streamed.push_back(NodeRef::Referent(id));  // ascending by id
        });
        break;
      case VarKind::kTerm:
      case VarKind::kObject:
        graph.ForEachNodeOfKind(ToNodeKind(info.kind),
                                [&](NodeRef n) { info.streamed.push_back(n); });
        std::sort(info.streamed.begin(), info.streamed.end());
        break;
      case VarKind::kAny:
        break;
    }
    return info.streamed;
  };

  // ------------------------------------------------------------------
  // 3. Decompose constraints into pairwise predicates.
  // ------------------------------------------------------------------
  std::vector<PairPredicate> pair_preds;
  for (const Constraint& cons : query.constraints) {
    for (const std::string& v : cons.vars) {
      auto it = vars.find(v);
      if (it == vars.end()) {
        return Status::InvalidArgument("constraint references unknown variable ?" + v);
      }
      if (it->second.kind != VarKind::kReferent) {
        return Status::TypeError("constraints apply to referent variables (?" + v + ")");
      }
    }
    switch (cons.kind) {
      case Constraint::Kind::kConsecutive:
        for (size_t i = 0; i + 1 < cons.vars.size(); ++i) {
          pair_preds.push_back({PairPredicate::Kind::kBefore, cons.vars[i], cons.vars[i + 1]});
          pair_preds.push_back(
              {PairPredicate::Kind::kSameDomain, cons.vars[i], cons.vars[i + 1]});
        }
        break;
      case Constraint::Kind::kDisjoint:
        for (size_t i = 0; i < cons.vars.size(); ++i) {
          for (size_t j = i + 1; j < cons.vars.size(); ++j) {
            pair_preds.push_back({PairPredicate::Kind::kDisjoint, cons.vars[i], cons.vars[j]});
          }
        }
        break;
      case Constraint::Kind::kOverlapping:
        for (size_t i = 0; i < cons.vars.size(); ++i) {
          for (size_t j = i + 1; j < cons.vars.size(); ++j) {
            pair_preds.push_back(
                {PairPredicate::Kind::kOverlapping, cons.vars[i], cons.vars[j]});
          }
        }
        break;
      case Constraint::Kind::kSameDomain:
        for (size_t i = 0; i + 1 < cons.vars.size(); ++i) {
          pair_preds.push_back(
              {PairPredicate::Kind::kSameDomain, cons.vars[i], cons.vars[i + 1]});
        }
        break;
    }
  }

  auto eval_pair = [&](const PairPredicate& p, NodeRef a, NodeRef b) -> bool {
    const annotation::Referent* ra = store.GetReferent(a.id);
    const annotation::Referent* rb = store.GetReferent(b.id);
    if (ra == nullptr || rb == nullptr) return false;
    const substructure::Substructure& sa = ra->substructure;
    const substructure::Substructure& sb = rb->substructure;
    switch (p.kind) {
      case PairPredicate::Kind::kSameDomain:
        return sa.domain() == sb.domain() && sa.type() == sb.type();
      case PairPredicate::Kind::kBefore:
        if (sa.type() != substructure::SubType::kInterval ||
            sb.type() != substructure::SubType::kInterval) {
          return false;
        }
        return sa.interval().lo < sb.interval().lo;
      case PairPredicate::Kind::kDisjoint: {
        auto overlap = substructure::IfOverlap(sa, sb);
        return overlap.ok() && !*overlap;
      }
      case PairPredicate::Kind::kOverlapping: {
        auto overlap = substructure::IfOverlap(sa, sb);
        return overlap.ok() && *overlap;
      }
    }
    return false;
  };

  // ------------------------------------------------------------------
  // 4. Feasible order: bind variables most-selective-first, preferring
  //    variables connected to already-bound ones (joinable via a-graph).
  // ------------------------------------------------------------------
  std::vector<std::string> order;
  {
    std::set<std::string> remaining;
    for (const auto& [name, _] : vars) remaining.insert(name);

    auto connected_to_bound = [&](const std::string& v,
                                  const std::set<std::string>& bound) {
      for (const EdgeInfo& e : edges) {
        if ((e.var_a == v && bound.count(e.var_b) > 0) ||
            (e.var_b == v && bound.count(e.var_a) > 0)) {
          return true;
        }
      }
      return false;
    };

    std::set<std::string> bound;
    if (options_.use_selectivity_order) {
      while (!remaining.empty()) {
        std::string best;
        size_t best_size = SIZE_MAX;
        bool best_connected = false;
        for (const std::string& v : remaining) {
          bool conn = connected_to_bound(v, bound);
          size_t size = vars[v].candidate_count;
          // Prefer connected variables; among equals, smaller candidate set.
          if (std::make_tuple(!conn, size) < std::make_tuple(!best_connected, best_size) ||
              best.empty()) {
            best = v;
            best_size = size;
            best_connected = conn;
          }
        }
        order.push_back(best);
        bound.insert(best);
        remaining.erase(best);
      }
    } else {
      // Naive: declaration order.
      std::vector<std::string> decl(remaining.begin(), remaining.end());
      std::sort(decl.begin(), decl.end(), [&](const std::string& a, const std::string& b) {
        return vars[a].declaration_index < vars[b].declaration_index;
      });
      order = std::move(decl);
    }
  }

  // ------------------------------------------------------------------
  // 5. Execute the join on the columnar binding table: extending a variable
  //    appends (value, parent) pairs to one column; prior bindings are
  //    shared through parent links and never copied.
  // ------------------------------------------------------------------
  // lint: allow-map(result columns: a handful per query, ordered header)
  std::map<std::string, size_t> var_column;
  BindingTable table;

  // Row buffer for collation (step 6); the join below keeps its own
  // per-worker buffers.
  std::vector<NodeRef> row_buf;

  // Reachability cache key for CONNECTED joins: one bounded BFS per
  // distinct (bound node, hop limit) instead of one FindPath per row.
  struct ReachKey {
    NodeRef node;
    size_t hops;
    bool operator==(const ReachKey& o) const { return node == o.node && hops == o.hops; }
  };
  struct ReachKeyHash {
    size_t operator()(const ReachKey& k) const {
      return static_cast<size_t>(util::Mix64(NodeRefHash{}(k.node) ^ (k.hops * 0x9e3779b97f4a7c15ull)));
    }
  };

  // Everything one join worker touches while extending rows. The serial
  // path is just the one-worker special case of the same code. Buffers are
  // per worker and reused across rows and levels, so steady-state per-row
  // work allocates nothing; a distinct bound node may expand on two
  // workers (duplicate work, never a race).
  struct WorkerState {
    std::vector<NodeRef> row_buf;
    std::vector<NodeRef> domain_buf;
    std::vector<NodeRef> nbr_buf;
    // Single-edge join domains through a column that can repeat, memoized
    // per bound node in an open-addressing table whose slots index the
    // domains stored back to back.
    struct MemoSlot {
      NodeRef node;
      size_t begin = 0;
      size_t end = 0;
      bool used = false;
    };
    std::vector<MemoSlot> memo_slots;
    size_t memo_used = 0;
    std::vector<NodeRef> memo_domains;
    // lint: allow-map(per-query memo; hashed, bounded by visited nodes)
    std::unordered_map<ReachKey, std::unordered_set<NodeRef, NodeRefHash>, ReachKeyHash>
        reach_cache;
    std::vector<NodeRef> reach_buf;
    std::vector<std::pair<NodeRef, size_t>> out;  // (candidate, parent row)
  };
  std::vector<WorkerState> wstates(workers);
  // One governance gate per worker (a gate is per-thread state; the tick
  // counter amortizing clock reads must never be shared across workers).
  std::vector<util::GovernanceGate> wgates(
      workers, util::GovernanceGate(options_.deadline, options_.cancel));

  auto reachable_from = [&](WorkerState& w, NodeRef node, size_t hops)
      -> const std::unordered_set<NodeRef, NodeRefHash>& {
    auto [it, inserted] = w.reach_cache.try_emplace(ReachKey{node, hops});
    if (inserted) {
      agraph::PathOptions popt;
      popt.max_hops = hops;
      w.reach_buf.clear();
      graph.AppendReachable(node, popt, &w.reach_buf);
      it->second.insert(w.reach_buf.begin(), w.reach_buf.end());
    }
    return it->second;
  };

  for (const std::string& v : order) {
    VarInfo& info = vars[v];
    stats.binding_order.push_back(v);
    stats.candidate_counts.push_back(info.candidate_count);

    // Edges from v to already-bound variables, with the bound column
    // resolved once per variable instead of per row.
    std::vector<std::pair<const EdgeInfo*, size_t>> join_edges;
    std::vector<std::pair<const EdgeInfo*, size_t>> path_edges;  // CONNECTED joins
    for (const EdgeInfo& e : edges) {
      const std::string& other = (e.var_a == v) ? e.var_b : (e.var_b == v ? e.var_a : "");
      if (other.empty()) continue;
      auto col = var_column.find(other);
      if (col == var_column.end()) continue;
      if (e.clause->kind == Clause::Kind::kConnected) {
        path_edges.emplace_back(&e, col->second);
      } else {
        join_edges.emplace_back(&e, col->second);
      }
    }

    // Pairwise constraints that become fully bound with v, with the other
    // side's column resolved once per variable.
    struct BoundPred {
      const PairPredicate* pred;
      size_t other_col;
      bool v_is_a;
    };
    std::vector<BoundPred> bound_preds;
    for (const PairPredicate& p : pair_preds) {
      const std::string* other = nullptr;
      bool v_is_a = false;
      if (p.var_a == v) {
        other = &p.var_b;
        v_is_a = true;
      } else if (p.var_b == v) {
        other = &p.var_a;
      } else {
        continue;
      }
      auto it = var_column.find(*other);
      if (it == var_column.end()) continue;  // other not bound yet
      bound_preds.push_back({&p, it->second, v_is_a});
    }

    const std::vector<NodeRef>* cartesian =
        join_edges.empty() ? &sorted_candidates(info) : nullptr;
    // A single-edge domain is a pure function of the bound node, so it is
    // memoized when that node can repeat across rows. A one-column table
    // holds the first variable's sorted unique candidates, which never
    // repeat; once a second column exists, every column can.
    const size_t memo_col =
        join_edges.size() == 1 && var_column.size() > 1 ? join_edges.front().second : SIZE_MAX;
    for (WorkerState& w : wstates) {
      w.out.clear();
      w.memo_slots.clear();  // keyed on bound node; valid for one level only
      w.memo_used = 0;
      w.memo_domains.clear();
    }

    size_t prev_rows = table.BeginColumn();
    if (prev_rows > UINT32_MAX) {
      return Status::OutOfRange("binding table exceeds 2^32 rows per level");
    }

    // Emitted-row budget shared across workers: the table-size limit is
    // enforced at the (serial) append below; this counter just lets
    // workers stop producing once the level is doomed to the row limit.
    std::atomic<size_t> emitted{0};

    // Appends bound_node's neighbours along `e` that are candidates of v,
    // sorted (deterministic extension order).
    auto append_domain = [&](WorkerState& w, NodeRef bound_node, const EdgeInfo& e,
                             std::vector<NodeRef>* domain) {
      const size_t first = domain->size();
      w.nbr_buf.clear();
      graph.AppendNeighbors(bound_node, /*directed=*/false, e.label, &w.nbr_buf);
      for (NodeRef n : w.nbr_buf) {
        if (is_candidate(info, n)) domain->push_back(n);
      }
      std::sort(domain->begin() + first, domain->end());
    };

    // The memoized single-edge domain of `bound_node`, as a slot whose
    // range indexes w.memo_domains. Linear probing; the table doubles
    // before it gets more than half full.
    using MemoSlot = WorkerState::MemoSlot;
    auto probe = [](std::vector<MemoSlot>& slots, NodeRef n) -> MemoSlot& {
      size_t i = NodeRefHash{}(n) & (slots.size() - 1);
      while (slots[i].used && !(slots[i].node == n)) i = (i + 1) & (slots.size() - 1);
      return slots[i];
    };
    auto memo_domain = [&](WorkerState& w, NodeRef bound_node) -> const MemoSlot& {
      if (2 * (w.memo_used + 1) > w.memo_slots.size()) {
        std::vector<MemoSlot> old = std::move(w.memo_slots);
        w.memo_slots.assign(std::max<size_t>(64, 2 * old.size()), {});
        for (const MemoSlot& slot : old) {
          if (slot.used) probe(w.memo_slots, slot.node) = slot;
        }
      }
      MemoSlot& slot = probe(w.memo_slots, bound_node);
      if (!slot.used) {
        slot = {bound_node, w.memo_domains.size(), 0, true};
        append_domain(w, bound_node, *join_edges.front().first, &w.memo_domains);
        slot.end = w.memo_domains.size();
        ++w.memo_used;
      }
      return slot;
    };

    // Extends parent rows [lo, hi): computes each row's candidate domain,
    // filters it through the bound pairwise predicates and CONNECTED
    // reachability, and collects (candidate, parent) pairs into the
    // worker's output. A pure function of the rows given the frozen
    // substrates, so rows partition freely across workers; outputs append
    // back in worker-chunk order, making the table bit-identical to the
    // serial build.
    auto extend_rows = [&](WorkerState& w, util::GovernanceGate& g, size_t lo, size_t hi) {
      for (size_t row = lo; row < hi; ++row) {
        if (stop.load(std::memory_order_relaxed) != 0) return;
        table.ReadParentRow(row, &w.row_buf);

        const NodeRef* first = nullptr;
        const NodeRef* last = nullptr;
        if (cartesian != nullptr) {
          first = cartesian->data();
          last = first + cartesian->size();
        } else if (memo_col != SIZE_MAX) {
          const MemoSlot& slot = memo_domain(w, w.row_buf[memo_col]);
          first = w.memo_domains.data() + slot.begin;
          last = w.memo_domains.data() + slot.end;
        } else {
          // Expand along the first edge, then semi-join along the rest by
          // binary search of each edge's sorted neighbours.
          w.domain_buf.clear();
          append_domain(w, w.row_buf[join_edges.front().second],
                        *join_edges.front().first, &w.domain_buf);
          for (size_t i = 1; i < join_edges.size() && !w.domain_buf.empty(); ++i) {
            const auto& [e, col] = join_edges[i];
            w.nbr_buf.clear();
            graph.AppendNeighbors(w.row_buf[col], /*directed=*/false, e->label, &w.nbr_buf);
            std::sort(w.nbr_buf.begin(), w.nbr_buf.end());
            w.domain_buf.erase(
                std::remove_if(w.domain_buf.begin(), w.domain_buf.end(),
                               [&](NodeRef n) {
                                 return !std::binary_search(w.nbr_buf.begin(),
                                                            w.nbr_buf.end(), n);
                               }),
                w.domain_buf.end());
          }
          first = w.domain_buf.data();
          last = first + w.domain_buf.size();
        }

        for (const NodeRef* it = first; it != last; ++it) {
          const NodeRef cand = *it;
          Status gs = g.Check();
          if (!gs.ok()) {
            TripStop(&stop, gs);
            return;
          }
          // Pairwise constraints that become fully bound with v = cand.
          bool ok = true;
          for (const BoundPred& bp : bound_preds) {
            NodeRef other_node = w.row_buf[bp.other_col];
            NodeRef a = bp.v_is_a ? cand : other_node;
            NodeRef b = bp.v_is_a ? other_node : cand;
            if (!eval_pair(*bp.pred, a, b)) {
              ok = false;
              break;
            }
          }
          if (!ok) continue;
          // CONNECTED joins: path existence in the a-graph, answered by the
          // per-bound-node reachability cache.
          for (const auto& [e, col] : path_edges) {
            NodeRef other_node = w.row_buf[col];
            size_t hops = e->clause->max_hops == SIZE_MAX ? options_.default_connected_hops
                                                          : e->clause->max_hops;
            if (reachable_from(w, other_node, hops).count(cand) == 0) {
              ok = false;
              break;
            }
          }
          if (!ok) continue;

          w.out.push_back({cand, row});
          if (emitted.fetch_add(1, std::memory_order_relaxed) >=
              options_.max_intermediate_rows) {
            TripStop(&stop, StopReason::kRowLimit);
            return;
          }
        }
      }
    };

    if (workers > 1 && prev_rows > 1) {
      // One contiguous row chunk per worker; each ParallelFor index runs
      // exactly once, so worker state is never shared between live bodies.
      pool->ParallelFor(workers, workers - 1, [&](size_t ci) {
        extend_rows(wstates[ci], wgates[ci], prev_rows * ci / workers,
                    prev_rows * (ci + 1) / workers);
      }, &stop);
    } else {
      extend_rows(wstates.front(), wgates.front(), 0, prev_rows);
    }
    // Append surviving pairs in deterministic worker-chunk order, enforcing
    // the row limit and the byte budget as the column grows. A governance
    // stop skips the append (the level is abandoned) but the column is
    // still closed — EndColumn after partial appends is well-defined and
    // folds this level's size into the peaks.
    if (stop.load(std::memory_order_relaxed) == 0) {
      size_t appended = 0;
      for (WorkerState& w : wstates) {
        for (const auto& [cand, parent] : w.out) {
          table.Append(cand, parent);
          if (table.OpenRows() > options_.max_intermediate_rows) {
            TripStop(&stop, StopReason::kRowLimit);
            break;
          }
          if (options_.memory_budget_bytes != 0 && (++appended & 63) == 0 &&
              table.ByteSize() > options_.memory_budget_bytes) {
            TripStop(&stop, StopReason::kMemoryBudget);
            break;
          }
        }
        w.out.clear();
        if (stop.load(std::memory_order_relaxed) != 0) break;
      }
    }
    table.EndColumn();
    if (options_.memory_budget_bytes != 0 &&
        table.ByteSize() > options_.memory_budget_bytes) {
      TripStop(&stop, StopReason::kMemoryBudget);
    }
    var_column[v] = var_column.size();
    stats.rows_examined += table.NumRows();
    if (stop.load(std::memory_order_relaxed) != 0) break;
    if (table.NumRows() == 0) break;
  }
  stats.peak_rows = table.peak_rows();
  stats.peak_bytes = table.peak_bytes();
  if (stop.load(std::memory_order_relaxed) != 0) {
    stats.stop_reason = StopOf(stop);
    return Status::OK();
  }

  // ------------------------------------------------------------------
  // 6. Collate results per target.
  // ------------------------------------------------------------------
  std::string target_var = query.target_var;
  if (target_var.empty()) {
    if (query.target == Target::kCount) {
      // COUNT defaults to the first declared variable of any kind.
      size_t best_decl = SIZE_MAX;
      for (const auto& [name, info] : vars) {
        if (info.declaration_index < best_decl) {
          best_decl = info.declaration_index;
          target_var = name;
        }
      }
    } else if (query.target != Target::kGraph) {
      // kGraph keeps "" (all variables participate).
      VarKind want = VarKind::kContent;
      if (query.target == Target::kReferents) want = VarKind::kReferent;
      size_t best_decl = SIZE_MAX;
      for (const auto& [name, info] : vars) {
        if (info.kind == want && info.declaration_index < best_decl) {
          best_decl = info.declaration_index;
          target_var = name;
        }
      }
      if (target_var.empty()) {
        return Status::InvalidArgument("no variable of the result kind in WHERE block");
      }
    }
  } else if (vars.find(target_var) == vars.end()) {
    return Status::InvalidArgument("unknown target variable ?" + target_var);
  }

  auto label_for = [&](NodeRef n) { return std::string(graph.NodeLabel(n)); };

  // Rows of the final (closed) column; a join level that emptied out (or a
  // target variable the loop never reached) contributes no rows.
  size_t final_rows = table.num_columns() == 0 ? 1 : table.NumRows();
  auto target_col = [&]() -> size_t {
    auto it = var_column.find(target_var);
    return it == var_column.end() ? SIZE_MAX : it->second;
  };

  // Collation is serial; one gate covers every target's row loop. A trip
  // keeps the items collated so far (a partial page is still renderable).
  util::GovernanceGate collate_gate(options_.deadline, options_.cancel);
  auto collate_tripped = [&]() {
    Status gs = collate_gate.Check();
    if (!gs.ok()) {
      TripStop(&stop, gs);
      return true;
    }
    return false;
  };

  switch (query.target) {
    case Target::kContents: {
      std::unordered_set<NodeRef, NodeRefHash> seen;
      size_t col = target_col();
      if (col != SIZE_MAX) result.items.reserve(final_rows);
      for (size_t row = 0; col != SIZE_MAX && row < final_rows; ++row) {
        if (collate_tripped()) break;
        table.ReadRow(row, &row_buf);
        NodeRef n = row_buf[col];
        if (!seen.insert(n).second) continue;
        ResultItem item;
        item.content_id = n.id;
        item.label = label_for(n);
        result.items.push_back(std::move(item));
      }
      break;
    }
    case Target::kReferents: {
      std::unordered_set<NodeRef, NodeRefHash> seen;
      size_t col = target_col();
      if (col != SIZE_MAX) result.items.reserve(final_rows);
      for (size_t row = 0; col != SIZE_MAX && row < final_rows; ++row) {
        if (collate_tripped()) break;
        table.ReadRow(row, &row_buf);
        NodeRef n = row_buf[col];
        if (!seen.insert(n).second) continue;
        ResultItem item;
        item.referent_id = n.id;
        const annotation::Referent* ref = store.GetReferent(n.id);
        if (ref != nullptr) item.substructure = ref->substructure;
        item.label = label_for(n);
        result.items.push_back(std::move(item));
      }
      break;
    }
    case Target::kFragments: {
      GRAPHITTI_ASSIGN_OR_RETURN(xml::XPathExpr expr,
                                 xml::XPathExpr::Compile(query.return_xpath));
      std::unordered_set<NodeRef, NodeRefHash> seen;
      size_t col = target_col();
      for (size_t row = 0; col != SIZE_MAX && row < final_rows; ++row) {
        if (collate_tripped()) break;
        table.ReadRow(row, &row_buf);
        NodeRef n = row_buf[col];
        if (!seen.insert(n).second) continue;
        const annotation::Annotation* ann = store.Get(n.id);
        if (ann == nullptr) continue;
        const xml::XmlDocument& content = store.ContentOf(*ann);
        if (content.root() == nullptr) continue;
        for (const xml::XPathMatch& m : expr.Evaluate(content.root())) {
          ResultItem item;
          item.content_id = n.id;
          item.fragment = m.is_attribute ? m.value : m.node->ToString(/*pretty=*/false);
          item.label = label_for(n);
          result.items.push_back(std::move(item));
        }
      }
      break;
    }
    case Target::kCount: {
      std::unordered_set<NodeRef, NodeRefHash> distinct;
      size_t col = target_col();
      for (size_t row = 0; col != SIZE_MAX && row < final_rows; ++row) {
        if (collate_tripped()) break;
        table.ReadRow(row, &row_buf);
        distinct.insert(row_buf[col]);
      }
      ResultItem item;
      item.count = distinct.size();
      item.label = "count(?" + target_var + ") = " + std::to_string(distinct.size());
      result.items.push_back(std::move(item));
      break;
    }
    case Target::kGraph: {
      // One row handle per distinct binding row ("each connected subgraph
      // forms a result page", §III). Distinctness of the sorted terminal
      // set is tracked by a splitmix64-combined row hash instead of an
      // ordered set of row vectors — O(row) hashing, no per-row allocation
      // or lexicographic tree compares. A 64-bit collision would drop one
      // subgraph; at the max_intermediate_rows default (2^20 rows) the
      // odds are ~2^-25 per query, accepted for the collation speed.
      //
      // The subgraphs themselves are NOT built here: collation stores the
      // terminal sets only, and MaterializePage runs the (batched) Steiner
      // heuristic for just the rows of the requested page. Connectivity is
      // therefore also decided lazily — a row whose terminals do not share
      // a component keeps its handle and materializes to an empty,
      // "(disconnected)"-labelled subgraph.
      std::unordered_set<uint64_t> seen;
      std::vector<NodeRef> terminals;
      for (size_t row = 0; row < final_rows; ++row) {
        if (collate_tripped()) break;
        table.ReadRow(row, &row_buf);
        terminals = row_buf;
        std::sort(terminals.begin(), terminals.end());
        terminals.erase(std::unique(terminals.begin(), terminals.end()), terminals.end());
        uint64_t h = util::Mix64(0x51ab7c1ed15ull ^ terminals.size());
        for (NodeRef t : terminals) h = util::Mix64(h ^ NodeRefHash{}(t));
        if (!seen.insert(h).second) continue;
        ResultItem item;
        item.label = "row(" + std::to_string(terminals.size()) + " terminals)";
        item.terminals = std::move(terminals);  // reassigned from row_buf next row
        result.items.push_back(std::move(item));
      }
      break;
    }
  }

  stats.items_produced = result.items.size();

  // ------------------------------------------------------------------
  // 7. Paging: slice the requested page and materialize it (for GRAPH
  //    targets this is where — and the only place where — connection
  //    subgraphs get built).
  // ------------------------------------------------------------------
  size_t page_size = query.limit;
  if (page_size == SIZE_MAX) {
    page_size = (query.target == Target::kGraph) ? 1 : result.items.size();
  }
  if (page_size == 0) page_size = 1;
  result.page_size = page_size;
  result.total_pages = (result.items.size() + page_size - 1) / page_size;
  if (stop.load(std::memory_order_relaxed) != 0) {
    // Collation tripped: keep the partial items but skip materialization —
    // the budget is already gone.
    stats.stop_reason = StopOf(stop);
    return Status::OK();
  }
  Status ms = MaterializePage(&result, query.page);
  if (!ms.ok()) {
    StopReason r = ReasonFromStatus(ms);
    if (r == StopReason::kCompleted) return ms;  // hard error, not governance
    stats.stop_reason = r;
    return Status::OK();
  }
  stats.stop_reason = StopReason::kCompleted;
  return Status::OK();
}

util::Status Executor::MaterializePage(QueryResult* result, size_t page) const {
  if (result->page_size == 0) {
    return Status::InvalidArgument("result has no page size (not produced by Execute?)");
  }
  if (result->items.empty()) {
    // Empty results have no pages: total_pages == 0, page 0, empty slice.
    result->page = 0;
    result->page_first = 0;
    result->page_count = 0;
    return Status::OK();
  }
  // Clamp into [1, total_pages]: a programmatically built Query may carry
  // page == 0 (the parser rejects it, the Context API cannot), which would
  // otherwise underflow the slice arithmetic below.
  if (page == 0) page = 1;
  result->page = std::min(page, result->total_pages);
  size_t begin = (result->page - 1) * result->page_size;
  size_t end = std::min(result->items.size(), begin + result->page_size);
  result->page_first = begin;
  result->page_count = end - begin;
  if (result->target != Target::kGraph) return Status::OK();

  if (ctx_.graph == nullptr) {
    return Status::InvalidArgument("QueryContext must provide a graph");
  }
  // One batched connect for the whole result, cached across flips: every
  // distinct terminal ever materialized grows its BFS shortest-path tree
  // once, shared by all of this page's rows AND every later page. The
  // result's epoch pin (QueryResult::snapshot, set by core::Graphitti)
  // keeps the graph the batch borrows alive and frozen, so flipping back
  // to a page long after later commits rebuilds nothing and changes
  // nothing. Tree expansion inside the batch parallelizes per
  // ExecutorOptions::workers.
  if (result->connect_batch == nullptr ||
      result->connect_batch->graph() != ctx_.graph) {
    agraph::ConnectOptions copt;
    copt.deadline = options_.deadline;
    copt.cancel = options_.cancel;
    if (options_.workers > 1) {
      copt.workers = options_.workers;
      copt.pool = options_.pool != nullptr ? options_.pool : util::ThreadPool::Shared();
    }
    result->connect_batch = std::make_shared<agraph::ConnectBatch>(*ctx_.graph, copt);
  }
  agraph::ConnectBatch& batch = *result->connect_batch;
  const size_t trees_before = batch.trees_built();
  auto record_batch_stats = [&] {
    result->stats.connect_trees_built += batch.trees_built() - trees_before;
    result->stats.connect_tree_bytes = batch.tree_bytes();
  };
  util::GovernanceGate gate(options_.deadline, options_.cancel);
  for (size_t i = begin; i < end; ++i) {
    ResultItem& item = result->items[i];
    if (item.subgraph_ready) continue;
    // Each row's connect is already expensive; check unamortized. The page
    // materialized so far stays valid (subgraph_ready per item), so a
    // governance abort here resumes exactly where it left off on retry.
    {
      Status gs = gate.CheckNow();
      if (!gs.ok()) {
        record_batch_stats();
        return gs;
      }
    }
    auto sg = batch.Connect(item.terminals);
    if (!sg.ok() && (sg.status().IsDeadlineExceeded() || sg.status().IsCancelled() ||
                     sg.status().IsResourceExhausted())) {
      // Governance abort mid-connect: not a disconnected row — leave the
      // item unmaterialized for a retry and surface the status.
      record_batch_stats();
      return sg.status();
    }
    item.subgraph_ready = true;
    if (sg.ok()) {
      item.subgraph = std::move(sg).ValueUnsafe();
      item.label = "subgraph(" + std::to_string(item.subgraph.nodes.size()) + " nodes)";
    } else {
      item.label = "subgraph(disconnected)";
    }
    ++result->stats.subgraphs_materialized;
  }
  record_batch_stats();
  return Status::OK();
}

Result<std::string> Executor::Explain(const Query& query) const {
  // ExecuteInto rather than Execute: a governance stop still renders the
  // partial plan (with its stop reason), instead of erasing the very
  // diagnostics that explain why the query was slow.
  QueryResult result;
  GRAPHITTI_RETURN_NOT_OK(ExecuteInto(query, &result));
  std::string out;
  out += "query: " + query.ToString() + "\n";
  out += "plan (" + std::string(options_.use_selectivity_order ? "feasible order"
                                                               : "declaration order") +
         "):\n";
  for (size_t i = 0; i < result.stats.binding_order.size(); ++i) {
    out += "  " + std::to_string(i + 1) + ". bind ?" + result.stats.binding_order[i] +
           "  (candidates: " + std::to_string(result.stats.candidate_counts[i]) + ")\n";
  }
  out += "rows examined: " + std::to_string(result.stats.rows_examined) + "\n";
  out += "peak rows: " + std::to_string(result.stats.peak_rows) +
         " (binding table: " + std::to_string(result.stats.peak_bytes) + " bytes)\n";
  out += "items produced: " + std::to_string(result.stats.items_produced) + "\n";
  out += "pages: " + std::to_string(result.total_pages) +
         " (page size " + std::to_string(result.page_size) + ")\n";
  if (query.target == Target::kGraph) {
    out += "subgraphs materialized: " +
           std::to_string(result.stats.subgraphs_materialized) + " (page " +
           std::to_string(result.page) + " only; connect trees built: " +
           std::to_string(result.stats.connect_trees_built) + ", " +
           std::to_string(result.stats.connect_tree_bytes) + " bytes held)\n";
  }
  out += "stopped: " + std::string(StopReasonName(result.stats.stop_reason)) + "\n";
  return out;
}

Result<std::string> Executor::ExplainText(std::string_view query_text) const {
  GRAPHITTI_ASSIGN_OR_RETURN(Query query, ParseQuery(query_text));
  return Explain(query);
}

}  // namespace query
}  // namespace graphitti
