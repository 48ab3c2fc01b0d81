// Differential oracle for the executor's joins: seeded random corpora and
// queries, each answered by the executor (both binding orders, workers 1
// and 3) and by a brute-force nested-loop evaluator that reads the parsed
// query and consults only public store, index and graph accessors. Single-
// variable filters (CONTAINS, DOMAIN, TYPE, OVERLAPS, CONTAINEDIN, TERM,
// TABLE) sit on both sides of ANNOTATES, REFERS and OF joins, with and
// without CONSTRAIN. Index-accelerated window subqueries stream candidates
// in tree order, so a join that assumed sorted candidates shows up here.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <random>
#include <set>

#include "annotation/annotation_store.h"
#include "query/executor.h"
#include "query/parser.h"
#include "substructure/operators.h"

namespace graphitti {
namespace query {
namespace {

using agraph::NodeKind;
using agraph::NodeRef;
using annotation::AnnotationBuilder;

const char* const kWords[] = {"alpha", "beta", "gamma", "delta", "omega"};
const char* const kIntervalDomains[] = {"s0", "s1"};
const char* const kRegionSystems[] = {"img", "img2x", "imgoff"};
const char* const kTerms[] = {"ont:T1", "ont:T2", "ont:T3"};

class TableObjects : public ObjectResolver {
 public:
  util::Result<std::vector<uint64_t>> FindObjects(
      const std::string& table, const relational::Predicate&) const override {
    if (table == "objs") return std::vector<uint64_t>{1, 2};
    return util::Status::NotFound("no table " + table);
  }
  std::string DescribeObject(uint64_t id) const override { return "obj" + std::to_string(id); }
};

class JoinOracleTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  JoinOracleTest() : store_(&indexes_, &graph_), rng_(GetParam()) {}

  void SetUp() override {
    auto& systems = indexes_.coordinate_systems();
    ASSERT_TRUE(systems.RegisterCanonical("img", 2).ok());
    ASSERT_TRUE(systems.RegisterDerived("img2x", "img", {2, 2, 1}, {0, 0, 0}).ok());
    ASSERT_TRUE(systems.RegisterDerived("imgoff", "img", {1, 1, 1}, {50, 50, 0}).ok());
    // Coordinates on a coarse grid, so annotations share referents.
    for (int i = 0; i < 90; ++i) {
      AnnotationBuilder b;
      b.Title("n" + std::to_string(i)).Body(std::string(Pick(kWords)) + " " + Pick(kWords));
      const int marks = 1 + Uniform(3);
      for (int m = 0; m < marks; ++m) {
        const uint64_t object = Uniform(4);  // 0: no object
        if (Uniform(2) == 0) {
          const int64_t lo = 10 * Uniform(40);
          b.MarkInterval(Pick(kIntervalDomains), lo, lo + 10 * (1 + Uniform(6)), object);
        } else {
          const double x = 5 * Uniform(20), y = 5 * Uniform(20);
          b.MarkRegion(Pick(kRegionSystems),
                       spatial::Rect::Make2D(x, y, x + 5 * (1 + Uniform(6)),
                                             y + 5 * (1 + Uniform(6))),
                       object);
        }
      }
      if (Uniform(2) == 0) {
        std::string term = Pick(kTerms);
        b.OntologyReference(term.substr(0, term.find(':')), term.substr(term.find(':') + 1));
      }
      ASSERT_TRUE(store_.Commit(b).ok());
    }
  }

  int Uniform(int n) { return static_cast<int>(rng_() % static_cast<uint64_t>(n)); }
  template <size_t N>
  const char* Pick(const char* const (&items)[N]) {
    return items[Uniform(N)];
  }

  std::string Interval() {
    const int lo = 10 * Uniform(40);
    return "[" + std::to_string(lo) + ", " + std::to_string(lo + 10 * (1 + Uniform(15))) + "]";
  }
  std::string RectText() {
    const int x = 10 * Uniform(15), y = 10 * Uniform(15);
    return "RECT [" + std::to_string(x) + ", " + std::to_string(y) + ", " +
           std::to_string(x + 10 * (2 + Uniform(12))) + ", " +
           std::to_string(y + 10 * (2 + Uniform(12))) + "]";
  }

  std::string ContentClauses(const std::string& v) {
    std::string out = "?" + v + " IS CONTENT ; ";
    const int n = Uniform(10) < 7 ? 1 + Uniform(10) / 8 : 0;  // 0, 1 or 2 keywords
    for (int i = 0; i < n; ++i) out += "?" + v + " CONTAINS \"" + Pick(kWords) + "\" ; ";
    return out;
  }

  std::string ReferentClauses(const std::string& v) {
    std::string out = "?" + v + " IS REFERENT ; ";
    std::string domain;
    if (Uniform(2) == 0) {
      domain = Uniform(2) == 0 ? Pick(kIntervalDomains) : Pick(kRegionSystems);
      out += "?" + v + " DOMAIN \"" + domain + "\" ; ";
    }
    if (Uniform(10) < 3) out += "?" + v + (Uniform(2) == 0 ? " TYPE interval ; " : " TYPE region ; ");
    const int windows = Uniform(10) < 6 ? 1 + Uniform(10) / 8 : 0;
    for (int i = 0; i < windows; ++i) {
      const bool rect = domain.empty() ? Uniform(2) == 0 : domain.rfind("img", 0) == 0;
      out += "?" + v + (Uniform(2) == 0 ? " OVERLAPS " : " CONTAINEDIN ") +
             (rect ? RectText() : Interval()) + " ; ";
    }
    return out;
  }

  std::string RandomQuery() {
    std::string where;
    std::string constrain;
    switch (Uniform(6)) {
      case 0:
        where = ContentClauses("a") + ReferentClauses("s") + "?a ANNOTATES ?s";
        break;
      case 1:
        where = ContentClauses("a") + ReferentClauses("s") + "?o IS OBJECT ; " +
                (Uniform(2) == 0 ? "?o TABLE \"objs\" ; " : "") + "?a ANNOTATES ?s ; ?s OF ?o";
        break;
      case 2:
        where = ContentClauses("a") + "?t IS TERM ; " +
                (Uniform(2) == 0 ? "?t TERM \"" + std::string(Pick(kTerms)) + "\" ; " : "") +
                ReferentClauses("s") + "?a REFERS ?t ; ?a ANNOTATES ?s";
        break;
      case 3:
      case 4: {
        where = ContentClauses("a") + ReferentClauses("s") + ReferentClauses("s2") +
                "?a ANNOTATES ?s ; ?a ANNOTATES ?s2";
        const char* kinds[] = {"consecutive", "disjoint", "overlapping", "samedomain", ""};
        std::string kind = Pick(kinds);
        if (!kind.empty()) constrain = " CONSTRAIN " + kind + "(?s, ?s2)";
        break;
      }
      default:
        // Two contents sharing a referent: ?s joins through two edges when
        // both contents bind first.
        where = ContentClauses("a") + ContentClauses("a2") + ReferentClauses("s") +
                "?a ANNOTATES ?s ; ?a2 ANNOTATES ?s";
        break;
    }
    return "FIND GRAPH WHERE { " + where + " }" + constrain + " LIMIT 1";
  }

  QueryContext Context() {
    QueryContext ctx;
    ctx.store = &store_;
    ctx.indexes = &indexes_;
    ctx.graph = &graph_;
    ctx.objects = &objects_;
    return ctx;
  }

  // ---- brute-force evaluator ----------------------------------------------

  bool KeepReferent(const Query& q, const std::string& v, const annotation::Referent& ref) {
    const substructure::Substructure& sub = ref.substructure;
    std::string domain;
    for (const Clause& c : q.clauses) {
      if (c.var == v && c.kind == Clause::Kind::kDomain) domain = c.text;
    }
    auto canonical = [&](const std::string& system, const spatial::Rect& r) {
      auto mapped = indexes_.coordinate_systems().ToCanonical(system, r);
      return mapped.ok() ? mapped->second : r;
    };
    for (const Clause& c : q.clauses) {
      if (c.var != v || !c.var2.empty()) continue;
      switch (c.kind) {
        case Clause::Kind::kDomain:
          if (sub.domain() != c.text) return false;
          break;
        case Clause::Kind::kType:
          if (substructure::SubTypeToString(sub.type()) != c.text) return false;
          break;
        case Clause::Kind::kOverlaps:
        case Clause::Kind::kContainedIn: {
          const bool overlaps = c.kind == Clause::Kind::kOverlaps;
          if (c.rect_window) {
            if (sub.type() != substructure::SubType::kRegion) return false;
            spatial::Rect window = canonical(domain.empty() ? c.text : domain, c.rect);
            spatial::Rect stored = canonical(sub.domain(), sub.rect());
            if (!(overlaps ? stored.Overlaps(window) : window.Contains(stored))) return false;
          } else {
            if (sub.type() != substructure::SubType::kInterval) return false;
            if (!(overlaps ? sub.interval().Overlaps(c.interval)
                           : c.interval.Contains(sub.interval()))) {
              return false;
            }
          }
          break;
        }
        default:
          break;
      }
    }
    return true;
  }

  std::vector<NodeRef> BruteCandidates(const Query& q, const std::string& v, VarKind kind) {
    std::vector<NodeRef> out;
    switch (kind) {
      case VarKind::kContent: {
        std::set<uint64_t> allowed;
        bool filtered = false;
        for (const Clause& c : q.clauses) {
          if (c.var != v || c.kind != Clause::Kind::kContains) continue;
          std::vector<uint64_t> hits = store_.SearchPhrase(c.text);
          std::set<uint64_t> hit_set(hits.begin(), hits.end());
          if (!filtered) {
            allowed = hit_set;
          } else {
            std::set<uint64_t> both;
            for (uint64_t id : allowed) {
              if (hit_set.count(id) > 0) both.insert(id);
            }
            allowed = both;
          }
          filtered = true;
        }
        store_.ForEachAnnotation([&](uint64_t id, const annotation::Annotation&) {
          if (!filtered || allowed.count(id) > 0) out.push_back(NodeRef::Content(id));
        });
        break;
      }
      case VarKind::kReferent:
        store_.ForEachReferent([&](uint64_t id, const annotation::Referent& ref) {
          if (KeepReferent(q, v, ref)) out.push_back(NodeRef::Referent(id));
        });
        break;
      case VarKind::kTerm:
        graph_.ForEachNodeOfKind(NodeKind::kOntologyTerm, [&](NodeRef n) {
          for (const Clause& c : q.clauses) {
            if (c.var != v || c.kind != Clause::Kind::kTerm) continue;
            auto node = store_.FindTermNode(c.text);
            if (!node.ok() || !(*node == n)) return;
          }
          out.push_back(n);
        });
        break;
      case VarKind::kObject:
        graph_.ForEachNodeOfKind(NodeKind::kDataObject, [&](NodeRef n) {
          for (const Clause& c : q.clauses) {
            if (c.var == v && c.kind == Clause::Kind::kTable && n.id != 1 && n.id != 2) return;
          }
          out.push_back(n);
        });
        break;
      case VarKind::kAny:
        break;
    }
    return out;
  }

  bool Linked(NodeRef x, NodeRef y, std::string_view label) {
    return graph_.HasEdge(x, y, label) || graph_.HasEdge(y, x, label);
  }

  static bool PairHolds(const std::string& kind, const substructure::Substructure& a,
                        const substructure::Substructure& b) {
    const bool same_domain = a.domain() == b.domain() && a.type() == b.type();
    if (kind == "samedomain") return same_domain;
    if (kind == "consecutive") {
      return same_domain && a.type() == substructure::SubType::kInterval &&
             a.interval().lo < b.interval().lo;
    }
    auto overlap = substructure::IfOverlap(a, b);
    if (!overlap.ok()) return false;
    return kind == "overlapping" ? *overlap : !*overlap;
  }

  // Every distinct sorted terminal set of a full binding, by nested loops
  // over each variable's brute-force candidates in declaration order.
  std::set<std::vector<NodeRef>> BruteForce(const Query& q) {
    std::vector<std::string> vars;
    std::map<std::string, VarKind> kinds;
    for (const Clause& c : q.clauses) {
      if (c.kind != Clause::Kind::kIs) continue;
      vars.push_back(c.var);
      kinds[c.var] = c.is_kind;
    }
    std::vector<std::vector<NodeRef>> candidates;
    for (const std::string& v : vars) candidates.push_back(BruteCandidates(q, v, kinds[v]));
    auto index_of = [&](const std::string& v) {
      return static_cast<size_t>(std::find(vars.begin(), vars.end(), v) - vars.begin());
    };

    std::set<std::vector<NodeRef>> rows;
    std::vector<NodeRef> row(vars.size());
    // Checks every edge clause and constraint whose variables are all bound
    // once variable `k` is.
    auto consistent = [&](size_t k) {
      for (const Clause& c : q.clauses) {
        if (c.var2.empty()) continue;
        const size_t i = index_of(c.var), j = index_of(c.var2);
        if (std::max(i, j) != k) continue;
        std::string_view label = c.kind == Clause::Kind::kAnnotates ? annotation::kEdgeAnnotates
                                 : c.kind == Clause::Kind::kRefersTo
                                     ? annotation::kEdgeRefersTo
                                     : annotation::kEdgeOfObject;
        if (!Linked(row[i], row[j], label)) return false;
      }
      for (const Constraint& cons : q.constraints) {
        const size_t i = index_of(cons.vars[0]), j = index_of(cons.vars[1]);
        if (std::max(i, j) != k) continue;
        const std::string kind = cons.kind == Constraint::Kind::kConsecutive  ? "consecutive"
                                 : cons.kind == Constraint::Kind::kDisjoint    ? "disjoint"
                                 : cons.kind == Constraint::Kind::kOverlapping ? "overlapping"
                                                                               : "samedomain";
        if (!PairHolds(kind, store_.GetReferent(row[i].id)->substructure,
                       store_.GetReferent(row[j].id)->substructure)) {
          return false;
        }
      }
      return true;
    };
    std::function<void(size_t)> bind = [&](size_t k) {
      if (k == vars.size()) {
        std::vector<NodeRef> terminals = row;
        std::sort(terminals.begin(), terminals.end());
        terminals.erase(std::unique(terminals.begin(), terminals.end()), terminals.end());
        rows.insert(terminals);
        return;
      }
      for (NodeRef n : candidates[k]) {
        row[k] = n;
        if (consistent(k)) bind(k + 1);
      }
    };
    bind(0);
    return rows;
  }

  spatial::IndexManager indexes_;
  agraph::AGraph graph_;
  annotation::AnnotationStore store_;
  TableObjects objects_;
  std::mt19937_64 rng_;
};

TEST_P(JoinOracleTest, EveryJoinMatchesNestedLoops) {
  size_t nonempty = 0;
  for (int i = 0; i < 60; ++i) {
    const std::string text = RandomQuery();
    SCOPED_TRACE(text);
    auto parsed = ParseQuery(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    const std::set<std::vector<NodeRef>> expected = BruteForce(*parsed);
    if (!expected.empty()) ++nonempty;

    for (bool selectivity : {true, false}) {
      std::vector<std::vector<NodeRef>> serial_items;
      for (size_t workers : {1, 3}) {
        SCOPED_TRACE("selectivity order " + std::to_string(selectivity) + ", workers " +
                     std::to_string(workers));
        ExecutorOptions options;
        options.use_selectivity_order = selectivity;
        options.workers = workers;
        auto result = Executor(Context(), options).Execute(*parsed);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        std::vector<std::vector<NodeRef>> items;
        for (const ResultItem& item : result->items) items.push_back(item.terminals);
        EXPECT_EQ(std::set<std::vector<NodeRef>>(items.begin(), items.end()), expected);
        EXPECT_EQ(items.size(), expected.size()) << "duplicate rows";
        if (workers == 1) {
          serial_items = items;
        } else {
          EXPECT_EQ(items, serial_items) << "parallel join reordered rows";
        }
      }
    }
  }
  // The generator must exercise joins that produce rows.
  EXPECT_GE(nonempty, 15u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinOracleTest, ::testing::Values(11, 29, 4242));

}  // namespace
}  // namespace query
}  // namespace graphitti
