#include <gtest/gtest.h>

#include "annotation/annotation_store.h"
#include "query/executor.h"
#include "query/parser.h"

namespace graphitti {
namespace query {
namespace {

using annotation::AnnotationBuilder;
using annotation::AnnotationId;

class FakeObjects : public ObjectResolver {
 public:
  util::Result<std::vector<uint64_t>> FindObjects(
      const std::string& table, const relational::Predicate& filter) const override {
    (void)filter;
    if (table == "dna_sequences") return std::vector<uint64_t>{42, 43};
    return util::Status::NotFound("no table " + table);
  }
  std::string DescribeObject(uint64_t id) const override {
    return "obj" + std::to_string(id);
  }
};

class FakeOntologies : public OntologyResolver {
 public:
  std::vector<std::string> ExpandTermBelow(const std::string& qualified) const override {
    if (qualified == "nif:PARENT") return {"nif:PARENT", "nif:CHILD1", "nif:CHILD2"};
    return {qualified};
  }
};

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest() : store_(&indexes_, &graph_) {}

  void SetUp() override {
    // Four protease annotations on consecutive disjoint intervals of seg4
    // (the Fig. 3 workload), plus noise annotations.
    struct Spec {
      int64_t lo, hi;
      const char* body;
      const char* term;
    };
    const Spec specs[] = {
        {100, 200, "protease motif alpha", "nif:CHILD1"},
        {300, 400, "protease motif beta", "nif:CHILD2"},
        {500, 600, "protease motif gamma", nullptr},
        {700, 800, "protease motif delta", nullptr},
        {150, 350, "receptor overlap noise", nullptr},   // overlaps the first two
        {900, 950, "unrelated body text", "nif:OTHER"},
    };
    int i = 0;
    for (const Spec& s : specs) {
      AnnotationBuilder b;
      b.Title("ann" + std::to_string(i++)).Body(s.body);
      b.MarkInterval("flu:seg4", s.lo, s.hi, /*object_id=*/42);
      if (s.term != nullptr) {
        // OntologyReference takes (ontology, term); split at ':'.
        std::string q(s.term);
        b.OntologyReference(q.substr(0, q.find(':')), q.substr(q.find(':') + 1));
      }
      auto id = store_.Commit(b);
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      ids_.push_back(*id);
    }
  }

  QueryContext Context() {
    QueryContext ctx;
    ctx.store = &store_;
    ctx.indexes = &indexes_;
    ctx.graph = &graph_;
    ctx.objects = &objects_;
    ctx.ontologies = &ontologies_;
    return ctx;
  }

  util::Result<QueryResult> Run(std::string_view text) {
    Executor ex(Context());
    return ex.ExecuteText(text);
  }

  spatial::IndexManager indexes_;
  agraph::AGraph graph_;
  annotation::AnnotationStore store_;
  FakeObjects objects_;
  FakeOntologies ontologies_;
  std::vector<AnnotationId> ids_;
};

TEST_F(ExecutorTest, ContainsFindsContents) {
  auto r = Run("FIND CONTENTS WHERE { ?a CONTAINS \"protease\" }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->items.size(), 4u);
  EXPECT_EQ(r->items[0].content_id, ids_[0]);
}

TEST_F(ExecutorTest, XPathFilter) {
  auto r = Run(
      "FIND CONTENTS WHERE { ?a XPATH \"/annotation[contains(body,'gamma')]\" }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->items.size(), 1u);
  EXPECT_EQ(r->items[0].content_id, ids_[2]);
}

TEST_F(ExecutorTest, SpatialWindowNarrowsReferents) {
  auto r = Run(
      "FIND REFERENTS WHERE { ?s TYPE interval ; ?s DOMAIN \"flu:seg4\" ; "
      "?s OVERLAPS [350, 550] }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Intervals overlapping [350,550]: [300,400], [500,600], [150,350].
  EXPECT_EQ(r->items.size(), 3u);
  for (const auto& item : r->items) {
    EXPECT_TRUE(item.substructure.interval().Overlaps({350, 550}));
  }
}

TEST_F(ExecutorTest, EdgeJoinContentToReferent) {
  auto r = Run(
      "FIND CONTENTS WHERE { ?a CONTAINS \"alpha\" ; ?s IS REFERENT ; ?a ANNOTATES ?s ; "
      "?s OVERLAPS [0, 250] ; ?s DOMAIN \"flu:seg4\" }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->items.size(), 1u);
  EXPECT_EQ(r->items[0].content_id, ids_[0]);
}

TEST_F(ExecutorTest, TermJoin) {
  auto r = Run(
      "FIND CONTENTS WHERE { ?a IS CONTENT ; ?t TERM \"nif:CHILD1\" ; ?a REFERS ?t }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->items.size(), 1u);
  EXPECT_EQ(r->items[0].content_id, ids_[0]);
}

TEST_F(ExecutorTest, TermBelowExpandsOntology) {
  auto r = Run(
      "FIND CONTENTS WHERE { ?a IS CONTENT ; ?t TERM BELOW \"nif:PARENT\" ; ?a REFERS ?t }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->items.size(), 2u);  // CHILD1 + CHILD2 annotations
}

TEST_F(ExecutorTest, ObjectJoinViaTable) {
  auto r = Run(
      "FIND CONTENTS WHERE { ?a CONTAINS \"protease\" ; ?s IS REFERENT ; ?a ANNOTATES ?s ;"
      " ?o TABLE \"dna_sequences\" ; ?s OF ?o }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->items.size(), 4u);  // all protease annotations mark object 42
}

TEST_F(ExecutorTest, TheFigure3ProteaseQuery) {
  // "4 consecutive non-overlapping intervals in the sequence [each having]
  // annotations having the keyword protease".
  auto r = Run(R"(FIND GRAPH WHERE {
      ?a1 CONTAINS "protease" ; ?a2 CONTAINS "protease" ;
      ?a3 CONTAINS "protease" ; ?a4 CONTAINS "protease" ;
      ?s1 IS REFERENT ; ?s2 IS REFERENT ; ?s3 IS REFERENT ; ?s4 IS REFERENT ;
      ?a1 ANNOTATES ?s1 ; ?a2 ANNOTATES ?s2 ;
      ?a3 ANNOTATES ?s3 ; ?a4 ANNOTATES ?s4 ;
    } CONSTRAIN consecutive(?s1, ?s2, ?s3, ?s4), disjoint(?s1, ?s2, ?s3, ?s4))");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Exactly one assignment satisfies the ordering: the four protease marks.
  ASSERT_EQ(r->items.size(), 1u);
  ASSERT_TRUE(r->items[0].subgraph_ready);  // page 1 is materialized eagerly
  const agraph::SubGraph& sg = r->items[0].subgraph;
  EXPECT_GE(sg.nodes.size(), 8u);  // 4 contents + 4 referents
  // Graph target pages one subgraph per page.
  EXPECT_EQ(r->Page().size(), 1u);
  EXPECT_EQ(r->total_pages, 1u);
  EXPECT_EQ(r->stats.subgraphs_materialized, 1u);
}

TEST_F(ExecutorTest, ConstraintsPruneViolations) {
  // Without disjoint, the overlapping noise referent can appear; with
  // overlapping() we find pairs that do overlap.
  auto r = Run(R"(FIND GRAPH WHERE {
      ?s1 IS REFERENT ; ?s1 DOMAIN "flu:seg4" ;
      ?s2 IS REFERENT ; ?s2 DOMAIN "flu:seg4" ;
    } CONSTRAIN overlapping(?s1, ?s2), consecutive(?s1, ?s2))");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Pairs (a,b) with a.lo < b.lo and overlap: ([100,200],[150,350]) and
  // ([150,350],[300,400]).
  EXPECT_EQ(r->items.size(), 2u);
}

TEST_F(ExecutorTest, ReferentsTargetReturnsSubstructures) {
  auto r = Run(
      "FIND REFERENTS ?s WHERE { ?a CONTAINS \"alpha\" ; ?s IS REFERENT ; ?a ANNOTATES ?s }");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->items.size(), 1u);
  EXPECT_EQ(r->items[0].substructure.interval(), spatial::Interval(100, 200));
}

TEST_F(ExecutorTest, FragmentsTarget) {
  auto r = Run(
      "FIND FRAGMENTS ?a XPATH \"/annotation/dc:title\" WHERE "
      "{ ?a CONTAINS \"protease\" }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->items.size(), 4u);
  EXPECT_EQ(r->items[0].fragment, "<dc:title>ann0</dc:title>");
}

TEST_F(ExecutorTest, PagingSlicesItems) {
  auto r = Run("FIND CONTENTS WHERE { ?a CONTAINS \"protease\" } LIMIT 3 PAGE 1");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->items.size(), 4u);
  EXPECT_EQ(r->Page().size(), 3u);
  EXPECT_EQ(r->total_pages, 2u);
  auto r2 = Run("FIND CONTENTS WHERE { ?a CONTAINS \"protease\" } LIMIT 3 PAGE 2");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->Page().size(), 1u);
  EXPECT_EQ(r2->Page()[0].content_id, r2->items[3].content_id);
  // Page overflow clamps to the last page.
  auto r3 = Run("FIND CONTENTS WHERE { ?a CONTAINS \"protease\" } LIMIT 3 PAGE 99");
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(r3->page, 2u);
}

TEST_F(ExecutorTest, PageZeroFromContextApiClampsToFirstPage) {
  // The parser guards PAGE >= 1, but a programmatically built Query does
  // not; page == 0 used to underflow (page - 1) * page_size to SIZE_MAX.
  auto q = ParseQuery("FIND CONTENTS WHERE { ?a CONTAINS \"protease\" } LIMIT 3 PAGE 1");
  ASSERT_TRUE(q.ok());
  q->page = 0;
  Executor ex(Context());
  auto r = ex.Execute(*q);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->page, 1u);
  EXPECT_EQ(r->Page().size(), 3u);
  EXPECT_EQ(r->Page()[0].content_id, r->items[0].content_id);
}

TEST_F(ExecutorTest, SelectivityOrderBindsSmallSetsFirst) {
  auto r = Run(
      "FIND CONTENTS WHERE { ?a IS CONTENT ; ?b CONTAINS \"alpha\" ; ?a CONNECTED ?b }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // ?b has 1 candidate, ?a has 6; selectivity order binds ?b first.
  ASSERT_EQ(r->stats.binding_order.size(), 2u);
  EXPECT_EQ(r->stats.binding_order[0], "b");
}

TEST_F(ExecutorTest, NaiveOrderFollowsDeclaration) {
  ExecutorOptions opts;
  opts.use_selectivity_order = false;
  Executor ex(Context(), opts);
  auto r = ex.ExecuteText(
      "FIND CONTENTS WHERE { ?a IS CONTENT ; ?b CONTAINS \"alpha\" ; ?a CONNECTED ?b }");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats.binding_order[0], "a");
  EXPECT_GE(r->stats.rows_examined, 6u);
}

TEST_F(ExecutorTest, StatsTrackCandidatesAndRows) {
  auto r = Run("FIND CONTENTS WHERE { ?a CONTAINS \"protease\" }");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->stats.candidate_counts.size(), 1u);
  EXPECT_EQ(r->stats.candidate_counts[0], 4u);
  EXPECT_EQ(r->stats.items_produced, 4u);
}

TEST_F(ExecutorTest, ErrorPaths) {
  // Unknown kind inference.
  EXPECT_TRUE(Run("FIND CONTENTS WHERE { ?a CONNECTED ?b }").status().IsInvalidArgument());
  // Conflicting kinds.
  EXPECT_TRUE(Run("FIND CONTENTS WHERE { ?a CONTAINS \"x\" ; ?a TYPE interval }")
                  .status()
                  .IsTypeError());
  // Constraint on non-referent variable.
  EXPECT_TRUE(Run("FIND GRAPH WHERE { ?a IS CONTENT ; ?b IS CONTENT } "
                  "CONSTRAIN disjoint(?a, ?b)")
                  .status()
                  .IsTypeError());
  // Constraint on unknown variable.
  EXPECT_TRUE(Run("FIND GRAPH WHERE { ?s IS REFERENT } CONSTRAIN disjoint(?s, ?zz)")
                  .status()
                  .IsInvalidArgument());
  // Unknown target var.
  EXPECT_TRUE(Run("FIND CONTENTS ?zz WHERE { ?a IS CONTENT }").status().IsInvalidArgument());
  // No content variable for a CONTENTS target.
  EXPECT_TRUE(Run("FIND CONTENTS WHERE { ?s IS REFERENT }").status().IsInvalidArgument());
  // Missing context pieces.
  QueryContext empty;
  Executor broken(empty);
  EXPECT_TRUE(broken.ExecuteText("FIND CONTENTS WHERE { ?a IS CONTENT }")
                  .status()
                  .IsInvalidArgument());
}

TEST_F(ExecutorTest, ResolverlessContextRejectsTableAndBelow) {
  QueryContext ctx = Context();
  ctx.objects = nullptr;
  ctx.ontologies = nullptr;
  Executor ex(ctx);
  EXPECT_TRUE(ex.ExecuteText("FIND CONTENTS WHERE { ?a IS CONTENT ; "
                             "?o TABLE \"dna_sequences\" ; ?a CONNECTED ?o }")
                  .status()
                  .IsUnsupported());
  EXPECT_TRUE(ex.ExecuteText("FIND CONTENTS WHERE { ?a IS CONTENT ; "
                             "?t TERM BELOW \"nif:PARENT\" ; ?a REFERS ?t }")
                  .status()
                  .IsUnsupported());
}

TEST_F(ExecutorTest, RowLimitGuard) {
  ExecutorOptions opts;
  opts.max_intermediate_rows = 2;
  Executor ex(Context(), opts);
  auto r = ex.ExecuteText("FIND CONTENTS WHERE { ?a IS CONTENT ; ?b IS CONTENT ; "
                          "?c IS CONTENT ; ?a CONNECTED ?b }");
  EXPECT_TRUE(r.status().IsOutOfRange());
}

TEST_F(ExecutorTest, RowLimitBoundaryIsInclusive) {
  // The fixture holds exactly 6 annotations, so binding ?a materializes a
  // 6-row level: a limit of exactly 6 must pass, 5 must fail.
  ExecutorOptions at_limit;
  at_limit.max_intermediate_rows = 6;
  auto ok = Executor(Context(), at_limit).ExecuteText("FIND CONTENTS WHERE { ?a IS CONTENT }");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->items.size(), 6u);
  EXPECT_EQ(ok->stats.peak_rows, 6u);

  ExecutorOptions one_under;
  one_under.max_intermediate_rows = 5;
  auto fail =
      Executor(Context(), one_under).ExecuteText("FIND CONTENTS WHERE { ?a IS CONTENT }");
  EXPECT_TRUE(fail.status().IsOutOfRange());
}

TEST_F(ExecutorTest, PeakStatsTrackBindingTable) {
  auto r = Run(
      "FIND CONTENTS WHERE { ?a CONTAINS \"protease\" ; ?s IS REFERENT ; ?a ANNOTATES ?s }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // 4 protease contents, each annotating one referent: both levels hold 4
  // rows, and the columnar table stores every level (values + parents).
  EXPECT_EQ(r->stats.peak_rows, 4u);
  EXPECT_GT(r->stats.peak_bytes, 0u);
  EXPECT_LE(r->stats.peak_bytes,
            r->stats.rows_examined * (sizeof(agraph::NodeRef) + sizeof(uint32_t)));
}

TEST_F(ExecutorTest, ConnectedHonorsHopBudget) {
  // Two protease contents connect through referents and the shared data
  // object (content - referent - object - referent - content = 4 hops).
  const char* q =
      "FIND CONTENTS WHERE { ?a CONTAINS \"alpha\" ; ?b CONTAINS \"beta\" ; "
      "?a CONNECTED ?b }";
  auto within = Run(q);  // default hop budget is 6
  ASSERT_TRUE(within.ok()) << within.status().ToString();
  EXPECT_EQ(within->items.size(), 1u);

  ExecutorOptions tight;
  tight.default_connected_hops = 3;
  auto beyond = Executor(Context(), tight).ExecuteText(q);
  ASSERT_TRUE(beyond.ok());
  EXPECT_TRUE(beyond->items.empty());
}

TEST_F(ExecutorTest, EmptyResultIsOkNotError) {
  auto r = Run("FIND CONTENTS WHERE { ?a CONTAINS \"zzz-no-such-keyword\" }");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->items.empty());
  EXPECT_TRUE(r->Page().empty());
  // Zero results means zero pages — Explain must not claim a page exists.
  EXPECT_EQ(r->total_pages, 0u);
  EXPECT_EQ(r->page, 0u);
}

TEST_F(ExecutorTest, GraphCollationIsLazyPerPage) {
  // Pair query: 4 protease annotations x 4 give 16 binding rows, deduped
  // on the unordered terminal set to 10 distinct rows over 5 pages.
  const char* q = R"(FIND GRAPH WHERE {
      ?a1 CONTAINS "protease" ; ?a2 CONTAINS "protease" ;
      ?s1 IS REFERENT ; ?s2 IS REFERENT ;
      ?a1 ANNOTATES ?s1 ; ?a2 ANNOTATES ?s2 ;
    } LIMIT 2 PAGE 1)";
  auto r = Run(q);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->items.size(), 10u);
  EXPECT_EQ(r->total_pages, 5u);
  // Subgraph construction is proportional to the requested page, not the
  // result size: only page 1's two rows were materialized.
  EXPECT_EQ(r->stats.subgraphs_materialized, 2u);
  for (size_t i = 0; i < r->items.size(); ++i) {
    EXPECT_EQ(r->items[i].subgraph_ready, i < 2) << "item " << i;
    EXPECT_FALSE(r->items[i].terminals.empty()) << "item " << i;
    if (i >= 2) EXPECT_TRUE(r->items[i].subgraph.nodes.empty()) << "item " << i;
  }
  // The memory the result holds for its connect trees is visible in the
  // stats and in Explain.
  ASSERT_NE(r->connect_batch, nullptr);
  EXPECT_GT(r->stats.connect_tree_bytes, 0u);
  EXPECT_EQ(r->stats.connect_tree_bytes, r->connect_batch->tree_bytes());
  auto plan = Executor(Context()).ExplainText(q);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find(" bytes held)"), std::string::npos) << *plan;
}

TEST_F(ExecutorTest, MaterializePageIsOrderIndependent) {
  const char* q = R"(FIND GRAPH WHERE {
      ?a1 CONTAINS "protease" ; ?a2 CONTAINS "protease" ;
      ?s1 IS REFERENT ; ?s2 IS REFERENT ;
      ?a1 ANNOTATES ?s1 ; ?a2 ANNOTATES ?s2 ;
    } LIMIT 2 PAGE 1)";
  Executor ex(Context());
  // (a) jump straight to page 3; (b) flip through page 2 first.
  auto direct = ex.ExecuteText(q);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  ASSERT_TRUE(ex.MaterializePage(&*direct, 3).ok());
  auto flipped = ex.ExecuteText(q);
  ASSERT_TRUE(flipped.ok());
  ASSERT_TRUE(ex.MaterializePage(&*flipped, 2).ok());
  ASSERT_TRUE(ex.MaterializePage(&*flipped, 3).ok());
  EXPECT_EQ(direct->page, 3u);
  EXPECT_EQ(flipped->page, 3u);
  ASSERT_EQ(direct->Page().size(), flipped->Page().size());
  for (size_t i = 0; i < direct->Page().size(); ++i) {
    ASSERT_TRUE(direct->Page()[i].subgraph_ready);
    ASSERT_TRUE(flipped->Page()[i].subgraph_ready);
    // Page 3's subgraphs are bit-identical whether or not page 2 was
    // materialized first, and identical to a per-row Connect on the handle.
    EXPECT_EQ(direct->Page()[i].subgraph.nodes, flipped->Page()[i].subgraph.nodes);
    EXPECT_EQ(direct->Page()[i].subgraph.edges, flipped->Page()[i].subgraph.edges);
    auto per_row = graph_.Connect(direct->Page()[i].terminals);
    ASSERT_TRUE(per_row.ok());
    EXPECT_EQ(direct->Page()[i].subgraph.nodes, per_row->nodes);
    EXPECT_EQ(direct->Page()[i].subgraph.edges, per_row->edges);
  }
  // Re-materializing an already-built page is a no-op.
  size_t built = flipped->stats.subgraphs_materialized;
  ASSERT_TRUE(ex.MaterializePage(&*flipped, 2).ok());
  EXPECT_EQ(flipped->stats.subgraphs_materialized, built);
}

TEST_F(ExecutorTest, SelectivityAndNaiveOrdersAgreeOnResults) {
  const char* q =
      "FIND CONTENTS WHERE { ?a CONTAINS \"protease\" ; ?s IS REFERENT ; "
      "?a ANNOTATES ?s ; ?s OVERLAPS [0, 450] ; ?s DOMAIN \"flu:seg4\" }";
  ExecutorOptions naive;
  naive.use_selectivity_order = false;
  auto fast = Executor(Context()).ExecuteText(q);
  auto slow = Executor(Context(), naive).ExecuteText(q);
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(slow.ok());
  std::vector<AnnotationId> a, b;
  for (const auto& i : fast->items) a.push_back(i.content_id);
  for (const auto& i : slow->items) b.push_back(i.content_id);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

TEST_F(ExecutorTest, OrderingsAgreeOnMultiVariableJoins) {
  // Four variables, two join edges, constraints and a GRAPH target: the
  // binding orders differ, the collated result sets must not.
  const char* q = R"(FIND GRAPH WHERE {
      ?a1 CONTAINS "protease" ; ?a2 CONTAINS "protease" ;
      ?s1 IS REFERENT ; ?s2 IS REFERENT ;
      ?a1 ANNOTATES ?s1 ; ?a2 ANNOTATES ?s2 ;
    } CONSTRAIN consecutive(?s1, ?s2), disjoint(?s1, ?s2))";
  ExecutorOptions naive;
  naive.use_selectivity_order = false;
  auto fast = Executor(Context()).ExecuteText(q);
  auto slow = Executor(Context(), naive).ExecuteText(q);
  ASSERT_TRUE(fast.ok()) << fast.status().ToString();
  ASSERT_TRUE(slow.ok()) << slow.status().ToString();
  EXPECT_NE(fast->stats.binding_order, slow->stats.binding_order);

  auto subgraph_keys = [](const QueryResult& r) {
    std::vector<std::vector<agraph::NodeRef>> keys;
    for (const auto& item : r.items) keys.push_back(item.terminals);
    std::sort(keys.begin(), keys.end());
    return keys;
  };
  EXPECT_EQ(subgraph_keys(*fast), subgraph_keys(*slow));

  // Same check on a 3-variable CONTENTS query through the object join.
  const char* q2 =
      "FIND CONTENTS WHERE { ?a CONTAINS \"protease\" ; ?s IS REFERENT ; ?a ANNOTATES ?s ;"
      " ?o TABLE \"dna_sequences\" ; ?s OF ?o }";
  auto fast2 = Executor(Context()).ExecuteText(q2);
  auto slow2 = Executor(Context(), naive).ExecuteText(q2);
  ASSERT_TRUE(fast2.ok());
  ASSERT_TRUE(slow2.ok());
  std::vector<AnnotationId> a, b;
  for (const auto& i : fast2->items) a.push_back(i.content_id);
  for (const auto& i : slow2->items) b.push_back(i.content_id);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

TEST_F(ExecutorTest, ParallelWorkersMatchSerialBitForBit) {
  // Chunked candidate filtering, per-worker join shards, and parallel
  // connect-tree expansion all merge back in deterministic chunk order,
  // so a parallel executor must reproduce the serial result exactly --
  // item order, subgraphs, and join stats included (not just set-equal).
  const char* queries[] = {
      "FIND CONTENTS WHERE { ?a CONTAINS \"motif\" ; "
      "?a XPATH \"/annotation[contains(body,'protease')]\" }",
      R"(FIND GRAPH WHERE {
        ?a1 CONTAINS "protease" ; ?a2 CONTAINS "protease" ;
        ?s1 IS REFERENT ; ?s2 IS REFERENT ;
        ?a1 ANNOTATES ?s1 ; ?a2 ANNOTATES ?s2 ;
      } CONSTRAIN disjoint(?s1, ?s2) LIMIT 4 PAGE 1)",
  };
  for (const char* q : queries) {
    SCOPED_TRACE(q);
    auto serial = Executor(Context()).ExecuteText(q);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    ExecutorOptions par;
    par.workers = 4;
    Executor pex(Context(), par);
    auto parallel = pex.ExecuteText(q);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    ASSERT_EQ(serial->items.size(), parallel->items.size());
    for (size_t i = 0; i < serial->items.size(); ++i) {
      EXPECT_EQ(serial->items[i].content_id, parallel->items[i].content_id);
      EXPECT_EQ(serial->items[i].terminals, parallel->items[i].terminals);
      EXPECT_EQ(serial->items[i].subgraph.nodes, parallel->items[i].subgraph.nodes);
      EXPECT_EQ(serial->items[i].subgraph.edges, parallel->items[i].subgraph.edges);
    }
    EXPECT_EQ(serial->stats.rows_examined, parallel->stats.rows_examined);
    EXPECT_EQ(serial->stats.items_produced, parallel->stats.items_produced);
    EXPECT_EQ(serial->stats.peak_rows, parallel->stats.peak_rows);
    EXPECT_EQ(serial->stats.binding_order, parallel->stats.binding_order);
    // Later page flips through the parallel executor reuse the batch
    // cached on the result and still match a fresh serial materialization.
    if (parallel->total_pages > 1) {
      ASSERT_TRUE(pex.MaterializePage(&*parallel, 2).ok());
      ASSERT_TRUE(Executor(Context()).MaterializePage(&*serial, 2).ok());
      ASSERT_EQ(serial->Page().size(), parallel->Page().size());
      for (size_t i = 0; i < serial->Page().size(); ++i) {
        EXPECT_EQ(serial->Page()[i].subgraph.nodes, parallel->Page()[i].subgraph.nodes);
        EXPECT_EQ(serial->Page()[i].subgraph.edges, parallel->Page()[i].subgraph.edges);
      }
    }
  }
}

}  // namespace
}  // namespace query
}  // namespace graphitti
