// Tests for the query-language extensions: COUNT target, CONTAINEDIN
// windows, CREATOR sugar, and EXPLAIN plans.
#include <gtest/gtest.h>

#include "core/graphitti.h"
#include "query/parser.h"

namespace graphitti {
namespace query {
namespace {

using annotation::AnnotationBuilder;
using core::Graphitti;

class QueryExtensionsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(g_.RegisterCoordinateSystem("atlas", 2).ok());
    ASSERT_TRUE(
        g_.RegisterDerivedCoordinateSystem("atlas2x", "atlas", {2, 2, 1}, {0, 0, 0}).ok());
    obj_ = *g_.IngestDnaSequence("A1", "H5N1", "chr1", std::string(1000, 'A'));

    auto add = [&](const char* title, const char* creator, int64_t lo, int64_t hi) {
      AnnotationBuilder b;
      b.Title(title).Creator(creator).Body("protease text").MarkInterval("chr1", lo, hi,
                                                                         obj_);
      ASSERT_TRUE(g_.Commit(b).ok());
    };
    add("a1", "alice", 0, 50);
    add("a2", "alice", 100, 150);
    add("a3", "bob", 120, 400);

    AnnotationBuilder region1;
    region1.Title("r1").Creator("carol").Body("region note");
    region1.MarkRegion("atlas", spatial::Rect::Make2D(10, 10, 20, 20));
    ASSERT_TRUE(g_.Commit(region1).ok());
    AnnotationBuilder region2;
    region2.Title("r2").Creator("carol").Body("region note two");
    // In atlas2x local coords [30,30]-[60,60] -> canonical [60,60]-[120,120].
    region2.MarkRegion("atlas2x", spatial::Rect::Make2D(30, 30, 60, 60));
    ASSERT_TRUE(g_.Commit(region2).ok());
  }

  Graphitti g_;
  uint64_t obj_ = 0;
};

TEST_F(QueryExtensionsTest, CountTarget) {
  auto r = g_.Query("FIND COUNT ?a WHERE { ?a CONTAINS \"protease\" }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->items.size(), 1u);
  EXPECT_EQ(r->items[0].count, 3u);
  EXPECT_EQ(r->items[0].label, "count(?a) = 3");
}

TEST_F(QueryExtensionsTest, CountDefaultsToFirstVariable) {
  auto r = g_.Query(
      "FIND COUNT WHERE { ?s IS REFERENT ; ?s DOMAIN \"chr1\" ; ?a IS CONTENT ; "
      "?a ANNOTATES ?s }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->items[0].count, 3u);  // ?s declared first: three interval referents
}

TEST_F(QueryExtensionsTest, CountZeroWhenNoMatches) {
  auto r = g_.Query("FIND COUNT ?a WHERE { ?a CONTAINS \"nothing-here\" }");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->items[0].count, 0u);
}

TEST_F(QueryExtensionsTest, ContainedInInterval) {
  auto r = g_.Query(
      "FIND REFERENTS WHERE { ?s TYPE interval ; ?s DOMAIN \"chr1\" ; "
      "?s CONTAINEDIN [90, 200] }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Only [100,150] is fully inside [90,200]; [120,400] merely overlaps.
  ASSERT_EQ(r->items.size(), 1u);
  EXPECT_EQ(r->items[0].substructure.interval(), spatial::Interval(100, 150));
}

TEST_F(QueryExtensionsTest, OverlapsVersusContainedIn) {
  auto overlaps = g_.Query(
      "FIND COUNT ?s WHERE { ?s TYPE interval ; ?s DOMAIN \"chr1\" ; "
      "?s OVERLAPS [90, 200] }");
  auto contained = g_.Query(
      "FIND COUNT ?s WHERE { ?s TYPE interval ; ?s DOMAIN \"chr1\" ; "
      "?s CONTAINEDIN [90, 200] }");
  ASSERT_TRUE(overlaps.ok());
  ASSERT_TRUE(contained.ok());
  EXPECT_EQ(overlaps->items[0].count, 2u);
  EXPECT_EQ(contained->items[0].count, 1u);
  EXPECT_LE(contained->items[0].count, overlaps->items[0].count);
}

TEST_F(QueryExtensionsTest, ContainedInRectCanonicalizesAcrossSystems) {
  // Canonical window [50,50]-[130,130] contains the atlas2x region
  // (canonical [60,120]^2) but not the atlas region ([10,20]^2).
  auto r = g_.Query(
      "FIND REFERENTS WHERE { ?s TYPE region ; ?s DOMAIN \"atlas\" ; "
      "?s CONTAINEDIN RECT [50, 50, 130, 130] }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->items.size(), 0u);  // atlas2x referent has domain "atlas2x"

  auto r2 = g_.Query(
      "FIND REFERENTS WHERE { ?s TYPE region ; ?s DOMAIN \"atlas2x\" ; "
      "?s CONTAINEDIN RECT [25, 25, 65, 65] }");
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  // Window given in atlas2x local coords: [25,65]^2 local = [50,130]^2
  // canonical, containing the region.
  EXPECT_EQ(r2->items.size(), 1u);
}

TEST_F(QueryExtensionsTest, RectWindowsWithoutDomainCompareCanonicalAcrossSystems) {
  // Without DOMAIN a rect window is in canonical coordinates, and each
  // region compares in canonical coordinates of its own system. Referents
  // stream in id order, so the systems interleave: atlas, atlas2x,
  // atlasoff, atlas.
  ASSERT_TRUE(g_.RegisterDerivedCoordinateSystem("atlasoff", "atlas", {1, 1, 1},
                                                 {100, 100, 0})
                  .ok());
  AnnotationBuilder region3;
  region3.Title("r3").Creator("carol").Body("offset region");
  // Local [0,0]-[10,10] -> canonical [100,100]-[110,110].
  region3.MarkRegion("atlasoff", spatial::Rect::Make2D(0, 0, 10, 10));
  ASSERT_TRUE(g_.Commit(region3).ok());
  AnnotationBuilder region4;
  region4.Title("r4").Creator("carol").Body("canonical region");
  region4.MarkRegion("atlas", spatial::Rect::Make2D(100, 100, 105, 105));
  ASSERT_TRUE(g_.Commit(region4).ok());

  auto domains = [&](const char* window) {
    auto r = g_.Query(std::string("FIND REFERENTS WHERE { ?s TYPE region ; ?s ") + window +
                      " }");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    std::vector<std::string> out;
    if (!r.ok()) return out;
    for (const auto& item : r->items) {
      const spatial::Rect& rect = item.substructure.rect();
      out.push_back(item.substructure.domain() + "@" + std::to_string(int(rect.lo[0])));
    }
    return out;
  };
  using Names = std::vector<std::string>;
  // Canonical [60,120]^2 (atlas2x) and [100,110]^2 (atlasoff) lie inside;
  // their local rects ([30,60]^2, [0,10]^2) would not.
  EXPECT_EQ(domains("CONTAINEDIN RECT [50, 50, 130, 130]"),
            (Names{"atlas2x@30", "atlasoff@0", "atlas@100"}));
  EXPECT_EQ(domains("CONTAINEDIN RECT [95, 95, 125, 125]"), (Names{"atlasoff@0", "atlas@100"}));
  // The local atlas2x and atlasoff rects overlap [0,0]-[35,35]; in
  // canonical coordinates only the atlas region [10,20]^2 does.
  EXPECT_EQ(domains("OVERLAPS RECT [0, 0, 35, 35]"), (Names{"atlas@10"}));
  EXPECT_EQ(domains("OVERLAPS RECT [0, 0, 200, 200]"),
            (Names{"atlas@10", "atlas2x@30", "atlasoff@0", "atlas@100"}));
  // Two windows: both canonical, both must hold.
  EXPECT_EQ(domains("OVERLAPS RECT [100, 100, 200, 200] ; ?s CONTAINEDIN RECT [0, 0, 108, 108]"),
            (Names{"atlas@100"}));
}

TEST_F(QueryExtensionsTest, CreatorSugar) {
  auto alice = g_.Query("FIND CONTENTS WHERE { ?a CREATOR \"alice\" }");
  ASSERT_TRUE(alice.ok()) << alice.status().ToString();
  EXPECT_EQ(alice->items.size(), 2u);
  auto bob = g_.Query("FIND CONTENTS WHERE { ?a CREATOR \"bob\" ; ?a CONTAINS \"protease\" }");
  ASSERT_TRUE(bob.ok());
  EXPECT_EQ(bob->items.size(), 1u);
  auto nobody = g_.Query("FIND CONTENTS WHERE { ?a CREATOR \"nobody\" }");
  ASSERT_TRUE(nobody.ok());
  EXPECT_TRUE(nobody->items.empty());
}

TEST_F(QueryExtensionsTest, ExplainRendersPlan) {
  query::QueryContext ctx;
  ctx.store = &g_.annotations();
  ctx.indexes = &g_.indexes();
  ctx.graph = &g_.graph();
  Executor ex(ctx);
  auto plan = ex.ExplainText(
      "FIND CONTENTS WHERE { ?a CONTAINS \"protease\" ; ?s IS REFERENT ; "
      "?a ANNOTATES ?s }");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("feasible order"), std::string::npos);
  EXPECT_NE(plan->find("bind ?a"), std::string::npos);
  EXPECT_NE(plan->find("candidates: 3"), std::string::npos);
  EXPECT_NE(plan->find("rows examined"), std::string::npos);

  ExecutorOptions naive;
  naive.use_selectivity_order = false;
  Executor ex2(ctx, naive);
  auto plan2 = ex2.ExplainText("FIND CONTENTS WHERE { ?a IS CONTENT }");
  ASSERT_TRUE(plan2.ok());
  EXPECT_NE(plan2->find("declaration order"), std::string::npos);

  EXPECT_TRUE(ex.ExplainText("NOT A QUERY").status().IsParseError());
}

TEST_F(QueryExtensionsTest, ParserAcceptsNewSyntax) {
  EXPECT_TRUE(ParseQuery("FIND COUNT WHERE { ?a IS CONTENT }").ok());
  EXPECT_TRUE(
      ParseQuery("FIND REFERENTS WHERE { ?s CONTAINEDIN RECT [0,0,1,1] }").ok());
  EXPECT_TRUE(ParseQuery("FIND CONTENTS WHERE { ?a CREATOR \"x\" }").ok());
  EXPECT_TRUE(
      ParseQuery("FIND CONTENTS WHERE { ?a CREATOR }").status().IsParseError());
  // ToString round-trips.
  auto q = ParseQuery(
      "FIND COUNT ?s WHERE { ?s CONTAINEDIN [1, 5] ; ?a CREATOR \"x\" ; "
      "?a ANNOTATES ?s }");
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(ParseQuery(q->ToString()).ok()) << q->ToString();
}

}  // namespace
}  // namespace query
}  // namespace graphitti
