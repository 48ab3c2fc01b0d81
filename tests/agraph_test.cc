#include <gtest/gtest.h>

#include <algorithm>

#include "agraph/agraph.h"

namespace graphitti {
namespace agraph {
namespace {

TEST(NodeRefTest, FactoriesAndOrdering) {
  NodeRef c = NodeRef::Content(5);
  NodeRef r = NodeRef::Referent(5);
  EXPECT_EQ(c.kind, NodeKind::kContent);
  EXPECT_NE(c, r);
  EXPECT_LT(c, r);  // kind ordering
  EXPECT_LT(NodeRef::Content(1), NodeRef::Content(2));
  EXPECT_EQ(c.ToString(), "content:5");
  EXPECT_EQ(NodeRef::Term(1).ToString(), "term:1");
  EXPECT_EQ(NodeRef::Object(9).ToString(), "object:9");
}

TEST(AGraphTest, AddAndRemoveNodes) {
  AGraph g;
  ASSERT_TRUE(g.AddNode(NodeRef::Content(1), "ann-1").ok());
  EXPECT_TRUE(g.HasNode(NodeRef::Content(1)));
  EXPECT_EQ(g.NodeLabel(NodeRef::Content(1)), "ann-1");
  EXPECT_TRUE(g.AddNode(NodeRef::Content(1)).IsAlreadyExists());
  EXPECT_EQ(g.num_nodes(), 1u);
  ASSERT_TRUE(g.RemoveNode(NodeRef::Content(1)).ok());
  EXPECT_FALSE(g.HasNode(NodeRef::Content(1)));
  EXPECT_TRUE(g.RemoveNode(NodeRef::Content(1)).IsNotFound());
}

TEST(AGraphTest, EnsureNodeIsIdempotent) {
  AGraph g;
  g.EnsureNode(NodeRef::Content(1), "first");
  g.EnsureNode(NodeRef::Content(1), "second");
  EXPECT_EQ(g.num_nodes(), 1u);
  EXPECT_EQ(g.NodeLabel(NodeRef::Content(1)), "first");
  // Empty label later filled in.
  g.EnsureNode(NodeRef::Content(2));
  g.EnsureNode(NodeRef::Content(2), "late-label");
  EXPECT_EQ(g.NodeLabel(NodeRef::Content(2)), "late-label");
}

TEST(AGraphTest, EdgesRequireEndpoints) {
  AGraph g;
  ASSERT_TRUE(g.AddNode(NodeRef::Content(1)).ok());
  EXPECT_TRUE(g.AddEdge(NodeRef::Content(1), NodeRef::Referent(2), "annotates").IsNotFound());
  ASSERT_TRUE(g.AddNode(NodeRef::Referent(2)).ok());
  EXPECT_TRUE(g.AddEdge(NodeRef::Content(1), NodeRef::Referent(2), "annotates").ok());
  EXPECT_TRUE(g.HasEdge(NodeRef::Content(1), NodeRef::Referent(2), "annotates"));
  EXPECT_FALSE(g.HasEdge(NodeRef::Referent(2), NodeRef::Content(1), "annotates"));
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(AGraphTest, MultigraphAllowsParallelEdges) {
  AGraph g;
  ASSERT_TRUE(g.AddNode(NodeRef::Content(1)).ok());
  ASSERT_TRUE(g.AddNode(NodeRef::Referent(2)).ok());
  ASSERT_TRUE(g.AddEdge(NodeRef::Content(1), NodeRef::Referent(2), "annotates").ok());
  ASSERT_TRUE(g.AddEdge(NodeRef::Content(1), NodeRef::Referent(2), "cites").ok());
  ASSERT_TRUE(g.AddEdge(NodeRef::Content(1), NodeRef::Referent(2), "annotates").ok());
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.OutEdges(NodeRef::Content(1)).size(), 3u);
  // Removing one of the parallel "annotates" edges leaves the other.
  ASSERT_TRUE(g.RemoveEdge(NodeRef::Content(1), NodeRef::Referent(2), "annotates").ok());
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.HasEdge(NodeRef::Content(1), NodeRef::Referent(2), "annotates"));
}

TEST(AGraphTest, RemoveEdgeErrors) {
  AGraph g;
  ASSERT_TRUE(g.AddNode(NodeRef::Content(1)).ok());
  ASSERT_TRUE(g.AddNode(NodeRef::Referent(2)).ok());
  EXPECT_TRUE(g.RemoveEdge(NodeRef::Content(1), NodeRef::Referent(2), "x").IsNotFound());
  ASSERT_TRUE(g.AddEdge(NodeRef::Content(1), NodeRef::Referent(2), "x").ok());
  EXPECT_TRUE(g.RemoveEdge(NodeRef::Referent(2), NodeRef::Content(1), "x").IsNotFound());
}

TEST(AGraphTest, RemoveNodeDropsIncidentEdges) {
  AGraph g;
  for (uint64_t i = 1; i <= 3; ++i) ASSERT_TRUE(g.AddNode(NodeRef::Content(i)).ok());
  ASSERT_TRUE(g.AddEdge(NodeRef::Content(1), NodeRef::Content(2), "a").ok());
  ASSERT_TRUE(g.AddEdge(NodeRef::Content(2), NodeRef::Content(3), "b").ok());
  ASSERT_TRUE(g.AddEdge(NodeRef::Content(3), NodeRef::Content(1), "c").ok());
  ASSERT_TRUE(g.RemoveNode(NodeRef::Content(2)).ok());
  EXPECT_EQ(g.num_nodes(), 2u);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_TRUE(g.HasEdge(NodeRef::Content(3), NodeRef::Content(1), "c"));
  EXPECT_TRUE(g.OutEdges(NodeRef::Content(1)).empty());
}

TEST(AGraphTest, RemoveNodeSwapCompactionKeepsAdjacencyCorrect) {
  // Regression-style test for the swap-with-last index rewiring.
  AGraph g;
  for (uint64_t i = 0; i < 10; ++i) ASSERT_TRUE(g.AddNode(NodeRef::Content(i)).ok());
  for (uint64_t i = 0; i + 1 < 10; ++i) {
    ASSERT_TRUE(g.AddEdge(NodeRef::Content(i), NodeRef::Content(i + 1), "next").ok());
  }
  ASSERT_TRUE(g.RemoveNode(NodeRef::Content(0)).ok());  // forces a swap with node 9
  // Chain 1->2->...->9 must be intact.
  for (uint64_t i = 1; i + 1 < 10; ++i) {
    EXPECT_TRUE(g.HasEdge(NodeRef::Content(i), NodeRef::Content(i + 1), "next")) << i;
  }
  EXPECT_EQ(g.num_edges(), 8u);
}

TEST(AGraphTest, SparseNodeIdsStayDistinct) {
  AGraph g;
  ASSERT_TRUE(g.AddNode(NodeRef::Content(1)).ok());
  ASSERT_TRUE(g.AddNode(NodeRef::Content(100)).ok());
  EXPECT_FALSE(g.HasNode(NodeRef::Content(33)));
  ASSERT_TRUE(g.AddNode(NodeRef::Content(33)).ok());
  ASSERT_TRUE(g.AddEdge(NodeRef::Content(1), NodeRef::Content(33), "a").ok());
  ASSERT_TRUE(g.AddEdge(NodeRef::Content(33), NodeRef::Content(100), "b").ok());
  // Swap-with-last puts the dense order out of id order.
  ASSERT_TRUE(g.RemoveNode(NodeRef::Content(1)).ok());
  EXPECT_FALSE(g.HasNode(NodeRef::Content(1)));
  EXPECT_TRUE(g.HasNode(NodeRef::Content(33)));
  EXPECT_TRUE(g.HasNode(NodeRef::Content(100)));
  EXPECT_FALSE(g.HasNode(NodeRef::Content(68)));
  auto back = AGraph::FromText(g.ToText());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->ToText(), g.ToText());
  EXPECT_EQ(back->num_nodes(), 2u);
  EXPECT_TRUE(back->HasEdge(NodeRef::Content(33), NodeRef::Content(100), "b"));
}

TEST(AGraphTest, HubEdgeListsSurviveCloneAndRemoval) {
  // A hub whose edge list spans several chunks; edits after a clone must
  // not show through to the clone.
  AGraph a;
  ASSERT_TRUE(a.AddNode(NodeRef::Object(1)).ok());
  for (uint64_t i = 1; i <= 100; ++i) {
    ASSERT_TRUE(a.AddNode(NodeRef::Content(i)).ok());
    ASSERT_TRUE(a.AddEdge(NodeRef::Content(i), NodeRef::Object(1), "marks").ok());
  }
  AGraph b = a.Clone();
  const std::string before = b.ToText();
  for (uint64_t i = 101; i <= 140; ++i) {
    ASSERT_TRUE(a.AddNode(NodeRef::Content(i)).ok());
    ASSERT_TRUE(a.AddEdge(NodeRef::Content(i), NodeRef::Object(1), "marks").ok());
  }
  for (uint64_t i = 5; i <= 140; i += 5) ASSERT_TRUE(a.RemoveNode(NodeRef::Content(i)).ok());
  ASSERT_TRUE(a.RemoveEdge(NodeRef::Content(3), NodeRef::Object(1), "marks").ok());
  EXPECT_EQ(a.InEdges(NodeRef::Object(1)).size(), 140u - 28u - 1u);
  EXPECT_EQ(a.num_edges(), 140u - 28u - 1u);
  EXPECT_FALSE(a.HasEdge(NodeRef::Content(3), NodeRef::Object(1), "marks"));
  EXPECT_TRUE(a.HasEdge(NodeRef::Content(4), NodeRef::Object(1), "marks"));
  EXPECT_EQ(b.ToText(), before);
  EXPECT_EQ(b.InEdges(NodeRef::Object(1)).size(), 100u);
  auto round = AGraph::FromText(a.ToText());
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round->ToText(), a.ToText());
}

TEST(AGraphTest, NeighborsRespectDirectionAndLabel) {
  AGraph g;
  ASSERT_TRUE(g.AddNode(NodeRef::Content(1)).ok());
  ASSERT_TRUE(g.AddNode(NodeRef::Referent(2)).ok());
  ASSERT_TRUE(g.AddNode(NodeRef::Term(3)).ok());
  ASSERT_TRUE(g.AddEdge(NodeRef::Content(1), NodeRef::Referent(2), "annotates").ok());
  ASSERT_TRUE(g.AddEdge(NodeRef::Content(1), NodeRef::Term(3), "refers-to").ok());

  auto all = g.Neighbors(NodeRef::Content(1));
  EXPECT_EQ(all.size(), 2u);
  auto annotates_only = g.Neighbors(NodeRef::Content(1), false, "annotates");
  ASSERT_EQ(annotates_only.size(), 1u);
  EXPECT_EQ(annotates_only[0], NodeRef::Referent(2));
  // Undirected view: the referent sees the content.
  auto back = g.Neighbors(NodeRef::Referent(2));
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0], NodeRef::Content(1));
  // Directed view: the referent has no out-neighbours.
  EXPECT_TRUE(g.Neighbors(NodeRef::Referent(2), true).empty());
}

TEST(AGraphTest, NodesOfKind) {
  AGraph g;
  ASSERT_TRUE(g.AddNode(NodeRef::Content(2)).ok());
  ASSERT_TRUE(g.AddNode(NodeRef::Content(1)).ok());
  ASSERT_TRUE(g.AddNode(NodeRef::Referent(7)).ok());
  auto contents = g.NodesOfKind(NodeKind::kContent);
  ASSERT_EQ(contents.size(), 2u);
  EXPECT_EQ(contents[0], NodeRef::Content(1));  // sorted
  EXPECT_EQ(g.NodesOfKind(NodeKind::kOntologyTerm).size(), 0u);
}

TEST(AGraphTest, FindPathSimpleChain) {
  AGraph g;
  for (uint64_t i = 0; i < 5; ++i) ASSERT_TRUE(g.AddNode(NodeRef::Content(i)).ok());
  for (uint64_t i = 0; i + 1 < 5; ++i) {
    ASSERT_TRUE(g.AddEdge(NodeRef::Content(i), NodeRef::Content(i + 1), "next").ok());
  }
  auto path = g.FindPath(NodeRef::Content(0), NodeRef::Content(4));
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(path->hops(), 4u);
  EXPECT_EQ(path->nodes.front(), NodeRef::Content(0));
  EXPECT_EQ(path->nodes.back(), NodeRef::Content(4));
  EXPECT_EQ(path->edge_labels, (std::vector<std::string>{"next", "next", "next", "next"}));
}

TEST(AGraphTest, FindPathRespectsDirectionOption) {
  AGraph g;
  ASSERT_TRUE(g.AddNode(NodeRef::Content(0)).ok());
  ASSERT_TRUE(g.AddNode(NodeRef::Content(1)).ok());
  ASSERT_TRUE(g.AddEdge(NodeRef::Content(1), NodeRef::Content(0), "back").ok());

  // Undirected (default): reachable.
  EXPECT_TRUE(g.FindPath(NodeRef::Content(0), NodeRef::Content(1)).ok());
  // Directed: no forward edge 0->1.
  PathOptions directed;
  directed.directed = true;
  EXPECT_TRUE(
      g.FindPath(NodeRef::Content(0), NodeRef::Content(1), directed).status().IsNotFound());
  EXPECT_TRUE(g.FindPath(NodeRef::Content(1), NodeRef::Content(0), directed).ok());
}

TEST(AGraphTest, FindPathLabelFilter) {
  AGraph g;
  for (uint64_t i = 0; i < 3; ++i) ASSERT_TRUE(g.AddNode(NodeRef::Content(i)).ok());
  ASSERT_TRUE(g.AddEdge(NodeRef::Content(0), NodeRef::Content(1), "good").ok());
  ASSERT_TRUE(g.AddEdge(NodeRef::Content(1), NodeRef::Content(2), "bad").ok());

  PathOptions only_good;
  only_good.allowed_labels = {"good"};
  EXPECT_TRUE(g.FindPath(NodeRef::Content(0), NodeRef::Content(1), only_good).ok());
  EXPECT_TRUE(
      g.FindPath(NodeRef::Content(0), NodeRef::Content(2), only_good).status().IsNotFound());
  PathOptions unknown;
  unknown.allowed_labels = {"nonexistent"};
  EXPECT_TRUE(
      g.FindPath(NodeRef::Content(0), NodeRef::Content(2), unknown).status().IsNotFound());
}

TEST(AGraphTest, FindPathMaxHops) {
  AGraph g;
  for (uint64_t i = 0; i < 5; ++i) ASSERT_TRUE(g.AddNode(NodeRef::Content(i)).ok());
  for (uint64_t i = 0; i + 1 < 5; ++i) {
    ASSERT_TRUE(g.AddEdge(NodeRef::Content(i), NodeRef::Content(i + 1), "n").ok());
  }
  PathOptions limit;
  limit.max_hops = 3;
  EXPECT_TRUE(
      g.FindPath(NodeRef::Content(0), NodeRef::Content(4), limit).status().IsNotFound());
  limit.max_hops = 4;
  EXPECT_TRUE(g.FindPath(NodeRef::Content(0), NodeRef::Content(4), limit).ok());
}

TEST(AGraphTest, FindPathIdentityAndMissing) {
  AGraph g;
  ASSERT_TRUE(g.AddNode(NodeRef::Content(0)).ok());
  auto self = g.FindPath(NodeRef::Content(0), NodeRef::Content(0));
  ASSERT_TRUE(self.ok());
  EXPECT_EQ(self->hops(), 0u);
  EXPECT_TRUE(
      g.FindPath(NodeRef::Content(0), NodeRef::Content(99)).status().IsNotFound());
  EXPECT_TRUE(
      g.FindPath(NodeRef::Content(99), NodeRef::Content(0)).status().IsNotFound());
}

TEST(AGraphTest, FindPathIsShortest) {
  AGraph g;
  // 0-1-2-3 long way, 0-4-3 short way.
  for (uint64_t i = 0; i < 5; ++i) ASSERT_TRUE(g.AddNode(NodeRef::Content(i)).ok());
  ASSERT_TRUE(g.AddEdge(NodeRef::Content(0), NodeRef::Content(1), "l").ok());
  ASSERT_TRUE(g.AddEdge(NodeRef::Content(1), NodeRef::Content(2), "l").ok());
  ASSERT_TRUE(g.AddEdge(NodeRef::Content(2), NodeRef::Content(3), "l").ok());
  ASSERT_TRUE(g.AddEdge(NodeRef::Content(0), NodeRef::Content(4), "s").ok());
  ASSERT_TRUE(g.AddEdge(NodeRef::Content(4), NodeRef::Content(3), "s").ok());
  auto path = g.FindPath(NodeRef::Content(0), NodeRef::Content(3));
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(path->hops(), 2u);
}

TEST(AGraphTest, IndirectlyRelatedContents) {
  AGraph g;
  // Two annotations sharing referent 10; a third on its own referent.
  ASSERT_TRUE(g.AddNode(NodeRef::Content(1)).ok());
  ASSERT_TRUE(g.AddNode(NodeRef::Content(2)).ok());
  ASSERT_TRUE(g.AddNode(NodeRef::Content(3)).ok());
  ASSERT_TRUE(g.AddNode(NodeRef::Referent(10)).ok());
  ASSERT_TRUE(g.AddNode(NodeRef::Referent(11)).ok());
  ASSERT_TRUE(g.AddEdge(NodeRef::Content(1), NodeRef::Referent(10), "annotates").ok());
  ASSERT_TRUE(g.AddEdge(NodeRef::Content(2), NodeRef::Referent(10), "annotates").ok());
  ASSERT_TRUE(g.AddEdge(NodeRef::Content(3), NodeRef::Referent(11), "annotates").ok());

  auto related = g.IndirectlyRelatedContents(NodeRef::Content(1));
  ASSERT_EQ(related.size(), 1u);
  EXPECT_EQ(related[0], NodeRef::Content(2));
  EXPECT_TRUE(g.IndirectlyRelatedContents(NodeRef::Content(3)).empty());
  // Non-content input yields nothing.
  EXPECT_TRUE(g.IndirectlyRelatedContents(NodeRef::Referent(10)).empty());
}

TEST(AGraphTest, SerializationRoundTrip) {
  AGraph g;
  ASSERT_TRUE(g.AddNode(NodeRef::Content(1), "my annotation").ok());
  ASSERT_TRUE(g.AddNode(NodeRef::Referent(2), "interval@chr1[0,5]").ok());
  ASSERT_TRUE(g.AddNode(NodeRef::Term(3), "nif:NIF:0001").ok());
  ASSERT_TRUE(g.AddNode(NodeRef::Object(4), "dna/AF1").ok());
  ASSERT_TRUE(g.AddEdge(NodeRef::Content(1), NodeRef::Referent(2), "annotates").ok());
  ASSERT_TRUE(g.AddEdge(NodeRef::Content(1), NodeRef::Term(3), "refers-to").ok());
  ASSERT_TRUE(g.AddEdge(NodeRef::Referent(2), NodeRef::Object(4), "of-object").ok());

  std::string text = g.ToText();
  auto restored = AGraph::FromText(text);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->num_nodes(), 4u);
  EXPECT_EQ(restored->num_edges(), 3u);
  EXPECT_EQ(restored->NodeLabel(NodeRef::Content(1)), "my annotation");
  EXPECT_TRUE(restored->HasEdge(NodeRef::Referent(2), NodeRef::Object(4), "of-object"));
  // Round-trip is stable.
  EXPECT_EQ(restored->ToText(), text);
}

TEST(AGraphTest, FromTextErrors) {
  EXPECT_TRUE(AGraph::FromText("N C").status().IsParseError());
  EXPECT_TRUE(AGraph::FromText("N X 1").status().IsParseError());
  EXPECT_TRUE(AGraph::FromText("N C abc").status().IsParseError());
  EXPECT_TRUE(AGraph::FromText("E C 1 R 2 lbl").status().IsNotFound());  // missing nodes
  EXPECT_TRUE(AGraph::FromText("Z").status().IsParseError());
  // Comments and blanks are fine.
  EXPECT_TRUE(AGraph::FromText("# empty\n\n").ok());
}

}  // namespace
}  // namespace agraph
}  // namespace graphitti
