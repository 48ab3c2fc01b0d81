// Differential tests for ConnectBatch: batched connect over shared
// per-terminal BFS trees must be edge-set-identical to per-row
// AGraph::Connect, regardless of how rows share terminals or in which
// order they are connected. Batch and per-row Connect share the tree
// storage, so an oracle built only from the graph itself (edge lookups,
// FindPath) also checks every row, and tree storage must stay
// proportional to the nodes a tree visits.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <thread>

#include "agraph/agraph.h"
#include "util/random.h"

namespace graphitti {
namespace agraph {
namespace {

using util::Rng;

// Random annotation-shaped graph: a connected backbone plus chords, two
// edge labels.
AGraph RandomGraph(uint64_t seed, uint64_t n, int chords) {
  Rng rng(seed);
  AGraph g;
  for (uint64_t i = 0; i < n; ++i) {
    EXPECT_TRUE(g.AddNode(NodeRef::Content(i)).ok());
  }
  for (uint64_t i = 1; i < n; ++i) {
    uint64_t parent = rng.Next64() % i;
    EXPECT_TRUE(g.AddEdge(NodeRef::Content(parent), NodeRef::Content(i), "annotates").ok());
  }
  for (int extra = 0; extra < chords; ++extra) {
    uint64_t a = rng.Next64() % n;
    uint64_t b = rng.Next64() % n;
    if (a == b) continue;
    const char* label = (extra % 3 == 0) ? "refers-to" : "annotates";
    EXPECT_TRUE(g.AddEdge(NodeRef::Content(a), NodeRef::Content(b), label).ok());
  }
  return g;
}

// Rows drawn from a small terminal pool, so terminals repeat across rows
// (the executor's GRAPH collation shape).
std::vector<std::vector<NodeRef>> RandomRows(Rng* rng, uint64_t n, size_t num_rows,
                                             size_t pool_size) {
  std::vector<NodeRef> pool;
  for (size_t i = 0; i < pool_size; ++i) {
    pool.push_back(NodeRef::Content(rng->Next64() % n));
  }
  std::vector<std::vector<NodeRef>> rows(num_rows);
  for (auto& row : rows) {
    size_t k = 2 + static_cast<size_t>(rng->Uniform(0, 3));
    for (size_t i = 0; i < k; ++i) {
      row.push_back(pool[static_cast<size_t>(rng->Next64()) % pool.size()]);
    }
  }
  return rows;
}

void ExpectIdentical(const SubGraph& batched, const SubGraph& per_row, size_t row) {
  EXPECT_EQ(batched.nodes, per_row.nodes) << "node set differs on row " << row;
  ASSERT_EQ(batched.edges.size(), per_row.edges.size()) << "edge count differs on row " << row;
  for (size_t e = 0; e < batched.edges.size(); ++e) {
    EXPECT_EQ(batched.edges[e], per_row.edges[e]) << "edge " << e << " differs on row " << row;
  }
}

class ConnectBatchDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ConnectBatchDifferentialTest, MatchesPerRowConnectOnRandomGraphs) {
  Rng rng(GetParam());
  AGraph g = RandomGraph(GetParam(), 120, 80);
  auto rows = RandomRows(&rng, 120, 40, 12);

  ConnectBatch batch(g);
  for (size_t i = 0; i < rows.size(); ++i) {
    auto batched = batch.Connect(rows[i]);
    auto per_row = g.Connect(rows[i]);
    ASSERT_EQ(batched.ok(), per_row.ok()) << "status differs on row " << i;
    if (!batched.ok()) continue;
    ExpectIdentical(*batched, *per_row, i);
  }
  // At most one tree per distinct terminal across all rows (a row's first
  // terminal seeds the component, so it may never need a tree) — far fewer
  // than the per-row heuristic's one search per row per terminal.
  std::vector<NodeRef> distinct;
  size_t terminal_instances = 0;
  for (const auto& row : rows) {
    for (NodeRef t : row) distinct.push_back(t);
    terminal_instances += row.size();
  }
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());
  EXPECT_GT(batch.trees_built(), 0u);
  EXPECT_LE(batch.trees_built(), distinct.size());
  EXPECT_LT(batch.trees_built(), terminal_instances);
}

TEST_P(ConnectBatchDifferentialTest, MatchesUnderLabelFilterAndHopBudget) {
  Rng rng(GetParam() ^ 0xabcdefull);
  AGraph g = RandomGraph(GetParam() + 1, 100, 90);
  auto rows = RandomRows(&rng, 100, 25, 10);

  ConnectOptions options;
  options.allowed_labels = {"annotates"};
  options.max_hops = 4;
  ConnectBatch batch(g, options);
  size_t connected = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    auto batched = batch.Connect(rows[i]);
    auto per_row = g.Connect(rows[i], options);
    ASSERT_EQ(batched.ok(), per_row.ok()) << "status differs on row " << i;
    if (!batched.ok()) continue;
    ++connected;
    ExpectIdentical(*batched, *per_row, i);
  }
  // The hop budget must actually bite on some rows and pass on others for
  // this differential to mean anything.
  EXPECT_GT(connected, 0u);
  EXPECT_LT(connected, rows.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConnectBatchDifferentialTest,
                         ::testing::Values(3, 17, 59, 127, 951));

TEST(ConnectBatchTest, SharedTreesSurviveDisconnectedRows) {
  AGraph g;
  for (uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(g.AddNode(NodeRef::Content(i)).ok());
  }
  ASSERT_TRUE(g.AddEdge(NodeRef::Content(0), NodeRef::Content(1), "e").ok());
  ASSERT_TRUE(g.AddEdge(NodeRef::Content(1), NodeRef::Content(2), "e").ok());
  // Content(3) is an island.
  ConnectBatch batch(g);
  auto island = batch.Connect({NodeRef::Content(0), NodeRef::Content(3)});
  EXPECT_TRUE(island.status().IsNotFound());
  auto ok = batch.Connect({NodeRef::Content(0), NodeRef::Content(2)});
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->nodes.size(), 3u);
  EXPECT_EQ(ok->edges.size(), 2u);
  // Row-level contract matches Connect: empty rows and unknown terminals.
  EXPECT_TRUE(batch.Connect({}).status().IsInvalidArgument());
  EXPECT_TRUE(batch.Connect({NodeRef::Content(0), NodeRef::Content(99)})
                  .status()
                  .IsNotFound());
}

TEST(ConnectBatchTest, UnsatisfiableLabelFilterRejectsEveryRow) {
  AGraph g;
  ASSERT_TRUE(g.AddNode(NodeRef::Content(0)).ok());
  ASSERT_TRUE(g.AddNode(NodeRef::Content(1)).ok());
  ASSERT_TRUE(g.AddEdge(NodeRef::Content(0), NodeRef::Content(1), "e").ok());
  ConnectOptions options;
  options.allowed_labels = {"no-such-label"};
  ConnectBatch batch(g, options);
  EXPECT_TRUE(batch.Connect({NodeRef::Content(0), NodeRef::Content(1)})
                  .status()
                  .IsNotFound());
}

// A path graph of `n` nodes, the shape where a tree's old dense record
// array (24 bytes x num_nodes) dwarfs what a BFS from one node visits.
AGraph PathGraph(uint64_t n) {
  AGraph g;
  for (uint64_t i = 0; i < n; ++i) {
    EXPECT_TRUE(g.AddNode(NodeRef::Content(i)).ok());
  }
  for (uint64_t i = 1; i < n; ++i) {
    EXPECT_TRUE(g.AddEdge(NodeRef::Content(i - 1), NodeRef::Content(i), "next").ok());
  }
  return g;
}

// Tree storage is proportional to the nodes a tree visits, so connecting
// two adjacent terminals of a 200k-node graph fits a 256 KiB budget (a tree
// sized by the graph would be 24 B x 200k = 4.8 MB on its own). Runs on a
// fresh thread: pooled trees of earlier tests on this thread may keep pages
// from their last use, which would count against the budget.
TEST(ConnectBatchTest, AdjacentTerminalsFitSmallBudgetOnLargeGraph) {
  const AGraph g = PathGraph(200000);
  ConnectOptions options;
  options.memory_budget_bytes = 256 << 10;
  std::thread([&] {
    ConnectBatch batch(g, options);
    auto sg = batch.Connect({NodeRef::Content(150000), NodeRef::Content(150001)});
    ASSERT_TRUE(sg.ok()) << sg.status().ToString();
    EXPECT_EQ(sg->nodes.size(), 2u);
    EXPECT_EQ(sg->edges.size(), 1u);
    // Far terminals still connect under an unlimited budget.
    ConnectBatch unlimited(g);
    auto far = unlimited.Connect({NodeRef::Content(10), NodeRef::Content(1010)});
    ASSERT_TRUE(far.ok()) << far.status().ToString();
    EXPECT_EQ(far->edges.size(), 1000u);
  }).join();
}

// tree_bytes() is what the memory budget is checked against: it grows with
// the trees a batch builds, and a batch over a large graph whose trees visit
// a handful of nodes reports kilobytes, not megabytes.
TEST(ConnectBatchTest, TreeBytesFollowVisitedNodes) {
  const AGraph g = PathGraph(200000);
  std::thread([&] {
    ConnectBatch batch(g);
    EXPECT_EQ(batch.tree_bytes(), 0u);
    ASSERT_TRUE(batch.Connect({NodeRef::Content(7), NodeRef::Content(8)}).ok());
    const size_t small = batch.tree_bytes();
    EXPECT_GT(small, 0u);
    EXPECT_LT(small, size_t{64} << 10);
    ASSERT_TRUE(batch.Connect({NodeRef::Content(100), NodeRef::Content(5100)}).ok());
    EXPECT_GT(batch.tree_bytes(), small);
  }).join();
}

// Random graph over all four node kinds whose ids leave gaps, with enough
// nodes to span many 256-record tree pages: a backbone (mostly local
// parents, some far ones, so trees reach pages far apart) plus chords.
struct OracleGraph {
  AGraph graph;
  std::vector<NodeRef> nodes;
};

OracleGraph RandomGappedGraph(uint64_t seed, size_t n) {
  Rng rng(seed);
  OracleGraph og;
  for (size_t i = 0; i < n; ++i) {
    const auto kind = static_cast<NodeKind>(i % 4);
    const uint64_t id = 5 * i + 1 + rng.Next64() % 4;  // gapped, distinct
    og.nodes.push_back({kind, id});
    EXPECT_TRUE(og.graph.AddNode(og.nodes.back()).ok());
  }
  const char* labels[] = {"annotates", "refers-to", "marks"};
  for (size_t i = 1; i < n; ++i) {
    const size_t parent = rng.Uniform(0, 9) == 0 ? rng.Next64() % i
                                                 : i - 1 - rng.Next64() % std::min<size_t>(i, 8);
    EXPECT_TRUE(og.graph.AddEdge(og.nodes[parent], og.nodes[i], labels[i % 3]).ok());
  }
  for (size_t c = 0; c < n / 4; ++c) {
    const size_t a = rng.Next64() % n;
    const size_t b = rng.Next64() % n;
    if (a == b) continue;
    EXPECT_TRUE(og.graph.AddEdge(og.nodes[a], og.nodes[b], labels[c % 3]).ok());
  }
  return og;
}

// Checks one row's subgraph against the graph alone: it spans its
// terminals, every edge exists, it is a connected tree, and a 2-terminal
// row's edge count is the shortest-path length.
void ExpectOracle(const AGraph& g, const std::vector<NodeRef>& row, const SubGraph& sg,
                  size_t r) {
  for (const NodeRef& t : row) {
    EXPECT_TRUE(sg.ContainsNode(t)) << "row " << r << " misses terminal " << t.ToString();
  }
  std::map<NodeRef, size_t> index;
  for (const NodeRef& n : sg.nodes) index.emplace(n, index.size());
  ASSERT_EQ(index.size(), sg.nodes.size()) << "duplicate node on row " << r;
  std::vector<size_t> root(sg.nodes.size());
  std::iota(root.begin(), root.end(), 0);
  auto find = [&](size_t x) {
    while (root[x] != x) x = root[x] = root[root[x]];
    return x;
  };
  size_t merges = 0;
  for (const EdgeRecord& e : sg.edges) {
    EXPECT_TRUE(g.HasEdge(e.from, e.to, e.label))
        << "row " << r << " invents edge " << e.from.ToString() << " -> " << e.to.ToString();
    auto from = index.find(e.from);
    auto to = index.find(e.to);
    ASSERT_TRUE(from != index.end() && to != index.end())
        << "row " << r << " has an edge off its node set";
    const size_t a = find(from->second);
    const size_t b = find(to->second);
    EXPECT_NE(a, b) << "row " << r << " closes a cycle";
    root[a] = b;
    ++merges;
  }
  EXPECT_EQ(merges + 1, sg.nodes.size()) << "row " << r << " is not one connected tree";
  std::vector<NodeRef> distinct = row;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());
  if (distinct.size() == 2) {
    auto path = g.FindPath(distinct[0], distinct[1]);
    ASSERT_TRUE(path.ok()) << path.status().ToString();
    EXPECT_EQ(sg.edges.size(), path->hops()) << "row " << r << " is not a shortest path";
  }
}

// Rows over a 24-terminal pool (terminals repeat, as in GRAPH collation);
// every third row has exactly two distinct terminals.
std::vector<std::vector<NodeRef>> OracleRows(Rng* rng, const OracleGraph& og,
                                             size_t num_rows) {
  std::vector<NodeRef> pool;
  for (size_t i = 0; i < 24; ++i) pool.push_back(og.nodes[rng->Next64() % og.nodes.size()]);
  std::vector<std::vector<NodeRef>> rows(num_rows);
  for (size_t r = 0; r < num_rows; ++r) {
    const size_t k = r % 3 == 0 ? 2 : 2 + static_cast<size_t>(rng->Uniform(0, 3));
    while (rows[r].size() < k) {
      NodeRef t = pool[rng->Next64() % pool.size()];
      if (r % 3 == 0 && !rows[r].empty() && rows[r][0] == t) continue;
      rows[r].push_back(t);
    }
  }
  return rows;
}

class ConnectOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ConnectOracleTest, EveryRowMatchesTheGraphOracle) {
  for (size_t n : {700u, 3000u, 9000u}) {
    const OracleGraph og = RandomGappedGraph(GetParam() * 31 + n, n);
    Rng rng(GetParam() ^ n);
    const auto rows = OracleRows(&rng, og, 45);
    ConnectBatch batch(og.graph);
    for (size_t r = 0; r < rows.size(); ++r) {
      auto sg = batch.Connect(rows[r]);
      ASSERT_TRUE(sg.ok()) << "row " << r << ": " << sg.status().ToString();
      ExpectOracle(og.graph, rows[r], *sg, r);
    }
  }
}

// Tree pages are recycled through the free list of the thread that
// destroys a batch. A batch used on one thread and destroyed on another
// hands its pages (with stale records) to the destroying thread; a fresh
// batch there, and a worker-parallel one, must answer exactly as before.
TEST_P(ConnectOracleTest, PagesRecycledAcrossThreadsAnswerIdentically) {
  const OracleGraph og = RandomGappedGraph(GetParam() + 7, 6000);
  Rng rng(GetParam() * 3 + 1);
  const auto rows = OracleRows(&rng, og, 40);

  std::vector<SubGraph> first(rows.size());
  auto batch = std::make_unique<ConnectBatch>(og.graph);
  std::thread([&] {
    for (size_t r = 0; r < rows.size(); ++r) {
      auto sg = batch->Connect(rows[r]);
      ASSERT_TRUE(sg.ok()) << sg.status().ToString();
      first[r] = std::move(sg).ValueUnsafe();
    }
  }).join();

  auto replay = [&](const ConnectOptions& options) {
    ConnectBatch fresh(og.graph, options);
    // Reverse order, so trees grow in a different sequence than the first
    // time and land on recycled pages.
    for (size_t r = rows.size(); r-- > 0;) {
      auto sg = fresh.Connect(rows[r]);
      ASSERT_TRUE(sg.ok()) << sg.status().ToString();
      ExpectIdentical(*sg, first[r], r);
      ExpectOracle(og.graph, rows[r], *sg, r);
    }
  };
  std::thread([&] {
    batch.reset();  // its pages join this thread's free list
    replay({});
    ConnectOptions parallel;
    parallel.workers = 3;
    replay(parallel);
  }).join();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConnectOracleTest, ::testing::Values(5, 41, 977));

}  // namespace
}  // namespace agraph
}  // namespace graphitti
