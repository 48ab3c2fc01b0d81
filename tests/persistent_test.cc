// Unit tests for util/persistent.h and the substrates built on it: a copy
// shares structure, and a mutation on either side of a copy never changes
// what the other side reads — checked against plain std containers as the
// reference, including after in-place (owned) edits on both sides.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "agraph/agraph.h"
#include "core/graphitti.h"
#include "relational/table.h"
#include "spatial/interval_tree.h"
#include "spatial/rtree.h"
#include "util/persistent.h"

namespace graphitti {
namespace {

using util::ChunkedVector;
using util::EditOwner;

std::vector<int> Flatten(const ChunkedVector<int>& v) {
  std::vector<int> out;
  v.ForEach([&](size_t, int x) { out.push_back(x); });
  return out;
}

TEST(ChunkedVectorTest, MatchesVectorAcrossCopies) {
  std::mt19937 rng(7);
  EditOwner owner_a;
  ChunkedVector<int> a;
  std::vector<int> ref_a;
  for (int i = 0; i < 3000; ++i) {
    a.push_back(i, owner_a.Get());
    ref_a.push_back(i);
  }
  // Copy, then mutate both sides independently.
  EditOwner owner_b = owner_a;  // revokes owner_a's token
  ChunkedVector<int> b = a;
  std::vector<int> ref_b = ref_a;
  for (int step = 0; step < 2000; ++step) {
    size_t i = rng() % ref_a.size();
    int v = static_cast<int>(rng() % 100000);
    if (step % 2 == 0) {
      a.Set(i, v, owner_a.Get());
      ref_a[i] = v;
    } else {
      b.Set(i, v, owner_b.Get());
      ref_b[i] = v;
    }
    if (step % 7 == 0) {
      b.push_back(v, owner_b.Get());
      ref_b.push_back(v);
    }
    if (step % 11 == 0) {
      a.pop_back(owner_a.Get());
      ref_a.pop_back();
    }
  }
  EXPECT_EQ(Flatten(a), ref_a);
  EXPECT_EQ(Flatten(b), ref_b);
  for (size_t i = 0; i < ref_b.size(); ++i) ASSERT_EQ(b[i], ref_b[i]);
}

TEST(ChunkedVectorTest, SparseIndexesReadDefault) {
  EditOwner owner;
  ChunkedVector<int> v;
  v.Set(1u << 20, 5, owner.Get());
  v.Set(3, 4, owner.Get());
  EXPECT_EQ(v.size(), (1u << 20) + 1);
  EXPECT_EQ(v[1u << 20], 5);
  EXPECT_EQ(v[3], 4);
  EXPECT_EQ(v[1000], 0);
  EXPECT_EQ(v[size_t{1} << 40], 0);  // beyond size
  size_t runs = 0;
  v.ForEachRun([&](size_t, const int*, size_t) { ++runs; });
  EXPECT_EQ(runs, 2u);  // only the two materialized leaf chunks
}

TEST(ChunkedVectorTest, SparseSetsInAnyOrderStayDistinct) {
  EditOwner owner;
  ChunkedVector<int> v;
  // A jump of many chunks, then a write far below it: the trie must be deep
  // enough for both, or index 35 would alias index 3.
  v.Set(1u << 20, 5, owner.Get());
  v.Set(3, 4, owner.Get());
  EXPECT_EQ(v[35], 0);
  v.Set(35, 9, owner.Get());
  EXPECT_EQ(v[3], 4);
  EXPECT_EQ(v[35], 9);
  EXPECT_EQ(v[1u << 20], 5);

  // Random non-monotonic writes, pops and copies against a std::vector.
  std::mt19937 rng(23);
  ChunkedVector<int> a;
  std::vector<int> ref;
  std::vector<std::pair<ChunkedVector<int>, std::vector<int>>> frozen;
  for (int step = 0; step < 4000; ++step) {
    const uint32_t roll = rng() % 10;
    if (roll < 6) {
      const size_t i = rng() % (roll == 0 ? 200000 : 3000);
      const int x = static_cast<int>(rng() % 1000) + 1;
      a.Set(i, x, owner.Get());
      if (ref.size() <= i) ref.resize(i + 1);
      ref[i] = x;
    } else if (roll < 9 && !ref.empty()) {
      a.pop_back(owner.Get());
      ref.pop_back();
    }
    if (step % 97 == 0) {
      owner.Revoke();  // as copying the owning substrate does
      frozen.emplace_back(a, ref);
    }
    ASSERT_EQ(a.size(), ref.size());
  }
  EXPECT_EQ(Flatten(a), ref);
  for (size_t i = 0; i < ref.size(); ++i) ASSERT_EQ(a[i], ref[i]) << i;
  for (const auto& [copy, copy_ref] : frozen) EXPECT_EQ(Flatten(copy), copy_ref);
}

TEST(ChunkedVectorTest, ShrinkThenGrowReadsDefault) {
  EditOwner owner;
  ChunkedVector<int> v;
  for (int i = 0; i < 100; ++i) v.push_back(i + 1, owner.Get());
  while (v.size() > 10) v.pop_back(owner.Get());
  v.Set(200, 7, owner.Get());
  EXPECT_EQ(v[9], 10);
  for (size_t i = 10; i < 200; ++i) ASSERT_EQ(v[i], 0) << i;
  EXPECT_EQ(v[200], 7);
}

TEST(ChunkedVectorTest, EraseIfKeepsOrderAndLeavesCopiesAlone) {
  EditOwner owner;
  ChunkedVector<int> v;
  std::vector<int> ref;
  for (int i = 0; i < 500; ++i) {
    v.push_back(i, owner.Get());
    ref.push_back(i);
  }
  EditOwner copy_owner = owner;
  const ChunkedVector<int> copy = v;
  EXPECT_EQ(v.EraseIf([](int x) { return x % 3 == 0 || x > 450; }, owner.Get()),
            static_cast<size_t>(std::count_if(ref.begin(), ref.end(),
                                              [](int x) { return x % 3 == 0 || x > 450; })));
  std::vector<int> kept;
  for (int x : ref) {
    if (x % 3 != 0 && x <= 450) kept.push_back(x);
  }
  EXPECT_EQ(Flatten(v), kept);
  EXPECT_EQ(Flatten(copy), ref);
  std::vector<int> iterated;
  for (int x : v) iterated.push_back(x);
  EXPECT_EQ(iterated, kept);
}

TEST(SortedChunksTest, MatchesMultimapAcrossCopies) {
  std::mt19937 rng(31);
  using Sorted = util::SortedChunks<int, int>;
  auto contents = [](const Sorted& s) {
    std::vector<std::pair<int, int>> out;
    s.Scan([](int) { return false; }, [&](int k, int v) {
      out.emplace_back(k, v);
      return true;
    });
    return out;
  };
  EditOwner owner;
  Sorted a;
  std::set<std::pair<int, int>> ref;
  std::vector<std::pair<Sorted, std::set<std::pair<int, int>>>> frozen;
  int next_value = 0;
  for (int step = 0; step < 6000; ++step) {
    const int key = static_cast<int>(rng() % 300);
    if (rng() % 3 != 0 || ref.empty()) {
      a.Insert(key, next_value, owner.Get());
      ref.emplace(key, next_value++);
    } else {
      auto it = ref.lower_bound({key, -1});
      if (it == ref.end()) it = ref.begin();
      EXPECT_TRUE(a.Erase(it->first, it->second, owner.Get()));
      EXPECT_FALSE(a.Erase(it->first, it->second, owner.Get()));
      ref.erase(it);
    }
    if (step % 500 == 0) {
      owner.Revoke();
      frozen.emplace_back(a, ref);
    }
  }
  EXPECT_EQ(a.size(), ref.size());
  using Pairs = std::vector<std::pair<int, int>>;
  EXPECT_EQ(contents(a), Pairs(ref.begin(), ref.end()));
  for (const auto& [copy, copy_ref] : frozen) {
    EXPECT_EQ(contents(copy), Pairs(copy_ref.begin(), copy_ref.end()));
  }
  // Range scans: every key in [100, 120].
  std::vector<int> got;
  a.Scan([](int k) { return k < 100; }, [&](int k, int v) {
    if (k > 120) return false;
    got.push_back(v);
    return true;
  });
  std::vector<int> want;
  for (const auto& [k, v] : ref) {
    if (k >= 100 && k <= 120) want.push_back(v);
  }
  EXPECT_EQ(got, want);
}

TEST(HashTrieTest, MatchesMapAcrossCopies) {
  std::mt19937 rng(11);
  EditOwner owner_a;
  util::HashTrie<std::string, int, util::StringKeyHash> a;
  std::map<std::string, int> ref_a;
  for (int i = 0; i < 2000; ++i) {
    std::string k = "k" + std::to_string(rng() % 1500);
    a.Assign(k, i, owner_a.Get());
    ref_a[k] = i;
  }
  EditOwner owner_b = owner_a;
  auto b = a;
  auto ref_b = ref_a;
  for (int step = 0; step < 3000; ++step) {
    std::string k = "k" + std::to_string(rng() % 1500);
    bool on_a = step % 2 == 0;
    auto& trie = on_a ? a : b;
    auto& ref = on_a ? ref_a : ref_b;
    EditOwner& owner = on_a ? owner_a : owner_b;
    if (step % 3 == 0) {
      EXPECT_EQ(trie.Erase(k, owner.Get()), ref.erase(k) > 0);
    } else {
      trie.Mutable(k, owner.Get()) += 1;
      ref[k] += 1;
    }
  }
  for (const auto* pair : {&a, &b}) {
    const auto& ref = pair == &a ? ref_a : ref_b;
    EXPECT_EQ(pair->size(), ref.size());
    std::map<std::string, int> got;
    pair->ForEach([&](const std::string& k, int v) { got[k] = v; });
    EXPECT_EQ(got, ref);
    for (const auto& [k, v] : ref) {
      const int* found = pair->Find(std::string_view(k));
      ASSERT_NE(found, nullptr);
      EXPECT_EQ(*found, v);
    }
  }
}

TEST(PersistentSubstrateTest, IntervalTreeCopiesAreIndependent) {
  spatial::IntervalTree a;
  for (int i = 0; i < 500; ++i) ASSERT_TRUE(a.Insert({i * 3, i * 3 + 10}, i).ok());
  spatial::IntervalTree b = a.Clone();
  for (int i = 0; i < 500; i += 2) ASSERT_TRUE(b.Erase({i * 3, i * 3 + 10}, i).ok());
  for (int i = 500; i < 700; ++i) ASSERT_TRUE(a.Insert({i * 3, i * 3 + 10}, i).ok());
  EXPECT_EQ(a.size(), 700u);
  EXPECT_EQ(b.size(), 250u);
  EXPECT_TRUE(a.CheckInvariants());
  EXPECT_TRUE(b.CheckInvariants());
  EXPECT_EQ(a.Window({0, 30}).size(), 11u);  // ids 0..10 overlap [0,30]
  EXPECT_EQ(b.Window({0, 30}).size(), 5u);   // odd ids 1..9
}

TEST(PersistentSubstrateTest, RTreeCopiesAreIndependent) {
  auto rect = [](double x) {
    spatial::Rect r;
    r.dims = 2;
    r.lo = {x, x, 0};
    r.hi = {x + 1, x + 1, 0};
    return r;
  };
  spatial::RTree a(2, 4);
  for (int i = 0; i < 300; ++i) ASSERT_TRUE(a.Insert(rect(i), i).ok());
  spatial::RTree b = a.Clone();
  for (int i = 0; i < 300; i += 3) ASSERT_TRUE(b.Erase(rect(i), i).ok());
  for (int i = 300; i < 400; ++i) ASSERT_TRUE(a.Insert(rect(i), i).ok());
  EXPECT_EQ(a.size(), 400u);
  EXPECT_EQ(b.size(), 200u);
  EXPECT_TRUE(a.CheckInvariants());
  EXPECT_TRUE(b.CheckInvariants());
  EXPECT_EQ(a.Window(rect(0)).size(), 2u);  // ids 0 and 1 touch [0,1]^2
  EXPECT_EQ(b.Window(rect(0)).size(), 1u);  // id 0 erased
}

TEST(PersistentSubstrateTest, AGraphCloneSurvivesRemovalCompaction) {
  agraph::AGraph a;
  for (uint64_t i = 1; i <= 100; ++i) ASSERT_TRUE(a.AddNode(agraph::NodeRef::Content(i)).ok());
  for (uint64_t i = 1; i < 100; ++i) {
    ASSERT_TRUE(
        a.AddEdge(agraph::NodeRef::Content(i), agraph::NodeRef::Content(i + 1), "next").ok());
  }
  agraph::AGraph b = a.Clone();
  const std::string before = b.ToText();
  // Swap-with-last compaction rewrites dense indexes and neighbours' edge
  // lists in `a`; `b` must not see any of it.
  for (uint64_t i = 2; i <= 100; i += 2) ASSERT_TRUE(a.RemoveNode(agraph::NodeRef::Content(i)).ok());
  EXPECT_EQ(a.num_nodes(), 50u);
  EXPECT_EQ(a.num_edges(), 0u);
  EXPECT_EQ(b.ToText(), before);
  auto path = b.FindPath(agraph::NodeRef::Content(1), agraph::NodeRef::Content(100));
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(path->hops(), 99u);
}

TEST(PersistentSubstrateTest, TableCopiesAreIndependent) {
  relational::Table a("t", relational::SchemaBuilder().Str("k").Int("n").Build());
  ASSERT_TRUE(a.CreateIndex("k", relational::IndexKind::kHash).ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(a.Insert({relational::Value::Str("key" + std::to_string(i % 10)),
                          relational::Value::Int(i)})
                    .ok());
  }
  std::unique_ptr<relational::Table> b = a.Clone();
  ASSERT_TRUE(b->Delete(0).ok());
  ASSERT_TRUE(a.Insert({relational::Value::Str("key0"), relational::Value::Int(999)}).ok());
  auto eq = relational::Predicate::Compare("k", relational::CompareOp::kEq,
                                           relational::Value::Str("key0"));
  auto in_a = a.Select(eq);
  auto in_b = b->Select(eq);
  ASSERT_TRUE(in_a.ok());
  ASSERT_TRUE(in_b.ok());
  EXPECT_EQ(in_a->size(), 21u);
  EXPECT_EQ(in_b->size(), 19u);
  EXPECT_NE(a.Get(0), nullptr);
  EXPECT_EQ(b->Get(0), nullptr);
}

// Mutating the current version through an unversioned handle path-copies
// every chunk it shares with older versions: a result that pins an older
// version still reads exactly the rows that version was published with.
TEST(PersistentSubstrateTest, EscapeHatchTableWritesLeavePinnedVersionsIntact) {
  core::Graphitti g;
  auto table = g.CreateTable("notes", relational::SchemaBuilder().Str("title").Build());
  ASSERT_TRUE(table.ok());
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE((*table)->Insert({relational::Value::Str("direct" + std::to_string(i))}).ok());
  }
  auto held = g.Query("FIND COUNT ?a WHERE { ?a CONTAINS \"nothing\" }");
  ASSERT_TRUE(held.ok());
  ASSERT_TRUE(g.IngestRecord("notes", {relational::Value::Str("versioned")}).ok());

  relational::Table* current = g.catalog().GetTable("notes");
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(current->Insert({relational::Value::Str("hatch" + std::to_string(i))}).ok());
    ASSERT_TRUE(current->Delete(static_cast<relational::RowId>(i)).ok());
  }
  EXPECT_EQ(current->size(), 41u);

  const auto* pinned = static_cast<const core::Graphitti::EngineState*>(held->snapshot.get());
  const relational::Table* old = pinned->catalog.GetTable("notes");
  ASSERT_NE(old, nullptr);
  EXPECT_EQ(old->size(), 40u);
  for (relational::RowId r = 0; r < 40; ++r) {
    ASSERT_NE(old->Get(r), nullptr);
    EXPECT_EQ(old->Get(r)->at(0), relational::Value::Str("direct" + std::to_string(r)));
  }
  EXPECT_EQ(old->Get(40), nullptr);
}

}  // namespace
}  // namespace graphitti
