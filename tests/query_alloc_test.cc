// Heap traffic of one warm join: counts operator new calls on the executing
// thread while the executor answers the mixed keyword x referent GRAPH query
// (a content keyword bound first, then its referents through ANNOTATES within
// one domain). Candidate streaming and the join must not allocate per
// candidate or per row; collation may allocate per produced item (its label,
// its terminal vector and its distinctness entry).
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "annotation/annotation_store.h"
#include "query/executor.h"
#include "query/parser.h"

namespace {

thread_local bool g_counting = false;
thread_local size_t g_allocations = 0;

void* CountedAlloc(size_t size) {
  if (g_counting) ++g_allocations;
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

// Every non-aligned form is replaced so that new and delete always pair on
// malloc/free (sanitizer runtimes check the pairing).
void* operator new(size_t size) { return CountedAlloc(size); }
void* operator new[](size_t size) { return CountedAlloc(size); }
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(size);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace graphitti {
namespace query {
namespace {

TEST(QueryAllocationTest, KeywordReferentJoinAllocatesPerItemNotPerCandidate) {
  spatial::IndexManager indexes;
  agraph::AGraph graph;
  annotation::AnnotationStore store(&indexes, &graph);
  // 2400 annotations, each marking its own interval of one domain (2400
  // referents); every fourth carries the keyword (600 hits). A few other
  // referents live in a second domain so DOMAIN actually filters.
  constexpr int kAnnotations = 2400;
  for (int i = 0; i < kAnnotations; ++i) {
    annotation::AnnotationBuilder b;
    b.Title("note" + std::to_string(i))
        .Body(i % 4 == 0 ? "protease site" : "background text");
    b.MarkInterval("seg", i * 10, i * 10 + 5);
    if (i % 100 == 0) b.MarkInterval("other", i, i + 3);
    ASSERT_TRUE(store.Commit(b).ok());
  }

  QueryContext ctx;
  ctx.store = &store;
  ctx.indexes = &indexes;
  ctx.graph = &graph;
  Executor executor(ctx);
  auto query = ParseQuery(
      "FIND GRAPH WHERE { ?a CONTAINS \"protease\" ; ?s IS REFERENT ; "
      "?a ANNOTATES ?s ; ?s DOMAIN \"seg\" } LIMIT 10");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  // Warm-up: thread-local scratch (a-graph stamps, connect-tree pages)
  // reaches its steady size.
  ASSERT_TRUE(executor.Execute(*query).ok());

  g_allocations = 0;
  g_counting = true;
  auto result = executor.Execute(*query);
  g_counting = false;
  const size_t allocations = g_allocations;

  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->stats.binding_order, (std::vector<std::string>{"a", "s"}));
  const size_t referents = result->stats.candidate_counts[1];
  const size_t items = result->stats.items_produced;
  EXPECT_EQ(referents, static_cast<size_t>(kAnnotations));
  EXPECT_EQ(items, static_cast<size_t>(kAnnotations / 4));
  EXPECT_LE(allocations, referents / 2 + 3 * items + 64)
      << "referent candidates: " << referents << ", items: " << items;
}

}  // namespace
}  // namespace query
}  // namespace graphitti
