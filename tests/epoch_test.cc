// Focused unit tests for util/epoch.h (EpochManager), complementing the
// multi-threaded coverage in concurrency_stress_test.cc:
//   - pin/retire ordering: a pin taken before a publish keeps reading the
//     version it pinned, epochs are monotonic, copies re-pin.
//   - held-pin vs unpinned equivalence: an engine committing while a
//     result pins an old version answers exactly like one committing with
//     no pins held.
//   - reclamation on last-pin-drop: a drained superseded version is
//     destroyed exactly when its last pin drops (or on the publish that
//     supersedes it, when nothing pins it), never earlier.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/graphitti.h"
#include "util/epoch.h"

namespace graphitti {
namespace util {
namespace {

// Instrumented snapshot state: a value payload plus a destruction counter
// so tests can pin down *when* the manager reclaims a version.
struct CountedState : Versioned {
  CountedState(std::vector<int> v, int* counter)
      : values(std::move(v)), destroyed(counter) {}
  ~CountedState() override { ++*destroyed; }
  std::vector<int> values;
  int* destroyed;
};

std::unique_ptr<CountedState> MakeState(std::vector<int> v, int* counter) {
  return std::make_unique<CountedState>(std::move(v), counter);
}

const CountedState* StateOf(const EpochPin& pin) {
  return static_cast<const CountedState*>(pin.get());
}

TEST(EpochTest, PinHoldsItsVersionAcrossPublishes) {
  auto mgr = std::make_shared<EpochManager>();
  int destroyed = 0;

  mgr->Publish(MakeState({1}, &destroyed));
  EpochPin pin = mgr->PinCurrent();
  const uint64_t pinned_epoch = pin.epoch();
  ASSERT_NE(StateOf(pin), nullptr);
  EXPECT_EQ(StateOf(pin)->values, std::vector<int>({1}));

  mgr->Publish(MakeState({1, 2}, &destroyed));
  mgr->Publish(MakeState({1, 2, 3}, &destroyed));

  // The pin still answers from the version it entered on; the manager has
  // moved on (epochs are strictly monotonic).
  EXPECT_EQ(StateOf(pin)->values, std::vector<int>({1}));
  EXPECT_EQ(pin.epoch(), pinned_epoch);
  EXPECT_GT(mgr->current_epoch(), pinned_epoch);

  // A fresh pin sees the newest version; a copied pin re-pins the old one.
  EpochPin fresh = mgr->PinCurrent();
  EXPECT_EQ(StateOf(fresh)->values, std::vector<int>({1, 2, 3}));
  EpochPin copy = pin;
  EXPECT_EQ(copy.epoch(), pinned_epoch);
  EXPECT_EQ(StateOf(copy)->values, std::vector<int>({1}));
}

TEST(EpochTest, ReclamationWaitsForLastPinDrop) {
  auto mgr = std::make_shared<EpochManager>();
  int destroyed = 0;

  mgr->Publish(MakeState({1}, &destroyed));
  EpochPin pin = mgr->PinCurrent();
  EpochPin copy = pin;

  // Two publishes: v1 (pinned twice) must survive as long as any pin
  // holds it; v2 (never pinned) is reclaimed when v3 supersedes it.
  mgr->Publish(MakeState({2}, &destroyed));
  mgr->Publish(MakeState({3}, &destroyed));
  EXPECT_EQ(destroyed, 1);
  EXPECT_EQ(mgr->live_versions(), 2u);  // v1 (pinned) + v3

  pin.reset();
  EXPECT_EQ(destroyed, 1) << "reclaimed while a copy still pinned it";
  copy.reset();
  EXPECT_EQ(destroyed, 2) << "last pin dropped; v1 must be reclaimed";
  EXPECT_EQ(mgr->live_versions(), 1u);  // v3
}

TEST(EpochTest, DroppedCandidateReclaimsOnDrain) {
  auto mgr = std::make_shared<EpochManager>();
  int destroyed = 0;

  mgr->Publish(MakeState({1}, &destroyed));
  EpochPin pin = mgr->PinCurrent();
  mgr->Publish(MakeState({2}, &destroyed));

  // Still pinned, so it lives until the pin drops.
  EXPECT_EQ(destroyed, 0);
  pin.reset();
  EXPECT_EQ(destroyed, 1);
  EXPECT_EQ(mgr->live_versions(), 1u);
}

// End-to-end equivalence through the engine: one engine commits with a
// long-lived query result pinning an old version the whole time (the
// recycle candidate never drains, so every commit falls back to a full
// clone); the other commits with no pins held (op-replay standby
// recycling, as VersionsReclaim* in concurrency_stress_test.cc verifies).
// Both must answer queries identically afterwards.
TEST(EpochTest, EngineReplayAndClonePathsConverge) {
  core::Graphitti pinned_engine;
  core::Graphitti recycled_engine;

  auto ingest = [](core::Graphitti* g, int i) {
    const std::string acc = "EQ" + std::to_string(i);
    auto obj = g->IngestDnaSequence(acc, "H5N1", "flu:seg" + std::to_string(i % 4),
                                    "ACGTACGTAC");
    ASSERT_TRUE(obj.ok());
    annotation::AnnotationBuilder b;
    b.Title("equivalence " + std::to_string(i))
        .Creator("tester")
        .Body("equivalence probe " + std::to_string(i))
        .MarkInterval("chrE", static_cast<int64_t>(i) * 10,
                      static_cast<int64_t>(i) * 10 + 5, *obj);
    ASSERT_TRUE(g->Commit(b).ok());
  };

  ASSERT_NO_FATAL_FAILURE(ingest(&pinned_engine, 0));
  ASSERT_NO_FATAL_FAILURE(ingest(&recycled_engine, 0));

  // Hold a result (and with it an epoch pin) across all further commits.
  auto held = pinned_engine.Query(
      "FIND CONTENTS WHERE { ?a CONTAINS \"probe\" }");
  ASSERT_TRUE(held.ok());
  ASSERT_EQ(held->items.size(), 1u);

  for (int i = 1; i <= 12; ++i) {
    ASSERT_NO_FATAL_FAILURE(ingest(&pinned_engine, i));
    ASSERT_NO_FATAL_FAILURE(ingest(&recycled_engine, i));
  }

  // The held snapshot is frozen at one annotation; both engines' fresh
  // views agree with each other despite taking different scratch paths.
  EXPECT_EQ(held->items.size(), 1u);
  for (const char* q :
       {"FIND CONTENTS WHERE { ?a CONTAINS \"probe\" }",
        "FIND REFERENTS ?s WHERE { ?a CONTAINS \"probe\" ; ?s IS REFERENT ; "
        "?a ANNOTATES ?s }"}) {
    auto a = pinned_engine.Query(q);
    auto b = recycled_engine.Query(q);
    ASSERT_TRUE(a.ok()) << q;
    ASSERT_TRUE(b.ok()) << q;
    EXPECT_EQ(a->items.size(), b->items.size()) << q;
  }
  auto count_a = pinned_engine.Query("FIND COUNT ?a WHERE { ?a CONTAINS \"probe\" }");
  auto count_b = recycled_engine.Query("FIND COUNT ?a WHERE { ?a CONTAINS \"probe\" }");
  ASSERT_TRUE(count_a.ok());
  ASSERT_TRUE(count_b.ok());
  EXPECT_EQ(count_a->items[0].count, 13u);
  EXPECT_EQ(count_b->items[0].count, 13u);
  EXPECT_TRUE(pinned_engine.ValidateIntegrity().ok());
  EXPECT_TRUE(recycled_engine.ValidateIntegrity().ok());
}

}  // namespace
}  // namespace util
}  // namespace graphitti
