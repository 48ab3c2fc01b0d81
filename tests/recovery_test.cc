// Crash-safe durability: OpenDurable / Checkpoint / recovery edge cases.
// The fault-schedule torture test lives in recovery_fault_test.cc; this file
// covers the recovery state machine on intact (or hand-damaged) directories.
#include <gtest/gtest.h>

#include <filesystem>

#include "core/graphitti.h"
#include "core/workload.h"
#include "persist/fault_env.h"
#include "persist/snapshot.h"
#include "persist/wal.h"

namespace graphitti {
namespace core {
namespace {

namespace fs = std::filesystem;
using annotation::AnnotationBuilder;
using persist::FaultInjectionEnv;

constexpr char kDir[] = "/db";

std::string WalPath(uint64_t generation) {
  return std::string(kDir) + "/" + persist::WalFileName(generation);
}

std::string SnapshotPath(uint64_t generation) {
  return std::string(kDir) + "/" + persist::SnapshotFileName(generation);
}

std::unique_ptr<Graphitti> MustOpen(FaultInjectionEnv* env) {
  DurabilityOptions opts;
  opts.env = env;
  auto g = Graphitti::OpenDurable(kDir, opts);
  EXPECT_TRUE(g.ok()) << g.status().ToString();
  return std::move(*g);
}

// Commits one interval annotation; returns its id.
annotation::AnnotationId CommitOne(Graphitti* g, const std::string& title,
                                   uint64_t object_id = 0) {
  AnnotationBuilder b;
  b.Title(title).Creator("tester").Body("body of " + title);
  b.MarkInterval("flu:seg4", 10, 20, object_id);
  auto id = g->Commit(b);
  EXPECT_TRUE(id.ok()) << id.status().ToString();
  return id.ok() ? *id : 0;
}

TEST(RecoveryTest, FreshOpenCommitsSurviveReopen) {
  FaultInjectionEnv env;
  uint64_t seq = 0;
  annotation::AnnotationId a1 = 0, a2 = 0;
  {
    auto g = MustOpen(&env);
    EXPECT_TRUE(g->IsDurable());
    EXPECT_EQ(g->generation(), 0u);
    seq = *g->IngestDnaSequence("AF1", "H5N1", "flu:seg4", "ACGTACGT");
    a1 = CommitOne(g.get(), "first", seq);
    a2 = CommitOne(g.get(), "second");
  }
  auto g = MustOpen(&env);
  EXPECT_EQ(g->Stats().num_annotations, 2u);
  ASSERT_NE(g->GetObject(seq), nullptr);
  EXPECT_EQ(g->GetObject(seq)->label, "dna_sequences/AF1");
  ASSERT_NE(g->annotations().Get(a1), nullptr);
  EXPECT_EQ(g->annotations().Get(a1)->dc.title, "first");
  ASSERT_NE(g->annotations().Get(a2), nullptr);
  EXPECT_TRUE(g->ValidateIntegrity().ok());
  // Replayed commits are fully hot: keyword search and content agree.
  EXPECT_EQ(g->annotations().SearchKeyword("first").size(), 1u);
}

TEST(RecoveryTest, RemovalReplays) {
  FaultInjectionEnv env;
  annotation::AnnotationId a1 = 0, a2 = 0;
  {
    auto g = MustOpen(&env);
    a1 = CommitOne(g.get(), "keep");
    a2 = CommitOne(g.get(), "drop");
    ASSERT_TRUE(g->RemoveAnnotation(a2).ok());
  }
  auto g = MustOpen(&env);
  EXPECT_NE(g->annotations().Get(a1), nullptr);
  EXPECT_EQ(g->annotations().Get(a2), nullptr);
  EXPECT_TRUE(g->ValidateIntegrity().ok());
}

TEST(RecoveryTest, CheckpointRoundTripsDeepState) {
  FaultInjectionEnv env;
  std::string stats_before, agraph_before;
  std::vector<annotation::AnnotationId> protease_before;
  {
    auto g = MustOpen(&env);
    InfluenzaParams params;
    params.num_annotations = 40;
    ASSERT_TRUE(GenerateInfluenzaStudy(g.get(), params).ok());
    stats_before = g->Stats().ToString();
    agraph_before = g->ExportAGraph();
    protease_before = g->annotations().SearchKeyword("protease");
    ASSERT_TRUE(g->Checkpoint().ok());
    EXPECT_EQ(g->generation(), 1u);
    // Old generation's files are gone, new pair exists.
    EXPECT_TRUE(env.FileExists(SnapshotPath(1)));
    EXPECT_TRUE(env.FileExists(WalPath(1)));
    EXPECT_FALSE(env.FileExists(WalPath(0)));
  }
  auto g = MustOpen(&env);
  EXPECT_EQ(g->generation(), 1u);
  EXPECT_EQ(g->Stats().ToString(), stats_before);
  // The snapshot restore rebuilds the a-graph in commit order: the dump
  // matches line for line.
  EXPECT_EQ(g->ExportAGraph(), agraph_before);
  EXPECT_EQ(g->annotations().SearchKeyword("protease"), protease_before);
  EXPECT_TRUE(g->ValidateIntegrity().ok());

  // Cold content hydrates on demand: an XPath-filtered query touches it.
  auto q = g->Query("FIND CONTENTS WHERE { ?a CONTAINS \"protease\" }");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->items.size(), protease_before.size());

  // New commits continue after the restored id space.
  annotation::AnnotationId next = CommitOne(g.get(), "post-restore");
  EXPECT_EQ(next, 41u);
}

TEST(RecoveryTest, SnapshotWithIdGapKeepsIdsDistinct) {
  // Live ids {1..20, 100}: the restore fills id-indexed tables in
  // ascending order with a gap of more than two chunks.
  FaultInjectionEnv env;
  std::string agraph_before;
  {
    auto g = MustOpen(&env);
    for (int i = 1; i <= 100; ++i) CommitOne(g.get(), "note" + std::to_string(i));
    for (annotation::AnnotationId id = 21; id < 100; ++id) {
      ASSERT_TRUE(g->RemoveAnnotation(id).ok());
    }
    agraph_before = g->ExportAGraph();
    ASSERT_TRUE(g->Checkpoint().ok());
  }
  auto g = MustOpen(&env);
  EXPECT_EQ(g->Stats().num_annotations, 21u);
  EXPECT_EQ(g->ExportAGraph(), agraph_before);
  for (annotation::AnnotationId id = 21; id < 100; ++id) {
    ASSERT_EQ(g->annotations().Get(id), nullptr) << id;
  }
  EXPECT_TRUE(g->RemoveAnnotation(40).IsNotFound());
  for (annotation::AnnotationId id : {1, 8, 20, 100}) {
    const annotation::Annotation* ann = g->annotations().Get(id);
    ASSERT_NE(ann, nullptr) << id;
    EXPECT_EQ(ann->dc.title, "note" + std::to_string(id));
  }
  EXPECT_TRUE(g->ValidateIntegrity().ok());
  ASSERT_TRUE(g->RemoveAnnotation(8).ok());
  EXPECT_EQ(g->annotations().Get(8), nullptr);
  EXPECT_NE(g->annotations().Get(9), nullptr);
  EXPECT_TRUE(g->ValidateIntegrity().ok());
}

TEST(RecoveryTest, SnapshotPlusWalTailRecovers) {
  FaultInjectionEnv env;
  annotation::AnnotationId pre = 0, post = 0;
  {
    auto g = MustOpen(&env);
    pre = CommitOne(g.get(), "in snapshot");
    ASSERT_TRUE(g->Checkpoint().ok());
    post = CommitOne(g.get(), "in wal tail");
  }
  auto g = MustOpen(&env);
  EXPECT_NE(g->annotations().Get(pre), nullptr);
  ASSERT_NE(g->annotations().Get(post), nullptr);
  EXPECT_EQ(g->annotations().Get(post)->dc.title, "in wal tail");
  EXPECT_TRUE(g->ValidateIntegrity().ok());
}

TEST(RecoveryTest, EmptyWalRecoversEmptyEngine) {
  FaultInjectionEnv env;
  { auto g = MustOpen(&env); }
  auto g = MustOpen(&env);
  EXPECT_EQ(g->Stats().num_annotations, 0u);
  EXPECT_TRUE(g->ValidateIntegrity().ok());
  CommitOne(g.get(), "works after empty recovery");
  EXPECT_EQ(g->Stats().num_annotations, 1u);
}

TEST(RecoveryTest, TornFirstRecordRecoversEmpty) {
  FaultInjectionEnv env;
  {
    auto g = MustOpen(&env);
    CommitOne(g.get(), "will be torn");
  }
  std::string data = *env.ReadFileToString(WalPath(0));
  ASSERT_TRUE(env.TruncateFile(WalPath(0), data.size() - 5).ok());
  auto g = MustOpen(&env);
  EXPECT_EQ(g->Stats().num_annotations, 0u);
  EXPECT_TRUE(g->ValidateIntegrity().ok());
  // The reopened WAL extends the clean (empty) prefix.
  CommitOne(g.get(), "after torn recovery");
  auto g2 = MustOpen(&env);
  EXPECT_EQ(g2->Stats().num_annotations, 1u);
}

TEST(RecoveryTest, SnapshotWithMissingWalIsCompleteState) {
  FaultInjectionEnv env;
  annotation::AnnotationId pre = 0;
  {
    auto g = MustOpen(&env);
    pre = CommitOne(g.get(), "snapshotted");
    ASSERT_TRUE(g->Checkpoint().ok());
  }
  // A crash between the snapshot rename and the new WAL's creation leaves
  // exactly this directory shape.
  ASSERT_TRUE(env.RemoveFile(WalPath(1)).ok());
  ASSERT_TRUE(env.SyncDir(kDir).ok());
  auto g = MustOpen(&env);
  EXPECT_NE(g->annotations().Get(pre), nullptr);
  EXPECT_TRUE(g->ValidateIntegrity().ok());
  // The WAL was recreated on attach; new mutations are durable again.
  CommitOne(g.get(), "after recreation");
  auto g2 = MustOpen(&env);
  EXPECT_EQ(g2->Stats().num_annotations, 2u);
}

TEST(RecoveryTest, DuplicateReplayIsIdempotent) {
  FaultInjectionEnv env;
  std::string stats_once;
  {
    auto g = MustOpen(&env);
    uint64_t seq = *g->IngestDnaSequence("AF1", "H5N1", "flu:seg4", "ACGT");
    CommitOne(g.get(), "one", seq);
    CommitOne(g.get(), "two");
    stats_once = g->Stats().ToString();
  }
  // Double every record: header + records + records. Each record is intact,
  // so replay sees every mutation delivered twice.
  std::string data = *env.ReadFileToString(WalPath(0));
  std::string doubled = data + data.substr(persist::kWalHeaderSize);
  {
    auto f = env.NewWritableFile(WalPath(0), /*truncate=*/true);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->Append(doubled).ok());
    ASSERT_TRUE((*f)->Sync().ok());
  }
  auto g = MustOpen(&env);
  EXPECT_EQ(g->Stats().ToString(), stats_once);
  EXPECT_TRUE(g->ValidateIntegrity().ok());
}

TEST(RecoveryTest, WalWithoutItsSnapshotRefused) {
  FaultInjectionEnv env;
  {
    auto g = MustOpen(&env);
    CommitOne(g.get(), "x");
    ASSERT_TRUE(g->Checkpoint().ok());
  }
  // wal-1 depends on snapshot-1; deleting the snapshot must refuse recovery
  // (silently replaying wal-1 onto an empty engine would corrupt state).
  ASSERT_TRUE(env.RemoveFile(SnapshotPath(1)).ok());
  ASSERT_TRUE(env.SyncDir(kDir).ok());
  DurabilityOptions opts;
  opts.env = &env;
  auto g = Graphitti::OpenDurable(kDir, opts);
  ASSERT_FALSE(g.ok());
  EXPECT_TRUE(g.status().IsInternal()) << g.status().ToString();
}

TEST(RecoveryTest, GroupCommitIntervalModeLosesOnlyUnsyncedTail) {
  FaultInjectionEnv env;
  DurabilityOptions opts;
  opts.env = &env;
  opts.wal.sync_policy = persist::WalOptions::SyncPolicy::kInterval;
  opts.wal.interval_ms = 60 * 1000;
  {
    auto g = Graphitti::OpenDurable(kDir, opts);
    ASSERT_TRUE(g.ok());
    CommitOne(g->get(), "maybe lost");
    CommitOne(g->get(), "maybe lost too");
    env.Crash();
  }
  // The un-fsynced tail is gone; the synced header makes recovery clean.
  auto g = MustOpen(&env);
  EXPECT_EQ(g->Stats().num_annotations, 0u);
  EXPECT_TRUE(g->ValidateIntegrity().ok());
}

// --- Deferred hydration (the fast-restart path) ---

TEST(RecoveryTest, DeferredAndEagerRestoreAgree) {
  FaultInjectionEnv env;
  {
    auto g = MustOpen(&env);
    uint64_t seq = *g->IngestDnaSequence("AF9", "H1N1", "flu:seg4", "ACGT");
    CommitOne(g.get(), "pre-checkpoint", seq);
    ASSERT_TRUE(g->Checkpoint().ok());
    CommitOne(g.get(), "wal tail");
  }
  auto lazy = MustOpen(&env);
  DurabilityOptions eager_opts;
  eager_opts.env = &env;
  eager_opts.eager_restore = true;
  auto eager = Graphitti::OpenDurable(kDir, eager_opts);
  ASSERT_TRUE(eager.ok()) << eager.status().ToString();
  EXPECT_EQ(lazy->Stats().ToString(), (*eager)->Stats().ToString());
  EXPECT_EQ(lazy->ExportAGraph(), (*eager)->ExportAGraph());
  EXPECT_EQ(lazy->generation(), (*eager)->generation());
}

TEST(RecoveryTest, CommitBeforeAnyReadHydratesFirst) {
  FaultInjectionEnv env;
  {
    auto g = MustOpen(&env);
    CommitOne(g.get(), "already durable");
    ASSERT_TRUE(g->Checkpoint().ok());
  }
  {
    // The very first call on the reopened engine is a mutation: deferred
    // recovery must run before the commit applies and logs, so the new
    // record lands in the WAL after the recovered state — not before it.
    auto g = MustOpen(&env);
    CommitOne(g.get(), "committed pre-hydration-read");
  }
  auto g = MustOpen(&env);
  EXPECT_EQ(g->Stats().num_annotations, 2u);
  EXPECT_EQ(g->annotations().SearchKeyword("durable").size(), 1u);
  EXPECT_EQ(g->annotations().SearchKeyword("pre").size(), 1u);
  EXPECT_TRUE(g->ValidateIntegrity().ok());
}

TEST(RecoveryTest, CheckpointRightAfterOpenHydratesFirst) {
  FaultInjectionEnv env;
  {
    auto g = MustOpen(&env);
    CommitOne(g.get(), "alpha");
    CommitOne(g.get(), "beta");
  }
  {
    auto g = MustOpen(&env);
    ASSERT_TRUE(g->Checkpoint().ok());
    EXPECT_EQ(g->generation(), 1u);
  }
  auto g = MustOpen(&env);
  EXPECT_EQ(g->generation(), 1u);
  EXPECT_EQ(g->Stats().num_annotations, 2u);
  EXPECT_TRUE(g->ValidateIntegrity().ok());
}

// --- Real-filesystem cases: legacy XML upgrade and LoadFrom auto-detect ---

// Every byte read from disk is untrusted, even behind a valid CRC: a
// snapshot whose referent count claims 0xFFFFFFFF entries must fail to
// open (eager) or to hydrate (deferred) with a Status, never by throwing
// length_error/bad_alloc from a reserve() sized by the corrupt count.
TEST(RecoveryTest, CorruptSnapshotCountFailsWithStatus) {
  FaultInjectionEnv env;
  {
    auto g = MustOpen(&env);
    ASSERT_TRUE(g->Checkpoint().ok());  // empty store: body ends with the
                                        // store's four trailing u64s
  }
  auto snap = persist::ReadSnapshotFile(env, SnapshotPath(1));
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  std::string body = snap->body;
  ASSERT_GE(body.size(), 32u);
  // [referent count][annotation count][next annotation id][next referent id]
  const size_t referent_count = body.size() - 32;
  const char corrupt[8] = {'\xff', '\xff', '\xff', '\xff', 0, 0, 0, 0};
  body.replace(referent_count, 8, corrupt, 8);
  ASSERT_TRUE(persist::WriteSnapshotFile(&env, SnapshotPath(1), 1, body).ok());

  DurabilityOptions eager;
  eager.env = &env;
  eager.eager_restore = true;
  auto opened = Graphitti::OpenDurable(kDir, eager);
  EXPECT_FALSE(opened.ok());

  DurabilityOptions deferred;
  deferred.env = &env;
  auto lazy = Graphitti::OpenDurable(kDir, deferred);
  if (lazy.ok()) {
    auto q = (*lazy)->Query("FIND CONTENTS WHERE { ?a CONTAINS \"x\" }");
    EXPECT_FALSE(q.ok());
  }
}

// The same for a WAL commit-batch record whose entry count cannot fit in
// its payload.
TEST(RecoveryTest, CorruptWalBatchCountFailsWithStatus) {
  FaultInjectionEnv env;
  { auto g = MustOpen(&env); }
  {
    auto wal = persist::WalWriter::Open(&env, WalPath(0), 0, persist::WalOptions{});
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    const char payload[4] = {'\xff', '\xff', '\xff', '\xff'};
    ASSERT_TRUE((*wal)
                    ->AppendRecord(persist::WalRecordType::kCommitBatch,
                                   std::string_view(payload, 4))
                    .ok());
  }
  DurabilityOptions eager;
  eager.env = &env;
  eager.eager_restore = true;
  auto opened = Graphitti::OpenDurable(kDir, eager);
  EXPECT_FALSE(opened.ok());
}

class RecoveryFsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("graphitti_recovery_" + std::to_string(reinterpret_cast<uintptr_t>(this)));
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  fs::path dir_;
};

TEST_F(RecoveryFsTest, LegacyXmlDirectoryUpgradesInPlace) {
  std::string stats_before;
  {
    Graphitti g;
    uint64_t seq = *g.IngestDnaSequence("AF1", "H5N1", "flu:seg4", "ACGTACGT");
    AnnotationBuilder b;
    b.Title("legacy").Creator("old code").MarkInterval("flu:seg4", 1, 4, seq);
    ASSERT_TRUE(g.Commit(b).ok());
    stats_before = g.Stats().ToString();
    ASSERT_TRUE(g.SaveTo(dir_.string()).ok());
  }
  {
    auto g = Graphitti::OpenDurable(dir_.string());
    ASSERT_TRUE(g.ok()) << g.status().ToString();
    EXPECT_EQ((*g)->Stats().ToString(), stats_before);
    // Upgrade checkpointed immediately: generation 1, binary files present.
    EXPECT_EQ((*g)->generation(), 1u);
    EXPECT_TRUE(fs::exists(dir_ / persist::SnapshotFileName(1)));
    AnnotationBuilder b;
    b.Title("post-upgrade").MarkInterval("flu:seg4", 5, 9);
    ASSERT_TRUE((*g)->Commit(b).ok());
  }
  // Second open takes the binary branch (snapshot + wal tail).
  auto g = Graphitti::OpenDurable(dir_.string());
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ((*g)->Stats().num_annotations, 2u);
  EXPECT_TRUE((*g)->ValidateIntegrity().ok());
}

TEST_F(RecoveryFsTest, LoadFromAutoDetectsBinaryDirectory) {
  std::string stats_before;
  {
    auto g = Graphitti::OpenDurable(dir_.string());
    ASSERT_TRUE(g.ok()) << g.status().ToString();
    uint64_t seq = *(*g)->IngestDnaSequence("AF1", "H5N1", "flu:seg4", "ACGT");
    AnnotationBuilder b;
    b.Title("snap").MarkInterval("flu:seg4", 0, 3, seq);
    ASSERT_TRUE((*g)->Commit(b).ok());
    ASSERT_TRUE((*g)->Checkpoint().ok());
    AnnotationBuilder b2;
    b2.Title("tail").MarkInterval("flu:seg4", 4, 7);
    ASSERT_TRUE((*g)->Commit(b2).ok());
    stats_before = (*g)->Stats().ToString();
  }
  auto loaded = Graphitti::LoadFrom(dir_.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->Stats().ToString(), stats_before);
  EXPECT_FALSE((*loaded)->IsDurable());
  EXPECT_TRUE((*loaded)->ValidateIntegrity().ok());
}

TEST_F(RecoveryFsTest, LoadFromStillReadsLegacyXmlDirectory) {
  // Pre-durability saves keep loading through the XML path untouched.
  {
    Graphitti g;
    AnnotationBuilder b;
    b.Title("xml era").MarkInterval("flu:seg4", 2, 6);
    ASSERT_TRUE(g.Commit(b).ok());
    ASSERT_TRUE(g.SaveTo(dir_.string()).ok());
  }
  auto loaded = Graphitti::LoadFrom(dir_.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->Stats().num_annotations, 1u);
  EXPECT_TRUE((*loaded)->ValidateIntegrity().ok());
}

}  // namespace
}  // namespace core
}  // namespace graphitti
