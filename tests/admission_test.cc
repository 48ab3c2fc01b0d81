// AdmissionController tests: slot accounting, the bounded wait queue, timed
// waits, and the CondVar::WaitFor ordering contract the controller's
// predicate loop is built on (the predicate is re-checked before the clock,
// so a slot freed concurrently with the deadline passing is never lost).
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>

#include "annotation/annotation.h"
#include "core/graphitti.h"
#include "util/admission.h"
#include "util/thread_annotations.h"

namespace graphitti {
namespace {

using util::AdmissionController;
using util::AdmissionCounters;
using util::AdmissionOptions;
using util::CondVar;
using util::Mutex;
using util::MutexLock;
using WorkClass = AdmissionController::WorkClass;
using Ticket = AdmissionController::Ticket;

TEST(AdmissionController, UnmanagedClassAdmitsEverythingUncounted) {
  AdmissionOptions opts;  // both limits 0: nothing is managed
  AdmissionController ctrl(opts);
  for (int i = 0; i < 64; ++i) {
    Ticket t;
    EXPECT_TRUE(ctrl.Admit(WorkClass::kRead, &t).ok());
  }
  EXPECT_EQ(ctrl.Counters().admitted, 0u);
}

TEST(AdmissionController, SlotsAreBoundedAndReleasedByTicket) {
  AdmissionOptions opts;
  opts.max_concurrent_reads = 2;
  opts.max_queued = 0;  // no waiting: a saturated class rejects at once
  AdmissionController ctrl(opts);

  Ticket a, b, c;
  ASSERT_TRUE(ctrl.Admit(WorkClass::kRead, &a).ok());
  ASSERT_TRUE(ctrl.Admit(WorkClass::kRead, &b).ok());
  util::Status third = ctrl.Admit(WorkClass::kRead, &c);
  EXPECT_TRUE(third.IsResourceExhausted()) << third.ToString();

  a.Release();
  EXPECT_TRUE(ctrl.Admit(WorkClass::kRead, &c).ok());

  AdmissionCounters counters = ctrl.Counters();
  EXPECT_EQ(counters.admitted, 3u);
  EXPECT_EQ(counters.rejected_queue_full, 1u);
  EXPECT_EQ(counters.rejected_timeout, 0u);
}

TEST(AdmissionController, ReadAndCommitClassesAreIndependent) {
  AdmissionOptions opts;
  opts.max_concurrent_reads = 1;
  opts.max_concurrent_commits = 1;
  opts.max_queued = 0;
  AdmissionController ctrl(opts);
  Ticket r, w, r2;
  ASSERT_TRUE(ctrl.Admit(WorkClass::kRead, &r).ok());
  EXPECT_TRUE(ctrl.Admit(WorkClass::kCommit, &w).ok())
      << "a saturated read class must not starve commits";
  EXPECT_TRUE(ctrl.Admit(WorkClass::kRead, &r2).IsResourceExhausted());
}

TEST(AdmissionController, MovedTicketTransfersTheSlot) {
  AdmissionOptions opts;
  opts.max_concurrent_reads = 1;
  opts.max_queued = 0;
  AdmissionController ctrl(opts);
  Ticket a;
  ASSERT_TRUE(ctrl.Admit(WorkClass::kRead, &a).ok());
  Ticket b = std::move(a);  // the slot rides along; `a` holds nothing
  Ticket c;
  EXPECT_TRUE(ctrl.Admit(WorkClass::kRead, &c).IsResourceExhausted());
  b.Release();
  EXPECT_TRUE(ctrl.Admit(WorkClass::kRead, &c).ok());
}

TEST(AdmissionController, QueuedWaiterTimesOutWithResourceExhausted) {
  AdmissionOptions opts;
  opts.max_concurrent_reads = 1;
  opts.max_queued = 4;
  opts.queue_timeout = std::chrono::milliseconds(30);
  AdmissionController ctrl(opts);
  Ticket held;
  ASSERT_TRUE(ctrl.Admit(WorkClass::kRead, &held).ok());

  const auto start = std::chrono::steady_clock::now();
  Ticket waiting;
  util::Status s = ctrl.Admit(WorkClass::kRead, &waiting);
  const auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_TRUE(s.IsResourceExhausted()) << s.ToString();
  EXPECT_GE(waited, std::chrono::milliseconds(25));
  EXPECT_EQ(ctrl.Counters().rejected_timeout, 1u);
}

TEST(AdmissionController, QueuedWaiterWinsASlotFreedBeforeTheTimeout) {
  AdmissionOptions opts;
  opts.max_concurrent_reads = 1;
  opts.max_queued = 4;
  // Generous timeout: the release below must win long before it.
  opts.queue_timeout = std::chrono::seconds(5);
  AdmissionController ctrl(opts);
  auto held = std::make_shared<Ticket>();
  ASSERT_TRUE(ctrl.Admit(WorkClass::kRead, held.get()).ok());

  std::thread releaser([held] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    held->Release();
  });
  const auto start = std::chrono::steady_clock::now();
  Ticket waiting;
  util::Status s = ctrl.Admit(WorkClass::kRead, &waiting);
  const auto waited = std::chrono::steady_clock::now() - start;
  releaser.join();
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_LT(waited, std::chrono::seconds(4));
  EXPECT_EQ(ctrl.Counters().admitted, 2u);
  EXPECT_EQ(ctrl.Counters().rejected_timeout, 0u);
}

// --- CondVar::WaitFor ordering ---------------------------------------------
// The admission loop's correctness hinges on checking the predicate before
// the clock after every wakeup. These tests pin that ordering down at the
// CondVar level, deterministically.

TEST(CondVarWaitFor, PredicateSetWithoutNotifyIsSeenAfterTimeoutWakeup) {
  // The signaler sets the predicate but never notifies: the waiter can only
  // wake by WaitFor timing out. Because the loop re-checks the predicate
  // before consulting its own deadline, the wait still SUCCEEDS — a timeout
  // report from WaitFor must never override an established predicate.
  Mutex mu;
  CondVar cv;
  bool ready = false;
  bool succeeded = false;
  std::thread waiter([&] {
    MutexLock lock(mu);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(40);
    while (!ready) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) break;  // only reached if `ready` is still false
      cv.WaitFor(mu, deadline - now);
    }
    succeeded = ready;
  });
  {
    // Give the waiter time to enter WaitFor, then flip the flag silently.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    MutexLock lock(mu);
    ready = true;
    // Deliberately no NotifyOne().
  }
  waiter.join();
  EXPECT_TRUE(succeeded)
      << "predicate set before the deadline was lost to a timeout wakeup";
}

TEST(CondVarWaitFor, TimeoutWithFalsePredicateFails) {
  // No signaler at all: the loop must exit on the clock, with the
  // predicate still false — WaitFor's spurious wakeups must not fabricate
  // success.
  Mutex mu;
  CondVar cv;
  bool ready = false;
  bool timed_out = false;
  const auto start = std::chrono::steady_clock::now();
  {
    MutexLock lock(mu);
    const auto deadline = start + std::chrono::milliseconds(30);
    while (!ready) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) {
        timed_out = true;
        break;
      }
      cv.WaitFor(mu, deadline - now);
    }
  }
  EXPECT_TRUE(timed_out);
  EXPECT_FALSE(ready);
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(25));
}

TEST(CondVarWaitFor, SignalBeforeDeadlineWakesWithoutWaitingItOut) {
  Mutex mu;
  CondVar cv;
  bool ready = false;
  std::thread signaler([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    MutexLock lock(mu);
    ready = true;
    cv.NotifyOne();
  });
  const auto start = std::chrono::steady_clock::now();
  bool succeeded = false;
  {
    MutexLock lock(mu);
    const auto deadline = start + std::chrono::seconds(5);
    while (!ready) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) break;
      cv.WaitFor(mu, deadline - now);
    }
    succeeded = ready;
  }
  signaler.join();
  EXPECT_TRUE(succeeded);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(4));
}

// --- Engine wiring ----------------------------------------------------------

TEST(EngineAdmission, ConfiguredEngineAdmitsAndHealthCountsIt) {
  core::Graphitti g;
  AdmissionOptions opts;
  opts.max_concurrent_reads = 4;
  opts.max_concurrent_commits = 2;
  g.ConfigureAdmission(opts);

  annotation::AnnotationBuilder b;
  b.Title("one").Body("alpha").MarkInterval("flu:seg4", 0, 10);
  ASSERT_TRUE(g.Commit(b).ok());
  auto q = g.Query("FIND COUNT ?c WHERE { ?c CONTAINS \"alpha\" }");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->items[0].count, 1u);

  core::HealthSnapshot health = g.Health();
  EXPECT_EQ(health.mode, core::EngineMode::kServing);
  EXPECT_FALSE(health.durable);
  EXPECT_EQ(health.admission.admitted, 2u);  // one commit + one query
  EXPECT_EQ(health.admission.rejected_queue_full, 0u);

  // Version observability: the held result `q` pins the version after the
  // first commit; two more commits put it two epochs behind the current
  // one, and it keeps that version alive next to the current.
  EXPECT_EQ(health.live_versions, 1u);  // q pins the current version
  EXPECT_EQ(health.oldest_pin_epoch_lag, 0u);
  ASSERT_TRUE(g.Commit(b).ok());
  ASSERT_TRUE(g.Commit(b).ok());
  health = g.Health();
  EXPECT_EQ(health.live_versions, 2u);
  EXPECT_EQ(health.oldest_pin_epoch_lag, 2u);
  q->snapshot.reset();
  health = g.Health();
  EXPECT_EQ(health.live_versions, 1u);
  EXPECT_EQ(health.oldest_pin_epoch_lag, 0u);
}

TEST(EngineAdmission, UnconfiguredEngineReportsZeroAdmissionTraffic) {
  core::Graphitti g;
  auto q = g.Query("FIND COUNT ?c WHERE { ?c CONTAINS \"anything\" }");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(g.Health().admission.admitted, 0u);
}

}  // namespace
}  // namespace graphitti
