// EpochManager: epoch-pinned copy-on-write state publication (ROADMAP
// item 1; successor to the retired util/rw_gate.h reader-writer gate).
//
// The engine keeps its whole versioned state behind one atomic "current
// version" pointer. Writers never mutate published state: they build the
// next version off to the side (core::Graphitti::AcquireScratch: a copy
// that shares every chunk with the current version, util/persistent.h),
// then call Publish(), which installs it with a single pointer swing under
// the manager's mutex. Readers call
// PinCurrent() on entry and operate on the pinned version for as long as
// the returned Pin lives — across a whole query, a paged result's
// lifetime, or N intervening commits. A pinned version is immutable by
// construction, so readers take no lock while reading and are never
// blocked for the duration of a commit; a long analytic read delays only
// *reclamation* of old versions, never publication of new ones.
//
// Reclamation. Each version records how many pins it holds. When a
// version is superseded and its pin count drains to zero it is retired,
// on whichever thread dropped the last pin (or on the publishing thread
// when nothing pinned it), and destroyed right there. Versions share
// structure, so destroying one frees only the chunks no other live version
// shares. Memory is bounded by {current} + {versions still pinned by live
// readers}. One exception: a version retired by a pin drop on a thread
// other than the last publisher is destroyed by the next Publish (or by
// the manager's destructor) instead. Writers allocate versions, and a
// reader freeing one would contend with the writer on its malloc arena;
// such retirees add {retired since the last publish} to the bound.
//
// Contract notes:
//  - The manager must be owned by a std::shared_ptr (the engine holds it
//    that way). Pins share ownership of the manager, so a Pin held by a
//    long-lived query result keeps its snapshot valid even if the engine
//    is destroyed first.
//  - Pin is copyable (a copy re-pins the same version) and may be
//    destroyed on any thread; on the last publisher's thread destruction
//    may delete the version inline.
//  - Publish is a writer-side call; callers serialize it externally (the
//    engine's commit mutex).
//  - live_versions() and oldest_pin_epoch_lag() are atomic mirrors kept
//    under the mutex, so health probes read them without locking.
#ifndef GRAPHITTI_UTIL_EPOCH_H_
#define GRAPHITTI_UTIL_EPOCH_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>

#include "util/thread_annotations.h"

namespace graphitti {
namespace util {

/// Base class for state snapshots managed by EpochManager. Virtual dtor
/// only: the manager owns versions through this type so layers below
/// core/ (query results pin their snapshot) need not know the concrete
/// engine-state type.
class Versioned {
 public:
  virtual ~Versioned() = default;
};

class EpochManager : public std::enable_shared_from_this<EpochManager> {
  struct Node;

 public:
  EpochManager() = default;
  // Destruction races nothing by contract (the last shared_ptr owner is
  // the only thread left), but the analysis cannot know that; take the
  // lock anyway — it is uncontended and keeps the walk provable.
  ~EpochManager() {
    MutexLock lock(mu_);
    DeleteChain(head_);
    DeleteChain(retired_);
  }
  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;

  /// RAII pin on one published version. Copyable; copies re-pin. Safe to
  /// destroy on a different thread than the one that pinned.
  class Pin {
   public:
    Pin() = default;
    Pin(const Pin& other) : mgr_(other.mgr_), node_(other.node_) {
      if (node_ != nullptr) mgr_->Ref(node_);
    }
    Pin(Pin&& other) noexcept : mgr_(other.mgr_), node_(other.node_) {
      other.mgr_ = nullptr;
      other.node_ = nullptr;
    }
    Pin& operator=(Pin other) noexcept {
      std::swap(mgr_, other.mgr_);
      std::swap(node_, other.node_);
      return *this;
    }
    ~Pin() { reset(); }

    void reset() {
      if (node_ != nullptr) mgr_->Unref(node_);
      mgr_ = nullptr;
      node_ = nullptr;
    }

    explicit operator bool() const { return node_ != nullptr; }
    Versioned* get() const { return node_ != nullptr ? node_->state.get() : nullptr; }
    /// The pinned version's epoch number (diagnostics / test invariants).
    uint64_t epoch() const { return node_ != nullptr ? node_->epoch : 0; }

   private:
    friend class EpochManager;
    Pin(std::shared_ptr<EpochManager> mgr, Node* node)
        : mgr_(std::move(mgr)), node_(node) {}
    std::shared_ptr<EpochManager> mgr_;
    Node* node_ = nullptr;
  };

  /// Pin the currently published version. Never blocks on writers beyond
  /// the manager mutex (a few dozen instructions). The manager must be
  /// shared_ptr-owned (see contract notes).
  Pin PinCurrent() {
    MutexLock lock(mu_);
    assert(current_ != nullptr && "EpochManager: nothing published yet");
    current_->pins++;
    return Pin(shared_from_this(), current_);
  }

  /// Publish `state` as the new current version. Writer-side; externally
  /// serialized. The superseded version is destroyed now if no pin holds
  /// it, else when its last pin drops; versions retired on other threads
  /// since the last Publish are destroyed here.
  void Publish(std::unique_ptr<Versioned> state) {
    Node* dead = nullptr;
    Node* retired = nullptr;
    {
      MutexLock lock(mu_);
      Node* node = new Node;
      node->state = std::move(state);
      node->epoch = ++epoch_;
      node->prev = tail_;
      if (tail_ != nullptr) tail_->next = node;
      tail_ = node;
      if (head_ == nullptr) head_ = node;
      Node* old = current_;
      current_ = node;
      publisher_ = std::this_thread::get_id();
      ++live_;
      if (old != nullptr && old->pins == 0) dead = Detach(old);
      retired = std::exchange(retired_, nullptr);
      UpdateStats();
    }
    delete dead;
    DeleteChain(retired);
  }

  /// The current version without pinning — writer-side only (the commit
  /// mutex holder is the only thread for which this cannot be superseded
  /// concurrently), or single-threaded use.
  Versioned* Current() {
    MutexLock lock(mu_);
    return current_ != nullptr ? current_->state.get() : nullptr;
  }

  bool has_current() {
    MutexLock lock(mu_);
    return current_ != nullptr;
  }

  /// Number of versions alive (current + pinned stragglers). Retired
  /// versions awaiting a deferred free are not counted. Lock-free.
  size_t live_versions() const { return live_versions_.load(std::memory_order_relaxed); }

  /// Current epoch minus the epoch of the oldest version still pinned: how
  /// many commits the slowest reader is behind (0 when only the current
  /// version is pinned, or nothing is). Lock-free.
  uint64_t oldest_pin_epoch_lag() const {
    return pin_lag_.load(std::memory_order_relaxed);
  }

  uint64_t current_epoch() const { return current_epoch_.load(std::memory_order_relaxed); }

 private:
  // Every mutable Node field (pins, prev/next links) is
  // guarded by the owning manager's mu_; that relation is not expressible
  // as a GUARDED_BY on the inner struct (a Node cannot name its manager),
  // so it is enforced one level up: every function that touches a Node
  // either holds mu_ inline or carries REQUIRES(mu_). `state` and `epoch`
  // are written once before the node is published and immutable after —
  // Pin::get()/epoch() read them lock-free by design.
  struct Node {
    std::unique_ptr<Versioned> state;
    uint64_t epoch = 0;
    size_t pins = 0;
    Node* prev = nullptr;
    Node* next = nullptr;
  };

  void Ref(Node* node) {
    MutexLock lock(mu_);
    node->pins++;
    UpdateStats();
  }

  void Unref(Node* node) {
    Node* dead = nullptr;
    {
      MutexLock lock(mu_);
      assert(node->pins > 0);
      node->pins--;
      // Reclaim on drain: superseded and no pins.
      if (node->pins == 0 && node != current_) {
        dead = Detach(node);
        if (publisher_ != std::this_thread::get_id()) {
          dead->next = retired_;
          retired_ = std::exchange(dead, nullptr);
        }
      }
      UpdateStats();
    }
    delete dead;
  }

  /// Refreshes the lock-free mirrors. Superseded versions stay listed only
  /// while pinned, so the oldest pinned version is the list head unless
  /// the head is an unpinned current version.
  void UpdateStats() REQUIRES(mu_) {
    live_versions_.store(live_, std::memory_order_relaxed);
    current_epoch_.store(epoch_, std::memory_order_relaxed);
    uint64_t lag = 0;
    if (head_ != nullptr && (head_ != current_ || head_->pins > 0)) {
      lag = epoch_ - head_->epoch;
    }
    pin_lag_.store(lag, std::memory_order_relaxed);
  }

  /// Unlink from the version list. Caller holds mu_ and deletes outside it
  /// (version destructors can be heavy — whole engine states).
  Node* Detach(Node* node) REQUIRES(mu_) {
    --live_;
    if (node->prev != nullptr) node->prev->next = node->next;
    if (node->next != nullptr) node->next->prev = node->prev;
    if (head_ == node) head_ = node->next;
    if (tail_ == node) tail_ = node->prev;
    node->prev = nullptr;
    node->next = nullptr;
    return node;
  }

  /// Deletes `n` and every node after it on the next links.
  static void DeleteChain(Node* n) {
    while (n != nullptr) delete std::exchange(n, n->next);
  }

  Mutex mu_;
  Node* head_ GUARDED_BY(mu_) = nullptr;  // oldest
  Node* tail_ GUARDED_BY(mu_) = nullptr;  // newest
  Node* current_ GUARDED_BY(mu_) = nullptr;
  uint64_t epoch_ GUARDED_BY(mu_) = 0;
  size_t live_ GUARDED_BY(mu_) = 0;
  std::thread::id publisher_ GUARDED_BY(mu_);  // thread of the last Publish
  Node* retired_ GUARDED_BY(mu_) = nullptr;     // awaiting the next Publish
  std::atomic<size_t> live_versions_{0};
  std::atomic<uint64_t> current_epoch_{0};
  std::atomic<uint64_t> pin_lag_{0};
};

using EpochPin = EpochManager::Pin;

}  // namespace util
}  // namespace graphitti

#endif  // GRAPHITTI_UTIL_EPOCH_H_
