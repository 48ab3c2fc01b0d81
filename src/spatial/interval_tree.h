// Augmented AVL interval tree: O(log n + k) stabbing and window queries.
//
// The paper stores "the annotated substructures of the primary data ... in a
// collection of interval trees for 1D data (e.g. sequences)" with "a single
// interval tree ... per chromosome instead of per annotated DNA sequence".
#ifndef GRAPHITTI_SPATIAL_INTERVAL_TREE_H_
#define GRAPHITTI_SPATIAL_INTERVAL_TREE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "spatial/interval.h"
#include "util/persistent.h"
#include "util/result.h"
#include "util/status.h"

namespace graphitti {
namespace spatial {

/// One stored interval with its payload (a referent id).
struct IntervalEntry {
  Interval interval;
  uint64_t id = 0;

  bool operator==(const IntervalEntry& other) const {
    return interval == other.interval && id == other.id;
  }
};

/// Self-balancing (AVL) interval tree keyed by (lo, hi, id) with subtree
/// max-hi augmentation. Duplicate (interval, id) pairs are rejected;
/// identical intervals with distinct ids are fine.
///
/// A persistent value: nodes are refcounted and shared between copies, and
/// Insert/Erase path-copy the O(log n) nodes they rewrite (util/persistent.h).
class IntervalTree {
 public:
  IntervalTree() = default;
  /// Copies share every node (O(1)); see util/persistent.h.
  IntervalTree(const IntervalTree&) = default;
  IntervalTree& operator=(const IntervalTree&) = default;
  IntervalTree(IntervalTree&& other) noexcept
      : root_(std::move(other.root_)),
        size_(std::exchange(other.size_, 0)),
        owner_(std::move(other.owner_)) {}
  IntervalTree& operator=(IntervalTree&& other) noexcept {
    root_ = std::move(other.root_);
    size_ = std::exchange(other.size_, 0);
    owner_ = std::move(other.owner_);
    return *this;
  }

  /// Inserts; InvalidArgument when !interval.valid(), AlreadyExists on dup.
  util::Status Insert(const Interval& interval, uint64_t id);

  /// Builds a perfectly balanced tree from `entries` in O(n log n) — the
  /// fast path for reloading persisted corpora. Rejects invalid intervals
  /// and duplicate (interval, id) pairs.
  static util::Result<IntervalTree> BulkLoad(std::vector<IntervalEntry> entries);

  /// Removes an exact (interval, id) pair; NotFound if absent.
  util::Status Erase(const Interval& interval, uint64_t id);

  /// All entries whose interval contains `point`, ordered by (lo, hi, id).
  std::vector<IntervalEntry> Stab(int64_t point) const;

  /// All entries overlapping `window`, ordered by (lo, hi, id).
  std::vector<IntervalEntry> Window(const Interval& window) const;

  /// Visits every entry overlapping `window` in (lo, hi, id) order without
  /// materializing a result vector (the streaming form of Window()).
  void ForEachOverlap(const Interval& window,
                      const std::function<void(const IntervalEntry&)>& fn) const;

  /// The entry with the smallest (lo, hi, id) such that lo > `position`
  /// (the `next` substructure operator for ordered 1D domains, §II).
  std::optional<IntervalEntry> NextAfter(int64_t position) const;

  /// First entry in (lo, hi, id) order, if any.
  std::optional<IntervalEntry> First() const;

  /// Visits all entries in (lo, hi, id) order.
  void ForEach(const std::function<void(const IntervalEntry&)>& fn) const;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  int height() const;

  /// Validates AVL balance, key order and max-hi augmentation (test hook).
  bool CheckInvariants() const;

  /// A copy sharing every node with this tree (O(1)).
  IntervalTree Clone() const;

 private:
  struct Node;
  using NodePtr = std::shared_ptr<Node>;

  /// `*slot` made editable under `token` (copied unless it owns it).
  static Node* Own(NodePtr* slot, util::EditToken token);
  static int Height(const Node* n);
  static int64_t MaxHi(const Node* n);
  static void Pull(Node* n);
  static void RotateLeft(NodePtr* slot, util::EditToken token);
  static void RotateRight(NodePtr* slot, util::EditToken token);
  static void Rebalance(NodePtr* slot, util::EditToken token);
  static int CompareKey(const Interval& a, uint64_t aid, const Node* n);

  bool Contains(const Interval& interval, uint64_t id) const;
  static void EraseRec(NodePtr* slot, const Interval& interval, uint64_t id,
                       util::EditToken token);
  static void PopMin(NodePtr* slot, NodePtr* min_out, util::EditToken token);

  NodePtr root_;
  size_t size_ = 0;
  util::EditOwner owner_;
};

}  // namespace spatial
}  // namespace graphitti

#endif  // GRAPHITTI_SPATIAL_INTERVAL_TREE_H_
