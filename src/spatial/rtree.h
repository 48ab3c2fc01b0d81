// Guttman R-tree (quadratic split) for 2D/3D region substructures.
#ifndef GRAPHITTI_SPATIAL_RTREE_H_
#define GRAPHITTI_SPATIAL_RTREE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "spatial/rect.h"
#include "util/persistent.h"
#include "util/result.h"
#include "util/status.h"

namespace graphitti {
namespace spatial {

struct RTreeEntry {
  Rect rect;
  uint64_t id = 0;

  bool operator==(const RTreeEntry& other) const {
    return rect == other.rect && id == other.id;
  }
};

/// Dynamic R-tree: insert/erase/window/containment/kNN. All stored rects
/// must have the tree's dimensionality.
///
/// A persistent value: nodes are refcounted and shared between copies, and
/// Insert/Erase path-copy the nodes they descend through
/// (util/persistent.h).
class RTree {
 public:
  /// `max_entries` is the node fan-out M (min fill is M/2, floor 2).
  explicit RTree(int dims = 2, int max_entries = 16);
  ~RTree() = default;
  /// Copies share every node (O(1)); see util/persistent.h.
  RTree(const RTree&) = default;
  RTree& operator=(const RTree&) = default;
  RTree(RTree&&) = default;
  RTree& operator=(RTree&&) = default;

  int dims() const { return dims_; }

  /// Inserts; InvalidArgument for invalid or wrong-dimension rects,
  /// AlreadyExists for an exact (rect, id) duplicate.
  util::Status Insert(const Rect& rect, uint64_t id);

  /// Sort-Tile-Recursive bulk load: builds a packed tree in O(n log n) with
  /// near-full nodes (better query fan-out than repeated Insert). Duplicate
  /// (rect, id) pairs are rejected.
  static util::Result<RTree> BulkLoad(std::vector<RTreeEntry> entries, int dims = 2,
                                      int max_entries = 16);

  /// Removes an exact (rect, id) pair; NotFound if absent.
  util::Status Erase(const Rect& rect, uint64_t id);

  /// All entries whose rect overlaps `window`, sorted by id.
  std::vector<RTreeEntry> Window(const Rect& window) const;

  /// Visits every entry overlapping `window` in tree (unspecified) order —
  /// the streaming form of Window() for consumers that do not need the
  /// id-sorted materialized vector.
  void ForEachOverlap(const Rect& window,
                      const std::function<void(const RTreeEntry&)>& fn) const;

  /// All entries fully contained in `window`, sorted by id.
  std::vector<RTreeEntry> ContainedIn(const Rect& window) const;

  /// The k entries nearest to `target` (best-first search on MinDist).
  std::vector<RTreeEntry> Nearest(const Rect& target, size_t k) const;

  /// Visits every stored entry (arbitrary order).
  void ForEach(const std::function<void(const RTreeEntry&)>& fn) const;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  int height() const;

  /// Validates bounding-box containment, fill factors and leaf depth
  /// uniformity (test hook).
  bool CheckInvariants() const;

  /// A copy sharing every node with this tree (O(1)).
  RTree Clone() const;

 private:
  struct Node;
  using NodePtr = std::shared_ptr<Node>;
  struct NodeEntry {
    Rect rect;
    NodePtr child;    // internal entries
    uint64_t id = 0;  // leaf entries
  };
  struct Node {
    bool leaf = true;
    std::vector<NodeEntry> entries;
    util::EditToken edit = 0;
  };

  /// `*slot` made editable under `token` (copied unless it owns it).
  static Node* Own(NodePtr* slot, util::EditToken token);

  Rect NodeBound(const Node& node) const;
  void SplitNode(Node* node, NodePtr* new_node_out);
  void ReinsertEntry(NodeEntry entry, int target_depth);
  int HeightRec(const Node* node) const;

  int dims_;
  size_t max_entries_;
  size_t min_entries_;
  NodePtr root_;
  size_t size_ = 0;
  util::EditOwner owner_;
};

}  // namespace spatial
}  // namespace graphitti

#endif  // GRAPHITTI_SPATIAL_RTREE_H_
