#include "spatial/rtree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

namespace graphitti {
namespace spatial {

RTree::RTree(int dims, int max_entries)
    : dims_(dims),
      max_entries_(static_cast<size_t>(std::max(4, max_entries))),
      min_entries_(std::max<size_t>(2, max_entries_ / 2)),
      root_(std::make_shared<Node>()) {}

RTree::Node* RTree::Own(NodePtr* slot, util::EditToken token) {
  if ((*slot)->edit != token) {
    auto copy = std::make_shared<Node>(**slot);
    copy->edit = token;
    *slot = std::move(copy);
  }
  return slot->get();
}

Rect RTree::NodeBound(const Node& node) const {
  Rect bound;
  bool first = true;
  for (const NodeEntry& e : node.entries) {
    bound = first ? e.rect : bound.Union(e.rect);
    first = false;
  }
  if (first) {
    bound.dims = dims_;
  }
  return bound;
}

int RTree::HeightRec(const Node* node) const {
  if (node->leaf) return 1;
  return 1 + HeightRec(node->entries.empty() ? nullptr : node->entries[0].child.get());
}

int RTree::height() const {
  if (root_->leaf) return 1;
  return HeightRec(root_.get());
}

namespace {

/// Quadratic split (Guttman 1984): moves roughly half of `node`'s entries
/// into a fresh sibling, minimizing total dead space.
template <typename NodeT, typename EntryT>
std::shared_ptr<NodeT> QuadraticSplit(NodeT* node, size_t min_entries) {
  auto& entries = node->entries;
  const size_t n = entries.size();

  // PickSeeds: the pair wasting the most space if grouped together.
  size_t seed_a = 0, seed_b = 1;
  double worst = -1;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      double waste = entries[i].rect.Union(entries[j].rect).Volume() -
                     entries[i].rect.Volume() - entries[j].rect.Volume();
      if (waste > worst) {
        worst = waste;
        seed_a = i;
        seed_b = j;
      }
    }
  }

  auto sibling = std::make_shared<NodeT>();
  sibling->leaf = node->leaf;
  sibling->edit = node->edit;

  std::vector<EntryT> pool;
  pool.reserve(n);
  for (auto& e : entries) pool.push_back(std::move(e));
  entries.clear();

  entries.push_back(std::move(pool[seed_a]));
  sibling->entries.push_back(std::move(pool[seed_b]));
  Rect bound_a = entries[0].rect;
  Rect bound_b = sibling->entries[0].rect;

  std::vector<size_t> remaining;
  for (size_t i = 0; i < n; ++i) {
    if (i != seed_a && i != seed_b) remaining.push_back(i);
  }

  while (!remaining.empty()) {
    // Force-assign when one group must take all the rest to reach min fill.
    size_t left = remaining.size();
    if (entries.size() + left <= min_entries) {
      for (size_t i : remaining) {
        bound_a = bound_a.Union(pool[i].rect);
        entries.push_back(std::move(pool[i]));
      }
      break;
    }
    if (sibling->entries.size() + left <= min_entries) {
      for (size_t i : remaining) {
        bound_b = bound_b.Union(pool[i].rect);
        sibling->entries.push_back(std::move(pool[i]));
      }
      break;
    }

    // PickNext: entry with the greatest preference for one group.
    size_t best_pos = 0;
    double best_diff = -1;
    for (size_t pos = 0; pos < remaining.size(); ++pos) {
      const Rect& r = pool[remaining[pos]].rect;
      double diff = std::abs(bound_a.Enlargement(r) - bound_b.Enlargement(r));
      if (diff > best_diff) {
        best_diff = diff;
        best_pos = pos;
      }
    }
    size_t idx = remaining[best_pos];
    remaining.erase(remaining.begin() + static_cast<long>(best_pos));

    const Rect& r = pool[idx].rect;
    double grow_a = bound_a.Enlargement(r);
    double grow_b = bound_b.Enlargement(r);
    bool to_a;
    if (grow_a != grow_b) {
      to_a = grow_a < grow_b;
    } else if (bound_a.Volume() != bound_b.Volume()) {
      to_a = bound_a.Volume() < bound_b.Volume();
    } else {
      to_a = entries.size() <= sibling->entries.size();
    }
    if (to_a) {
      bound_a = bound_a.Union(r);
      entries.push_back(std::move(pool[idx]));
    } else {
      bound_b = bound_b.Union(r);
      sibling->entries.push_back(std::move(pool[idx]));
    }
  }
  return sibling;
}

}  // namespace

void RTree::SplitNode(Node* node, NodePtr* new_node_out) {
  *new_node_out = QuadraticSplit<Node, NodeEntry>(node, min_entries_);
}

util::Result<RTree> RTree::BulkLoad(std::vector<RTreeEntry> entries, int dims,
                                    int max_entries) {
  RTree tree(dims, max_entries);
  for (const RTreeEntry& e : entries) {
    if (e.rect.dims != dims || !e.rect.valid()) {
      return util::Status::InvalidArgument("invalid rect " + e.rect.ToString());
    }
  }
  // Duplicate detection on (rect-as-tuple, id).
  {
    auto less = [](const RTreeEntry& a, const RTreeEntry& b) {
      if (a.id != b.id) return a.id < b.id;
      for (int d = 0; d < a.rect.dims; ++d) {
        size_t i = static_cast<size_t>(d);
        if (a.rect.lo[i] != b.rect.lo[i]) return a.rect.lo[i] < b.rect.lo[i];
        if (a.rect.hi[i] != b.rect.hi[i]) return a.rect.hi[i] < b.rect.hi[i];
      }
      return false;
    };
    std::vector<RTreeEntry> sorted = entries;
    std::sort(sorted.begin(), sorted.end(), less);
    for (size_t i = 1; i < sorted.size(); ++i) {
      if (sorted[i] == sorted[i - 1]) {
        return util::Status::AlreadyExists("duplicate entry id " +
                                           std::to_string(sorted[i].id));
      }
    }
  }
  if (entries.empty()) return tree;

  const size_t cap = tree.max_entries_;
  const util::EditToken token = tree.owner_.Get();

  // Leaf level via STR: sort by x-center, slice, sort slices by y-center.
  auto center = [](const Rect& r, int axis) {
    size_t a = static_cast<size_t>(axis);
    return (r.lo[a] + r.hi[a]) / 2;
  };
  std::sort(entries.begin(), entries.end(), [&](const RTreeEntry& a, const RTreeEntry& b) {
    return center(a.rect, 0) < center(b.rect, 0);
  });
  size_t n = entries.size();
  size_t num_leaves = (n + cap - 1) / cap;
  size_t slabs = static_cast<size_t>(std::ceil(std::sqrt(static_cast<double>(num_leaves))));
  std::vector<NodePtr> level;
  size_t slab_cursor = 0;
  for (size_t s = 0; s < slabs; ++s) {
    // Even slab sizes keep every slab (hence every leaf) at/above min fill.
    size_t slab_size = n / slabs + (s < n % slabs ? 1 : 0);
    if (slab_size == 0) continue;
    size_t begin = slab_cursor;
    size_t end = begin + slab_size;
    slab_cursor = end;
    std::sort(entries.begin() + static_cast<long>(begin),
              entries.begin() + static_cast<long>(end),
              [&](const RTreeEntry& a, const RTreeEntry& b) {
                return center(a.rect, 1) < center(b.rect, 1);
              });
    // Evenly-sized groups keep every leaf at or above min fill.
    size_t m = end - begin;
    size_t groups = (m + cap - 1) / cap;
    size_t cursor = begin;
    for (size_t gi = 0; gi < groups; ++gi) {
      size_t take = m / groups + (gi < m % groups ? 1 : 0);
      auto leaf = std::make_shared<Node>();
      leaf->leaf = true;
      leaf->edit = token;
      for (size_t j = 0; j < take; ++j, ++cursor) {
        NodeEntry ne;
        ne.rect = entries[cursor].rect;
        ne.id = entries[cursor].id;
        leaf->entries.push_back(std::move(ne));
      }
      level.push_back(std::move(leaf));
    }
  }

  // Pack upper levels until a single root remains.
  while (level.size() > 1) {
    std::sort(level.begin(), level.end(),
              [&](const NodePtr& a, const NodePtr& b) {
                return center(tree.NodeBound(*a), 0) < center(tree.NodeBound(*b), 0);
              });
    std::vector<NodePtr> parents;
    size_t m = level.size();
    size_t groups = (m + cap - 1) / cap;
    size_t cursor = 0;
    for (size_t gi = 0; gi < groups; ++gi) {
      size_t take = m / groups + (gi < m % groups ? 1 : 0);
      auto parent = std::make_shared<Node>();
      parent->leaf = false;
      parent->edit = token;
      for (size_t j = 0; j < take; ++j, ++cursor) {
        NodeEntry ne;
        ne.rect = tree.NodeBound(*level[cursor]);
        ne.child = std::move(level[cursor]);
        parent->entries.push_back(std::move(ne));
      }
      parents.push_back(std::move(parent));
    }
    level = std::move(parents);
  }
  tree.root_ = std::move(level[0]);
  tree.size_ = n;
  return tree;
}

util::Status RTree::Insert(const Rect& rect, uint64_t id) {
  if (rect.dims != dims_) {
    return util::Status::InvalidArgument("rect dimensionality " + std::to_string(rect.dims) +
                                         " != tree dims " + std::to_string(dims_));
  }
  if (!rect.valid()) {
    return util::Status::InvalidArgument("invalid rect " + rect.ToString());
  }
  // Exact-duplicate check.
  for (const RTreeEntry& e : Window(rect)) {
    if (e.id == id && e.rect == rect) {
      return util::Status::AlreadyExists("rect " + rect.ToString() + " id " +
                                         std::to_string(id) + " already present");
    }
  }

  NodeEntry entry;
  entry.rect = rect;
  entry.id = id;
  ReinsertEntry(std::move(entry), /*target_depth=*/0);
  ++size_;
  return util::Status::OK();
}

// Inserts `entry` whose subtree height is `target_depth` (0 for leaf
// entries). Handles root splits.
// Every node on the descent path is owned (copied unless this tree's token
// stamped it) before it is modified.
void RTree::ReinsertEntry(NodeEntry entry, int target_depth) {
  const util::EditToken token = owner_.Get();
  // Recursive lambda: returns split sibling if the child overflowed.
  std::function<NodePtr(Node*, int)> insert_rec = [&](Node* node,
                                                      int node_height) -> NodePtr {
    if (node_height == target_depth + 1) {
      node->entries.push_back(std::move(entry));
    } else {
      // ChooseSubtree: least enlargement, ties by smallest volume.
      size_t best = 0;
      double best_grow = std::numeric_limits<double>::infinity();
      double best_vol = std::numeric_limits<double>::infinity();
      for (size_t i = 0; i < node->entries.size(); ++i) {
        double grow = node->entries[i].rect.Enlargement(entry.rect);
        double vol = node->entries[i].rect.Volume();
        if (grow < best_grow || (grow == best_grow && vol < best_vol)) {
          best_grow = grow;
          best_vol = vol;
          best = i;
        }
      }
      NodeEntry& chosen = node->entries[best];
      NodePtr split = insert_rec(Own(&chosen.child, token), node_height - 1);
      chosen.rect = NodeBound(*chosen.child);
      if (split != nullptr) {
        NodeEntry new_entry;
        new_entry.rect = NodeBound(*split);
        new_entry.child = std::move(split);
        node->entries.push_back(std::move(new_entry));
      }
    }
    if (node->entries.size() > max_entries_) {
      NodePtr sibling;
      SplitNode(node, &sibling);
      return sibling;
    }
    return nullptr;
  };

  int root_height = height();
  NodePtr split = insert_rec(Own(&root_, token), root_height);
  if (split != nullptr) {
    auto new_root = std::make_shared<Node>();
    new_root->leaf = false;
    new_root->edit = token;
    NodeEntry left;
    left.rect = NodeBound(*root_);
    left.child = std::move(root_);
    NodeEntry right;
    right.rect = NodeBound(*split);
    right.child = std::move(split);
    new_root->entries.push_back(std::move(left));
    new_root->entries.push_back(std::move(right));
    root_ = std::move(new_root);
  }
}

util::Status RTree::Erase(const Rect& rect, uint64_t id) {
  if (rect.dims != dims_) {
    return util::Status::InvalidArgument("rect dimensionality mismatch");
  }
  // Collect orphan batches level by level; repeat because condensing one
  // level can underflow the next.
  struct OrphanBatch {
    NodeEntry entry;
    int height;
  };
  std::vector<OrphanBatch> orphans;
  // Path-copies every node the search descends into (an R-tree search may
  // try several subtrees; the copies of the misses are identical and just
  // replace the shared originals in this tree).
  const util::EditToken token = owner_.Get();

  std::function<bool(Node*, int)> erase_rec = [&](Node* node, int node_height) -> bool {
    if (node->leaf) {
      for (auto it = node->entries.begin(); it != node->entries.end(); ++it) {
        if (it->id == id && it->rect == rect) {
          node->entries.erase(it);
          return true;
        }
      }
      return false;
    }
    for (auto it = node->entries.begin(); it != node->entries.end(); ++it) {
      if (!it->rect.Contains(rect)) continue;
      if (erase_rec(Own(&it->child, token), node_height - 1)) {
        if (it->child->entries.size() < min_entries_) {
          for (auto& e : it->child->entries) {
            orphans.push_back({std::move(e), node_height - 2});
          }
          node->entries.erase(it);
        } else {
          it->rect = NodeBound(*it->child);
        }
        return true;
      }
    }
    return false;
  };

  const std::vector<RTreeEntry> hits = Window(rect);
  if (std::none_of(hits.begin(), hits.end(), [&](const RTreeEntry& e) {
        return e.id == id && e.rect == rect;
      })) {
    return util::Status::NotFound("rect " + rect.ToString() + " id " + std::to_string(id) +
                                  " not found");
  }
  int root_height = height();
  if (!erase_rec(Own(&root_, token), root_height)) {
    return util::Status::NotFound("rect " + rect.ToString() + " id " + std::to_string(id) +
                                  " not found");
  }
  --size_;

  // Reinsert orphans (tallest first so the tree regrows before leaf entries).
  std::stable_sort(orphans.begin(), orphans.end(),
                   [](const OrphanBatch& a, const OrphanBatch& b) { return a.height > b.height; });
  for (auto& batch : orphans) {
    ReinsertEntry(std::move(batch.entry), batch.height);
  }

  // Shrink the root while it is an internal node with a single child.
  while (!root_->leaf && root_->entries.size() == 1) {
    NodePtr child = root_->entries[0].child;
    root_ = std::move(child);
  }
  if (!root_->leaf && root_->entries.empty()) {
    root_ = std::make_shared<Node>();
  }
  return util::Status::OK();
}

void RTree::ForEachOverlap(const Rect& window,
                           const std::function<void(const RTreeEntry&)>& fn) const {
  if (window.dims != dims_ || !window.valid()) return;
  struct Walker {
    const Rect& window;
    const std::function<void(const RTreeEntry&)>& fn;
    void Walk(const Node* node) const {
      for (const NodeEntry& e : node->entries) {
        if (!e.rect.Overlaps(window)) continue;
        if (node->leaf) {
          fn({e.rect, e.id});
        } else {
          Walk(e.child.get());
        }
      }
    }
  };
  Walker{window, fn}.Walk(root_.get());
}

std::vector<RTreeEntry> RTree::Window(const Rect& window) const {
  std::vector<RTreeEntry> out;
  ForEachOverlap(window, [&](const RTreeEntry& e) { out.push_back(e); });
  std::sort(out.begin(), out.end(),
            [](const RTreeEntry& a, const RTreeEntry& b) { return a.id < b.id; });
  return out;
}

std::vector<RTreeEntry> RTree::ContainedIn(const Rect& window) const {
  std::vector<RTreeEntry> out;
  if (window.dims != dims_ || !window.valid()) return out;
  std::function<void(const Node*)> walk = [&](const Node* node) {
    for (const NodeEntry& e : node->entries) {
      if (!e.rect.Overlaps(window)) continue;
      if (node->leaf) {
        if (window.Contains(e.rect)) out.push_back({e.rect, e.id});
      } else {
        walk(e.child.get());
      }
    }
  };
  walk(root_.get());
  std::sort(out.begin(), out.end(),
            [](const RTreeEntry& a, const RTreeEntry& b) { return a.id < b.id; });
  return out;
}

std::vector<RTreeEntry> RTree::Nearest(const Rect& target, size_t k) const {
  std::vector<RTreeEntry> out;
  if (target.dims != dims_ || k == 0) return out;

  struct QueueItem {
    double dist;
    const Node* node;    // non-null for internal frontier items
    const NodeEntry* entry;  // non-null for leaf entries
    bool operator>(const QueueItem& other) const { return dist > other.dist; }
  };
  std::priority_queue<QueueItem, std::vector<QueueItem>, std::greater<QueueItem>> pq;
  pq.push({0.0, root_.get(), nullptr});

  while (!pq.empty() && out.size() < k) {
    QueueItem item = pq.top();
    pq.pop();
    if (item.entry != nullptr) {
      out.push_back({item.entry->rect, item.entry->id});
      continue;
    }
    const Node* node = item.node;
    for (const NodeEntry& e : node->entries) {
      double d = e.rect.MinDistSq(target);
      if (node->leaf) {
        pq.push({d, nullptr, &e});
      } else {
        pq.push({d, e.child.get(), nullptr});
      }
    }
  }
  return out;
}

void RTree::ForEach(const std::function<void(const RTreeEntry&)>& fn) const {
  std::function<void(const Node*)> walk = [&](const Node* node) {
    for (const NodeEntry& e : node->entries) {
      if (node->leaf) {
        fn({e.rect, e.id});
      } else {
        walk(e.child.get());
      }
    }
  };
  walk(root_.get());
}

bool RTree::CheckInvariants() const {
  bool ok = true;
  size_t count = 0;
  int leaf_depth = -1;
  std::function<void(const Node*, int, bool)> walk = [&](const Node* node, int depth,
                                                         bool is_root) {
    if (!is_root && node->entries.size() < min_entries_) ok = false;
    if (node->entries.size() > max_entries_) ok = false;
    if (node->leaf) {
      if (leaf_depth == -1) {
        leaf_depth = depth;
      } else if (leaf_depth != depth) {
        ok = false;  // all leaves must share one depth
      }
      count += node->entries.size();
      return;
    }
    for (const NodeEntry& e : node->entries) {
      if (e.child == nullptr) {
        ok = false;
        continue;
      }
      if (!(e.rect == NodeBound(*e.child))) ok = false;
      walk(e.child.get(), depth + 1, false);
    }
  };
  walk(root_.get(), 0, true);
  if (count != size_) ok = false;
  return ok;
}

RTree RTree::Clone() const { return RTree(*this); }

}  // namespace spatial
}  // namespace graphitti
