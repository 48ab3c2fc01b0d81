#include "spatial/interval_tree.h"

#include <algorithm>

namespace graphitti {
namespace spatial {

struct IntervalTree::Node {
  Interval iv;
  uint64_t id;
  NodePtr left;
  NodePtr right;
  int height = 1;
  int64_t max_hi;
  util::EditToken edit;

  Node(const Interval& iv_in, uint64_t id_in, util::EditToken edit_in)
      : iv(iv_in), id(id_in), max_hi(iv_in.hi), edit(edit_in) {}
};

IntervalTree::Node* IntervalTree::Own(NodePtr* slot, util::EditToken token) {
  if ((*slot)->edit != token) {
    auto copy = std::make_shared<Node>(**slot);
    copy->edit = token;
    *slot = std::move(copy);
  }
  return slot->get();
}

int IntervalTree::Height(const Node* n) { return n == nullptr ? 0 : n->height; }

int64_t IntervalTree::MaxHi(const Node* n) {
  return n == nullptr ? INT64_MIN : n->max_hi;
}

void IntervalTree::Pull(Node* n) {
  n->height = 1 + std::max(Height(n->left.get()), Height(n->right.get()));
  n->max_hi = std::max({n->iv.hi, MaxHi(n->left.get()), MaxHi(n->right.get())});
}

// Rotations and rebalancing take the (already owned) slot of the subtree
// root and own every other node they rewrite.
void IntervalTree::RotateLeft(NodePtr* slot, util::EditToken token) {
  NodePtr n = std::move(*slot);
  Own(&n->right, token);
  NodePtr r = std::move(n->right);
  n->right = std::move(r->left);
  Pull(n.get());
  r->left = std::move(n);
  Pull(r.get());
  *slot = std::move(r);
}

void IntervalTree::RotateRight(NodePtr* slot, util::EditToken token) {
  NodePtr n = std::move(*slot);
  Own(&n->left, token);
  NodePtr l = std::move(n->left);
  n->left = std::move(l->right);
  Pull(n.get());
  l->right = std::move(n);
  Pull(l.get());
  *slot = std::move(l);
}

void IntervalTree::Rebalance(NodePtr* slot, util::EditToken token) {
  Node* n = slot->get();
  Pull(n);
  int balance = Height(n->left.get()) - Height(n->right.get());
  if (balance > 1) {
    if (Height(n->left->left.get()) < Height(n->left->right.get())) {
      Own(&n->left, token);
      RotateLeft(&n->left, token);
    }
    RotateRight(slot, token);
  } else if (balance < -1) {
    if (Height(n->right->right.get()) < Height(n->right->left.get())) {
      Own(&n->right, token);
      RotateRight(&n->right, token);
    }
    RotateLeft(slot, token);
  }
}

int IntervalTree::CompareKey(const Interval& a, uint64_t aid, const Node* n) {
  if (a.lo != n->iv.lo) return a.lo < n->iv.lo ? -1 : 1;
  if (a.hi != n->iv.hi) return a.hi < n->iv.hi ? -1 : 1;
  if (aid != n->id) return aid < n->id ? -1 : 1;
  return 0;
}

util::Result<IntervalTree> IntervalTree::BulkLoad(std::vector<IntervalEntry> entries) {
  for (const IntervalEntry& e : entries) {
    if (!e.interval.valid()) {
      return util::Status::InvalidArgument("invalid interval " + e.interval.ToString());
    }
  }
  auto key_less = [](const IntervalEntry& a, const IntervalEntry& b) {
    if (a.interval.lo != b.interval.lo) return a.interval.lo < b.interval.lo;
    if (a.interval.hi != b.interval.hi) return a.interval.hi < b.interval.hi;
    return a.id < b.id;
  };
  std::sort(entries.begin(), entries.end(), key_less);
  for (size_t i = 1; i < entries.size(); ++i) {
    if (entries[i] == entries[i - 1]) {
      return util::Status::AlreadyExists("duplicate entry " + entries[i].interval.ToString() +
                                         " id " + std::to_string(entries[i].id));
    }
  }

  // Recursive median build; Pull fixes height and max-hi bottom-up.
  struct Builder {
    const std::vector<IntervalEntry>& entries;
    util::EditToken token;
    NodePtr Build(size_t lo, size_t hi) {  // [lo, hi)
      if (lo >= hi) return nullptr;
      size_t mid = lo + (hi - lo) / 2;
      auto node = std::make_shared<Node>(entries[mid].interval, entries[mid].id, token);
      node->left = Build(lo, mid);
      node->right = Build(mid + 1, hi);
      Pull(node.get());
      return node;
    }
  };
  IntervalTree tree;
  tree.root_ = Builder{entries, tree.owner_.Get()}.Build(0, entries.size());
  tree.size_ = entries.size();
  return tree;
}

util::Status IntervalTree::Insert(const Interval& interval, uint64_t id) {
  if (!interval.valid()) {
    return util::Status::InvalidArgument("invalid interval " + interval.ToString());
  }
  if (Contains(interval, id)) {
    return util::Status::AlreadyExists("interval " + interval.ToString() + " id " +
                                       std::to_string(id) + " already present");
  }
  // Iterative descent recording the child-link slot at each visited node
  // (owning each: this is the path a persistent insert copies), so the
  // commit path (ingest) never recurses — adversarial insertion orders
  // cannot grow the stack. An AVL tree of 2^64 keys is at most ~92 levels
  // deep; 128 slots cover it with margin.
  const util::EditToken token = owner_.Get();
  constexpr int kMaxDepth = 128;
  NodePtr* slots[kMaxDepth];
  int depth = 0;
  NodePtr* slot = &root_;
  while (*slot != nullptr) {
    Node* n = Own(slot, token);
    slots[depth++] = slot;
    slot = CompareKey(interval, id, n) < 0 ? &n->left : &n->right;
  }
  *slot = std::make_shared<Node>(interval, id, token);
  ++size_;
  // Explicit rebalancing path: walk the recorded slots bottom-up; a rotation
  // rewrites the parent's child link through the saved slot. Once a level
  // keeps its root, height AND max-hi, every ancestor's Pull inputs are
  // unchanged, so the walk stops early.
  for (int i = depth - 1; i >= 0; --i) {
    Node* n = slots[i]->get();
    int old_height = n->height;
    int64_t old_max_hi = n->max_hi;
    Rebalance(slots[i], token);
    if (slots[i]->get() == n && n->height == old_height && n->max_hi == old_max_hi) break;
  }
  return util::Status::OK();
}

bool IntervalTree::Contains(const Interval& interval, uint64_t id) const {
  const Node* node = root_.get();
  while (node != nullptr) {
    int cmp = CompareKey(interval, id, node);
    if (cmp == 0) return true;
    node = cmp < 0 ? node->left.get() : node->right.get();
  }
  return false;
}

void IntervalTree::PopMin(NodePtr* slot, NodePtr* min_out, util::EditToken token) {
  Node* node = Own(slot, token);
  if (node->left == nullptr) {
    NodePtr right = std::move(node->right);
    *min_out = std::move(*slot);
    *slot = std::move(right);
    return;
  }
  PopMin(&node->left, min_out, token);
  Rebalance(slot, token);
}

void IntervalTree::EraseRec(NodePtr* slot, const Interval& interval, uint64_t id,
                            util::EditToken token) {
  Node* node = Own(slot, token);
  int cmp = CompareKey(interval, id, node);
  if (cmp < 0) {
    EraseRec(&node->left, interval, id, token);
  } else if (cmp > 0) {
    EraseRec(&node->right, interval, id, token);
  } else {
    if (node->left == nullptr || node->right == nullptr) {
      NodePtr child = node->left != nullptr ? std::move(node->left) : std::move(node->right);
      *slot = std::move(child);  // child is AVL-balanced already
      return;
    }
    NodePtr successor;
    PopMin(&node->right, &successor, token);
    successor->left = std::move(node->left);
    successor->right = std::move(node->right);
    *slot = std::move(successor);
  }
  Rebalance(slot, token);
}

util::Status IntervalTree::Erase(const Interval& interval, uint64_t id) {
  if (!Contains(interval, id)) {
    return util::Status::NotFound("interval " + interval.ToString() + " id " +
                                  std::to_string(id) + " not found");
  }
  EraseRec(&root_, interval, id, owner_.Get());
  --size_;
  return util::Status::OK();
}

void IntervalTree::ForEachOverlap(
    const Interval& window, const std::function<void(const IntervalEntry&)>& fn) const {
  if (!window.valid()) return;
  // In-order traversal pruned by the max-hi augmentation: skip any subtree
  // whose max endpoint is below the window, and right subtrees once lo is
  // past the window end. Recursion depth is O(log n) thanks to AVL balance.
  struct Walker {
    const Interval& window;
    const std::function<void(const IntervalEntry&)>& fn;
    void Walk(const Node* node) {
      if (node == nullptr || MaxHi(node) < window.lo) return;
      Walk(node->left.get());
      if (node->iv.Overlaps(window)) fn({node->iv, node->id});
      if (node->iv.lo <= window.hi) Walk(node->right.get());
    }
  };
  Walker{window, fn}.Walk(root_.get());
}

std::vector<IntervalEntry> IntervalTree::Window(const Interval& window) const {
  // Same pruned in-order walk as ForEachOverlap with a direct push_back:
  // the materializing form stays free of a per-hit std::function call.
  std::vector<IntervalEntry> out;
  if (!window.valid()) return out;
  struct Walker {
    const Interval& window;
    std::vector<IntervalEntry>* out;
    void Walk(const Node* node) {
      if (node == nullptr || MaxHi(node) < window.lo) return;
      Walk(node->left.get());
      if (node->iv.Overlaps(window)) out->push_back({node->iv, node->id});
      if (node->iv.lo <= window.hi) Walk(node->right.get());
    }
  };
  Walker{window, &out}.Walk(root_.get());
  return out;
}

std::vector<IntervalEntry> IntervalTree::Stab(int64_t point) const {
  return Window(Interval(point, point));
}

std::optional<IntervalEntry> IntervalTree::NextAfter(int64_t position) const {
  const Node* node = root_.get();
  const Node* best = nullptr;
  while (node != nullptr) {
    if (node->iv.lo > position) {
      best = node;  // candidate; anything smaller is in the left subtree
      node = node->left.get();
    } else {
      node = node->right.get();
    }
  }
  if (best == nullptr) return std::nullopt;
  return IntervalEntry{best->iv, best->id};
}

std::optional<IntervalEntry> IntervalTree::First() const {
  const Node* node = root_.get();
  if (node == nullptr) return std::nullopt;
  while (node->left != nullptr) node = node->left.get();
  return IntervalEntry{node->iv, node->id};
}

void IntervalTree::ForEach(const std::function<void(const IntervalEntry&)>& fn) const {
  struct Walker {
    const std::function<void(const IntervalEntry&)>& fn;
    void Walk(const Node* node) {
      if (node == nullptr) return;
      Walk(node->left.get());
      fn({node->iv, node->id});
      Walk(node->right.get());
    }
  };
  Walker{fn}.Walk(root_.get());
}

int IntervalTree::height() const { return Height(root_.get()); }

bool IntervalTree::CheckInvariants() const {
  struct Checker {
    bool ok = true;
    size_t count = 0;
    const Node* prev = nullptr;

    std::pair<int, int64_t> Walk(const Node* node) {
      if (node == nullptr) return {0, INT64_MIN};
      auto [lh, lmax] = Walk(node->left.get());
      // In-order key monotonicity.
      if (prev != nullptr && CompareKey(prev->iv, prev->id, node) >= 0) ok = false;
      prev = node;
      ++count;
      auto [rh, rmax] = Walk(node->right.get());
      int h = 1 + std::max(lh, rh);
      if (node->height != h) ok = false;
      if (std::abs(lh - rh) > 1) ok = false;
      int64_t maxhi = std::max({node->iv.hi, lmax, rmax});
      if (node->max_hi != maxhi) ok = false;
      return {h, maxhi};
    }
  };
  Checker checker;
  checker.Walk(root_.get());
  return checker.ok && checker.count == size_;
}

IntervalTree IntervalTree::Clone() const { return IntervalTree(*this); }

}  // namespace spatial
}  // namespace graphitti
