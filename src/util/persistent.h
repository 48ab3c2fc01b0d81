// Persistent (path-copying) containers: the one way the engine makes a
// version (Driscoll et al., "Making Data Structures Persistent", JCSS
// 1989).
//
// Every container here is a value whose copy shares all of its structure:
// copying a ChunkedVector, SortedChunks, HashTrie or CowBox copies its root
// pointers.
// Structure lives in refcounted fixed-fanout chunks (InnerChunk, LeafChunk);
// a mutation copies only the chunks on the path to what it changes, and
// nothing reachable from two values is ever modified in place.
//
// Which chunks a mutation may modify in place is decided by an explicit
// edit token, not by refcounts (Clojure-style transients): every chunk is
// stamped with the token of the value that created it, and a mutator passes
// its value's current token. A chunk whose stamp matches is exclusively
// owned and is edited in place — bulk load, batch commits and hydration pay
// no copies — while any other chunk is copied first. The token lives one
// level up, in the substrate that owns the containers (EditOwner): copying
// a substrate hands the copy no token and *revokes* the source's, so after
// a copy neither side owns any chunk they share, and each re-acquires a
// fresh token on its next mutation. Tokens are never reused. A container
// copied *within* one substrate (a nested list duplicated into another
// slot) still carries chunks stamped with the live token, so an in-place
// edit through one copy would show through the other: move such values
// instead of copying them.
//
// Thread-safety: concurrent readers of one value (and of values sharing
// chunks) need no synchronization — chunks are immutable once shared, and
// refcounts and the owner token are atomics. Mutating a value requires the
// same exclusivity as mutating any other C++ object.
#ifndef GRAPHITTI_UTIL_PERSISTENT_H_
#define GRAPHITTI_UTIL_PERSISTENT_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/dense_set.h"

namespace graphitti {
namespace util {

/// Identifies the one value allowed to edit a chunk in place. 0 = none.
using EditToken = uint64_t;

/// A fresh, never-reused token.
inline EditToken NewEditToken() {
  static std::atomic<EditToken> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

/// The edit token of one persistent substrate. Copying the owner (as part
/// of copying the substrate) revokes the source's token and gives the copy
/// none; Get() lazily acquires a fresh one for the next mutation.
class EditOwner {
 public:
  EditOwner() = default;
  EditOwner(const EditOwner& other) { other.Revoke(); }
  EditOwner& operator=(const EditOwner& other) {
    if (this != &other) {
      other.Revoke();
      Revoke();
    }
    return *this;
  }
  EditOwner(EditOwner&& other) noexcept
      : token_(other.token_.exchange(0, std::memory_order_relaxed)) {}
  EditOwner& operator=(EditOwner&& other) noexcept {
    if (this != &other) {
      token_.store(other.token_.exchange(0, std::memory_order_relaxed),
                   std::memory_order_relaxed);
    }
    return *this;
  }

  /// The token for an in-place mutation, acquiring one when revoked.
  EditToken Get() {
    EditToken t = token_.load(std::memory_order_relaxed);
    if (t == 0) {
      t = NewEditToken();
      token_.store(t, std::memory_order_relaxed);
    }
    return t;
  }

  /// Gives up ownership of every chunk stamped so far (they become shared
  /// from here on). Const: a copy of a const substrate revokes the source.
  void Revoke() const {
    if (token_.load(std::memory_order_relaxed) != 0) {
      token_.store(0, std::memory_order_relaxed);
    }
  }

 private:
  mutable std::atomic<EditToken> token_{0};
};

/// Chunk geometry: every chunk holds up to 32 items or child chunks.
inline constexpr int kChunkBits = 5;
inline constexpr size_t kChunkFanout = size_t{1} << kChunkBits;
inline constexpr size_t kChunkMask = kChunkFanout - 1;

/// What every chunk carries: the token of the value that created it (and
/// so may edit it in place), and whether it routes to child chunks.
struct ChunkBase {
  EditToken edit = 0;
  bool inner = false;
};
using ChunkPtr = std::shared_ptr<ChunkBase>;

/// An inner chunk: 32 child slots (null = absent subtree). Shared by the
/// chunked vector and the hash trie.
struct InnerChunk : ChunkBase {
  InnerChunk() { inner = true; }
  ChunkPtr kids[kChunkFanout];
};

/// A leaf chunk of 32 items.
template <typename T>
struct LeafChunk : ChunkBase {
  T items[kChunkFanout];
};

/// `*slot` as an editable N: created when absent, copied (one allocation)
/// when stamped with another token, else returned as is.
template <typename N>
N* OwnChunk(ChunkPtr* slot, EditToken token) {
  if (*slot == nullptr || (*slot)->edit != token) {
    auto fresh = *slot == nullptr ? std::make_shared<N>()
                                  : std::make_shared<N>(static_cast<const N&>(**slot));
    fresh->edit = token;
    N* raw = fresh.get();
    *slot = std::move(fresh);
    return raw;
  }
  return static_cast<N*>(slot->get());
}

/// One immutable T shared between versions; a mutation copies it unless
/// the mutator's token owns it. The unit of copying for small records.
template <typename T>
class CowBox {
 public:
  const T& get() const { return node_ != nullptr ? node_->value : Empty(); }

  T& Mutable(EditToken token) {
    if (node_ == nullptr) {
      node_ = std::make_shared<Node>();
      node_->edit = token;
    } else if (node_->edit != token) {
      auto copy = std::make_shared<Node>(*node_);
      copy->edit = token;
      node_ = std::move(copy);
    }
    return node_->value;
  }

 private:
  struct Node {
    EditToken edit = 0;
    T value;
  };
  static const T& Empty() {
    static const T empty{};
    return empty;
  }
  std::shared_ptr<Node> node_;
};

/// Fixed-fanout (32-way) radix trie of T: an index-addressed vector whose
/// copies share every chunk. The chunk holding the last element (the tail)
/// sits outside the trie, so an append copies at most that one chunk and
/// reaches into the trie only when the tail fills, once per 32 elements;
/// commits append far more often than they rewrite. Sparse: chunks
/// covering only default values may be absent, so an id-indexed slot table
/// costs space for the ids in use, not the id range. Every slot at or past
/// size() holds T(), so growing never exposes an old value. Reads are a few
/// dependent loads; Mutable/Set/push_back path-copy O(log32 n) chunks
/// unless the token owns them.
template <typename T>
class ChunkedVector {
  using Leaf = LeafChunk<T>;
  static constexpr int kBits = kChunkBits;
  static constexpr size_t kFanout = kChunkFanout;
  static constexpr size_t kMask = kChunkMask;

 public:
  ChunkedVector() = default;
  ChunkedVector(const ChunkedVector&) = default;
  ChunkedVector& operator=(const ChunkedVector&) = default;
  ChunkedVector(ChunkedVector&& other) noexcept
      : root_(std::move(other.root_)),
        tail_(std::move(other.tail_)),
        shift_(std::exchange(other.shift_, 0)),
        tail_off_(std::exchange(other.tail_off_, 0)),
        size_(std::exchange(other.size_, 0)) {}
  ChunkedVector& operator=(ChunkedVector&& other) noexcept {
    root_ = std::move(other.root_);
    tail_ = std::move(other.tail_);
    shift_ = std::exchange(other.shift_, 0);
    tail_off_ = std::exchange(other.tail_off_, 0);
    size_ = std::exchange(other.size_, 0);
    return *this;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Element `i`; default-constructed T for absent chunks and i >= size().
  const T& operator[](size_t i) const { return i < size_ ? RunAt(i)[i & kMask] : Default(); }

  /// Editable element `i` (grows size() to i + 1 when beyond it).
  T& Mutable(size_t i, EditToken token) {
    if (i >= size_) Grow(i + 1, token);
    if (i >= tail_off_) return OwnChunk<Leaf>(&tail_, token)->items[i & kMask];
    return OwnChunk<Leaf>(TrieSlot(i, token), token)->items[i & kMask];
  }

  void Set(size_t i, T value, EditToken token) { Mutable(i, token) = std::move(value); }
  void push_back(T value, EditToken token) { Mutable(size_, token) = std::move(value); }

  /// Removes element `i`, shifting the rest left: O(size() - i) moves and
  /// one path copy per chunk after `i`.
  void EraseAt(size_t i, EditToken token) {
    for (size_t base = i & ~kMask; base < size_; base += kFanout) {
      T* run = &Mutable(base, token);
      const size_t end = std::min(base + kFanout, size_);
      for (size_t k = std::max(i, base); k + 1 < end; ++k) {
        run[k - base] = std::move(run[k - base + 1]);
      }
      if (end < size_) run[end - 1 - base] = (*this)[end];
    }
    pop_back(token);
  }

  /// Removes every element matching `pred`, keeping the order of the rest.
  /// Chunks before the first match are not copied. Returns the count removed.
  template <typename P>
  size_t EraseIf(P pred, EditToken token) {
    size_t kept = 0;
    while (kept < size_ && !pred((*this)[kept])) ++kept;
    for (size_t i = kept + 1; i < size_; ++i) {
      if (pred((*this)[i])) continue;
      T value = (*this)[i];
      Mutable(kept++, token) = std::move(value);
    }
    const size_t removed = size_ - kept;
    while (size_ > kept) pop_back(token);
    return removed;
  }

  /// Drops the last element (its slot is reset to T()).
  void pop_back(EditToken token) {
    if (size_ == 0) return;
    if (RunAt(size_ - 1) != Absent().items) Mutable(size_ - 1, token) = T();
    if (--size_ == 0) {
      *this = ChunkedVector();
    } else if (size_ == tail_off_) {
      // The tail emptied: the trie's last chunk moves out to become it.
      tail_off_ -= kFanout;
      tail_ = std::move(*TrieSlot(tail_off_, token));
    }
  }

  /// Visits [0, size()) in index order as contiguous runs: fn(first index,
  /// pointer to the run, run length). Absent chunks are skipped.
  template <typename F>
  void ForEachRun(F&& fn) const {
    if (root_ != nullptr) Walk(root_.get(), shift_, 0, fn);
    if (tail_ != nullptr) {
      fn(tail_off_, static_cast<const Leaf*>(tail_.get())->items, size_ - tail_off_);
    }
  }

  /// Visits every element in index order, absent chunks included as T().
  template <typename F>
  void ForEach(F&& fn) const {
    size_t next = 0;
    ForEachRun([&](size_t first, const T* run, size_t n) {
      for (; next < first; ++next) fn(next, Default());
      for (size_t k = 0; k < n; ++k, ++next) fn(next, run[k]);
    });
    for (; next < size_; ++next) fn(next, Default());
  }

  /// Forward iterator; re-walks the trie once per chunk, not per element.
  class const_iterator {
   public:
    const_iterator(const ChunkedVector* v, size_t i) : v_(v), i_(i) { Load(); }
    const T& operator*() const { return run_[i_ & kMask]; }
    const_iterator& operator++() {
      if ((++i_ & kMask) == 0) Load();
      return *this;
    }
    bool operator!=(const const_iterator& o) const { return i_ != o.i_; }

   private:
    void Load() { run_ = i_ < v_->size_ ? v_->RunAt(i_) : nullptr; }

    const ChunkedVector* v_;
    size_t i_;
    const T* run_ = nullptr;
  };
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, size_); }

 private:
  static const T& Default() {
    static const T value{};
    return value;
  }
  /// Stands in for absent chunks: all T().
  static const Leaf& Absent() {
    static const Leaf leaf{};
    return leaf;
  }

  /// The items of the chunk holding index i (< size()); Absent()'s when
  /// that chunk is absent.
  const T* RunAt(size_t i) const {
    const ChunkBase* n = tail_.get();
    if (i < tail_off_) {
      n = root_.get();
      for (int s = shift_; s > 0 && n != nullptr; s -= kBits) {
        n = static_cast<const InnerChunk*>(n)->kids[(i >> s) & kMask].get();
      }
    }
    return (n != nullptr ? static_cast<const Leaf*>(n) : &Absent())->items;
  }

  /// The trie's slot for the chunk holding index i (< tail_off_), owning
  /// every inner chunk on the way.
  ChunkPtr* TrieSlot(size_t i, EditToken token) {
    ChunkPtr* slot = &root_;
    for (int s = shift_; s > 0; s -= kBits) {
      slot = &OwnChunk<InnerChunk>(slot, token)->kids[(i >> s) & kMask];
    }
    return slot;
  }

  /// Extends size() to n. When the tail moves to a later chunk, the trie
  /// first gains root levels until it covers everything below the new
  /// tail, then adopts the old tail.
  void Grow(size_t n, EditToken token) {
    const size_t new_off = (n - 1) & ~kMask;
    if (new_off != tail_off_) {
      while (((new_off - 1) >> shift_) > kMask) {
        if (root_ != nullptr) {
          auto up = std::make_shared<InnerChunk>();
          up->edit = token;
          up->kids[0] = std::move(root_);
          root_ = std::move(up);
        }
        shift_ += kBits;
      }
      if (tail_ != nullptr) *TrieSlot(tail_off_, token) = std::move(tail_);
      tail_off_ = new_off;
    }
    size_ = n;
  }

  template <typename F>
  void Walk(const ChunkBase* n, int shift, size_t base, F& fn) const {
    if (shift == 0) {
      fn(base, static_cast<const Leaf*>(n)->items, kFanout);
      return;
    }
    const auto* inner = static_cast<const InnerChunk*>(n);
    for (size_t k = 0; k < kFanout; ++k) {
      if (inner->kids[k] != nullptr) {
        Walk(inner->kids[k].get(), shift - kBits, base + (k << shift), fn);
      }
    }
  }

  ChunkPtr root_;         // full chunks covering [0, tail_off_)
  ChunkPtr tail_;         // the chunk covering [tail_off_, size_)
  int shift_ = 0;         // index bits the root consumes above leaf level
  size_t tail_off_ = 0;
  size_t size_ = 0;
};

/// Ordered set of (K, V) pairs as a B+-tree of chunks: leaves hold up to 32
/// entries in (key, value) order, inner chunks up to 32 children split by
/// separator entries. Keys may repeat; (key, value) pairs may not. Copies
/// share every chunk; Insert/Erase path-copy the O(log32 n) chunks they
/// rewrite unless the token owns them. Erase drops emptied chunks but never
/// merges underfull ones, so depth tracks the largest size reached.
template <typename K, typename V>
class SortedChunks {
  struct Entry {
    K key{};
    V value{};
  };
  struct Leaf : ChunkBase {
    std::vector<Entry> items;
  };
  struct Inner : ChunkBase {
    Inner() { inner = true; }
    std::vector<ChunkPtr> kids;
    std::vector<Entry> seps;  // seps[j] <= every entry of kids[j + 1]
  };
  static constexpr size_t kFanout = kChunkFanout;

 public:
  SortedChunks() = default;
  SortedChunks(const SortedChunks&) = default;
  SortedChunks& operator=(const SortedChunks&) = default;
  SortedChunks(SortedChunks&& other) noexcept
      : root_(std::move(other.root_)), size_(std::exchange(other.size_, 0)) {}
  SortedChunks& operator=(SortedChunks&& other) noexcept {
    root_ = std::move(other.root_);
    size_ = std::exchange(other.size_, 0);
    return *this;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void Insert(K key, V value, EditToken token) {
    if (root_ == nullptr) OwnChunk<Leaf>(&root_, token);
    Entry sep;
    ChunkPtr right;
    if (InsertRec(&root_, Entry{std::move(key), std::move(value)}, token, &sep, &right)) {
      auto up = std::make_shared<Inner>();
      up->edit = token;
      up->kids.push_back(std::move(root_));
      up->kids.push_back(std::move(right));
      up->seps.push_back(std::move(sep));
      root_ = std::move(up);
    }
    ++size_;
  }

  /// Removes the (key, value) pair; false when absent (nothing is copied).
  bool Erase(const K& key, const V& value, EditToken token) {
    const Entry e{key, value};
    if (!Contains(e)) return false;
    EraseRec(&root_, e, token);
    if (--size_ == 0) root_ = nullptr;
    return true;
  }

  /// Visits entries in order as fn(key, value), starting at the first
  /// whose key is not below(key) and stopping when fn returns false.
  /// below must hold for a prefix of the key order.
  template <typename B, typename F>
  void Scan(B&& below, F&& fn) const {
    if (root_ != nullptr) ScanRec(root_.get(), below, fn);
  }

 private:
  static bool EntryLess(const Entry& a, const Entry& b) {
    if (a.key < b.key) return true;
    if (b.key < a.key) return false;
    return a.value < b.value;
  }

  /// Index of the child of `n` whose range holds `e`.
  static size_t Route(const Inner* n, const Entry& e) {
    return static_cast<size_t>(
        std::upper_bound(n->seps.begin(), n->seps.end(), e, EntryLess) - n->seps.begin());
  }

  bool Contains(const Entry& e) const {
    const ChunkBase* n = root_.get();
    if (n == nullptr) return false;
    while (n->inner) {
      const auto* in = static_cast<const Inner*>(n);
      n = in->kids[Route(in, e)].get();
    }
    const auto& items = static_cast<const Leaf*>(n)->items;
    auto it = std::lower_bound(items.begin(), items.end(), e, EntryLess);
    return it != items.end() && !EntryLess(e, *it);
  }

  /// Inserts under *slot. When the chunk overflows, splits it and returns
  /// true with the new right sibling and the separator in front of it.
  static bool InsertRec(ChunkPtr* slot, Entry e, EditToken token, Entry* sep, ChunkPtr* right) {
    if (!(*slot)->inner) {
      std::vector<Entry>& items = OwnChunk<Leaf>(slot, token)->items;
      items.insert(std::upper_bound(items.begin(), items.end(), e, EntryLess), std::move(e));
      if (items.size() <= kFanout) return false;
      auto half = std::make_shared<Leaf>();
      half->edit = token;
      half->items.assign(std::make_move_iterator(items.begin() + kFanout / 2),
                         std::make_move_iterator(items.end()));
      items.resize(kFanout / 2);
      *sep = half->items.front();
      *right = std::move(half);
      return true;
    }
    Inner* n = OwnChunk<Inner>(slot, token);
    const size_t k = Route(n, e);
    Entry kid_sep;
    ChunkPtr kid_right;
    if (!InsertRec(&n->kids[k], std::move(e), token, &kid_sep, &kid_right)) return false;
    n->kids.insert(n->kids.begin() + static_cast<ptrdiff_t>(k + 1), std::move(kid_right));
    n->seps.insert(n->seps.begin() + static_cast<ptrdiff_t>(k), std::move(kid_sep));
    if (n->kids.size() <= kFanout) return false;
    // Left keeps kids [0, m] and seps [0, m); seps[m] moves up.
    const size_t m = n->kids.size() / 2;
    auto half = std::make_shared<Inner>();
    half->edit = token;
    half->kids.assign(std::make_move_iterator(n->kids.begin() + static_cast<ptrdiff_t>(m + 1)),
                      std::make_move_iterator(n->kids.end()));
    half->seps.assign(std::make_move_iterator(n->seps.begin() + static_cast<ptrdiff_t>(m + 1)),
                      std::make_move_iterator(n->seps.end()));
    *sep = std::move(n->seps[m]);
    n->kids.resize(m + 1);
    n->seps.resize(m);
    *right = std::move(half);
    return true;
  }

  /// Erases a present `e` under *slot; returns true when the chunk emptied
  /// (its parent then drops it together with one adjacent separator).
  static bool EraseRec(ChunkPtr* slot, const Entry& e, EditToken token) {
    if (!(*slot)->inner) {
      std::vector<Entry>& items = OwnChunk<Leaf>(slot, token)->items;
      items.erase(std::lower_bound(items.begin(), items.end(), e, EntryLess));
      return items.empty();
    }
    Inner* n = OwnChunk<Inner>(slot, token);
    const size_t k = Route(n, e);
    if (!EraseRec(&n->kids[k], e, token)) return false;
    n->kids.erase(n->kids.begin() + static_cast<ptrdiff_t>(k));
    if (!n->seps.empty()) n->seps.erase(n->seps.begin() + static_cast<ptrdiff_t>(k > 0 ? k - 1 : 0));
    return n->kids.empty();
  }

  template <typename B, typename F>
  static bool ScanRec(const ChunkBase* n, B& below, F& fn) {
    auto is_below = [&](const Entry& x) { return below(x.key); };
    if (!n->inner) {
      const auto& items = static_cast<const Leaf*>(n)->items;
      for (auto it = std::partition_point(items.begin(), items.end(), is_below);
           it != items.end(); ++it) {
        if (!fn(it->key, it->value)) return false;
      }
      return true;
    }
    const auto* in = static_cast<const Inner*>(n);
    // Every entry of kids[j] for j < first is below a below-separator.
    const size_t first = static_cast<size_t>(
        std::partition_point(in->seps.begin(), in->seps.end(), is_below) - in->seps.begin());
    for (size_t j = first; j < in->kids.size(); ++j) {
      if (!ScanRec(in->kids[j].get(), below, fn)) return false;
    }
    return true;
  }

  ChunkPtr root_;
  size_t size_ = 0;
};

/// Hashes std::string keys through string_view, so lookups by view need no
/// temporary string.
struct StringKeyHash {
  size_t operator()(std::string_view s) const { return std::hash<std::string_view>{}(s); }
};

/// Hash trie (HAMT-style) of K -> V built from the same chunks: inner
/// chunks route on 5 hash bits per level, bucket chunks hold a few entries
/// and split into an inner chunk when they overflow. Copies share every
/// chunk; Mutable/Assign/Erase path-copy O(log32 n) chunks unless owned.
template <typename K, typename V, typename Hash>
class HashTrie {
  struct Entry {
    uint64_t hash = 0;
    K key{};
    V value{};
  };
  struct Bucket : ChunkBase {
    std::vector<Entry> items;
  };
  static constexpr int kBits = kChunkBits;
  static constexpr size_t kMask = kChunkMask;
  static constexpr size_t kBucket = 8;
  static constexpr int kMaxShift = 60;

 public:
  HashTrie() = default;
  HashTrie(const HashTrie&) = default;
  HashTrie& operator=(const HashTrie&) = default;
  HashTrie(HashTrie&& other) noexcept
      : root_(std::move(other.root_)), size_(std::exchange(other.size_, 0)) {}
  HashTrie& operator=(HashTrie&& other) noexcept {
    root_ = std::move(other.root_);
    size_ = std::exchange(other.size_, 0);
    return *this;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// The value for `key`, or nullptr.
  template <typename Q>
  const V* Find(const Q& key) const {
    const uint64_t h = HashOf(key);
    const ChunkBase* n = root_.get();
    for (int s = 0; n != nullptr; s += kBits) {
      if (!n->inner) {
        for (const Entry& e : static_cast<const Bucket*>(n)->items) {
          if (e.hash == h && e.key == key) return &e.value;
        }
        return nullptr;
      }
      n = static_cast<const InnerChunk*>(n)->kids[(h >> s) & kMask].get();
    }
    return nullptr;
  }

  /// Editable value for `key`, or nullptr when absent.
  template <typename Q>
  V* FindMutable(const Q& key, EditToken token) {
    if (Find(key) == nullptr) return nullptr;
    return &Mutable(key, token);
  }

  /// Editable value for `key`, default-inserting it when absent.
  template <typename Q>
  V& Mutable(const Q& key, EditToken token) {
    const uint64_t h = HashOf(key);
    ChunkPtr* slot = &root_;
    for (int s = 0;; s += kBits) {
      if (*slot != nullptr && (*slot)->inner) {
        slot = &OwnChunk<InnerChunk>(slot, token)->kids[(h >> s) & kMask];
        continue;
      }
      Bucket* b = OwnChunk<Bucket>(slot, token);
      for (Entry& e : b->items) {
        if (e.hash == h && e.key == key) return e.value;
      }
      if (b->items.size() < kBucket || s >= kMaxShift) {
        ++size_;
        b->items.push_back(Entry{h, K(key), V()});
        return b->items.back().value;
      }
      // Full bucket: split it into an inner chunk one level down, then
      // route this key through it on the next iteration.
      auto up = std::make_shared<InnerChunk>();
      up->edit = token;
      for (Entry& e : b->items) {
        OwnChunk<Bucket>(&up->kids[(e.hash >> s) & kMask], token)->items.push_back(std::move(e));
      }
      *slot = std::move(up);
      s -= kBits;  // revisit this level, now inner
    }
  }

  /// Inserts or overwrites.
  template <typename Q>
  void Assign(const Q& key, V value, EditToken token) {
    Mutable(key, token) = std::move(value);
  }

  /// Removes `key`; false when absent.
  template <typename Q>
  bool Erase(const Q& key, EditToken token) {
    if (Find(key) == nullptr) return false;
    const uint64_t h = HashOf(key);
    ChunkPtr* slot = &root_;
    for (int s = 0; (*slot)->inner; s += kBits) {
      slot = &OwnChunk<InnerChunk>(slot, token)->kids[(h >> s) & kMask];
    }
    std::vector<Entry>& items = OwnChunk<Bucket>(slot, token)->items;
    for (size_t i = 0; i < items.size(); ++i) {
      if (items[i].hash == h && items[i].key == key) {
        if (i + 1 != items.size()) items[i] = std::move(items.back());
        items.pop_back();
        --size_;
        return true;
      }
    }
    return false;
  }

  /// Visits every entry (unspecified order).
  template <typename F>
  void ForEach(F&& fn) const {
    if (root_ != nullptr) Walk(root_.get(), fn);
  }

 private:
  template <typename Q>
  static uint64_t HashOf(const Q& key) {
    return Mix64(static_cast<uint64_t>(Hash{}(key)));
  }

  template <typename F>
  static void Walk(const ChunkBase* n, F& fn) {
    if (!n->inner) {
      for (const Entry& e : static_cast<const Bucket*>(n)->items) fn(e.key, e.value);
      return;
    }
    for (const ChunkPtr& kid : static_cast<const InnerChunk*>(n)->kids) {
      if (kid != nullptr) Walk(kid.get(), fn);
    }
  }

  ChunkPtr root_;
  size_t size_ = 0;
};

}  // namespace util
}  // namespace graphitti

#endif  // GRAPHITTI_UTIL_PERSISTENT_H_
