// Shared substructure indexes: one interval tree per 1D domain (chromosome),
// one R-tree per canonical coordinate system ("simple techniques ... to keep
// the number of the index structures small", §II).
#ifndef GRAPHITTI_SPATIAL_INDEX_MANAGER_H_
#define GRAPHITTI_SPATIAL_INDEX_MANAGER_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "spatial/coordinate_system.h"
#include "spatial/interval_tree.h"
#include "spatial/rtree.h"
#include "util/result.h"

namespace graphitti {
namespace spatial {

/// Owns all spatial index structures of a Graphitti instance and routes
/// substructure registrations/queries to the shared per-domain index.
class IndexManager {
 public:
  IndexManager() = default;
  IndexManager& operator=(const IndexManager&) = delete;
  IndexManager(IndexManager&&) = default;
  IndexManager& operator=(IndexManager&&) = default;

  /// A copy sharing every per-domain tree with this manager: O(number of
  /// domains) plus the coordinate-system registry. A later mutation
  /// path-copies only the nodes it touches in the one tree it touches
  /// (util/persistent.h).
  IndexManager Clone() const;

  /// Coordinate systems used to canonicalize region domains.
  CoordinateSystemRegistry& coordinate_systems() { return coord_systems_; }
  const CoordinateSystemRegistry& coordinate_systems() const { return coord_systems_; }

  /// Small-batch routing threshold for the BulkLoad* entry points: a batch
  /// with `entries.size() * factor <= existing tree size` falls back to
  /// per-entry inserts (with rollback on failure) instead of draining and
  /// rebuilding the whole tree — appending 3 entries to a 50k-entry tree
  /// should not pay a 50k rebuild. 0 disables the fallback (every batch
  /// rebuilds). Default 16: per-entry insertion is O(k log n) against the
  /// rebuild's O((n + k) log(n + k)), so the cliff sits well past the
  /// point where rebuild amortizes.
  void set_small_batch_factor(size_t factor) { small_batch_factor_ = factor; }
  size_t small_batch_factor() const { return small_batch_factor_; }

  // --- 1D (interval) domains ---

  /// Adds an interval substructure (e.g. a marked gene region) to the shared
  /// tree for `domain` (e.g. "influenza:segment4" or "mouse:chr11").
  util::Status AddInterval(std::string_view domain, const Interval& interval, uint64_t id);
  util::Status RemoveInterval(std::string_view domain, const Interval& interval, uint64_t id);

  /// Bulk entry point for batched ingest and persistence reload: adds all
  /// `entries` to `domain`'s shared tree in one build instead of one Insert
  /// per entry. When the domain has no tree yet (the persistence-reload /
  /// first-batch case) the entries are packed into a fresh perfectly
  /// balanced tree via IntervalTree::BulkLoad; otherwise the existing
  /// entries are drained and rebuilt together with the new ones in a single
  /// merge-rebuild. Rejects invalid intervals and duplicate (interval, id)
  /// pairs (against each other or the existing tree) without touching the
  /// stored tree.
  util::Status BulkLoadIntervals(std::string_view domain,
                                 std::vector<IntervalEntry> entries);

  /// All (interval, id) entries in `domain` overlapping `window`.
  std::vector<IntervalEntry> QueryIntervals(std::string_view domain,
                                            const Interval& window) const;

  /// Streams the entries in `domain` overlapping `window` in (lo, hi, id)
  /// order — QueryIntervals without the materialized vector.
  void ForEachInterval(std::string_view domain, const Interval& window,
                       const std::function<void(const IntervalEntry&)>& fn) const;

  /// The entry strictly after `position` in `domain`, if any (the `next`
  /// operator on ordered 1D data).
  std::optional<IntervalEntry> NextInterval(std::string_view domain, int64_t position) const;

  /// Borrowed tree for direct traversal; nullptr when the domain is empty.
  const IntervalTree* GetIntervalTree(std::string_view domain) const;

  // --- 2D/3D (region) domains ---

  /// Adds a region expressed in `system` coordinates; it is transformed to
  /// the system's canonical frame and stored in the canonical R-tree.
  /// The system must be registered first.
  util::Status AddRegion(std::string_view system, const Rect& local_rect, uint64_t id);
  util::Status RemoveRegion(std::string_view system, const Rect& local_rect, uint64_t id);

  /// Bulk entry point for batched ingest: adds all `entries` (rects in
  /// `system` coordinates) to the canonical R-tree in one build. Fresh
  /// domains are packed via the STR bulk load (RTree::BulkLoad); a
  /// non-empty canonical tree is drained and merge-rebuilt together with
  /// the new entries. Callers batching across derived systems should
  /// canonicalize while accumulating and pass the canonical system name, so
  /// systems sharing one canonical frame flush as a single build (the
  /// canonical transform is the identity, so pre-canonicalized rects pass
  /// through unchanged). Validation errors (unknown system, dims mismatch,
  /// invalid rect, duplicates) leave the stored tree untouched.
  util::Status BulkLoadRegions(std::string_view system, std::vector<RTreeEntry> entries);

  /// All (canonical rect, id) entries overlapping `local_window` (given in
  /// `system` coordinates).
  util::Result<std::vector<RTreeEntry>> QueryRegions(std::string_view system,
                                                     const Rect& local_window) const;

  /// Streams the (canonical rect, id) entries overlapping `local_window` in
  /// tree order — QueryRegions without the materialized, id-sorted vector.
  /// Fails only when `system` cannot be canonicalized.
  util::Status ForEachRegion(std::string_view system, const Rect& local_window,
                             const std::function<void(const RTreeEntry&)>& fn) const;

  const RTree* GetRTree(std::string_view canonical_system) const;

  // --- Statistics (the paper's index-count frugality claim) ---
  size_t num_interval_trees() const { return interval_trees_.size(); }
  size_t num_rtrees() const { return rtrees_.size(); }
  size_t total_interval_entries() const;
  size_t total_region_entries() const;
  std::vector<std::string> IntervalDomains() const;
  std::vector<std::string> RegionSystems() const;

 private:
  IndexManager(const IndexManager&) = default;

  IntervalTree* GetOrCreateIntervalTree(std::string_view domain);
  RTree* GetOrCreateRTree(std::string_view canonical, int dims);

  CoordinateSystemRegistry coord_systems_;
  // lint: allow-map(per-domain registry: few domains, lookup is cold path)
  std::map<std::string, IntervalTree, std::less<>> interval_trees_;
  // lint: allow-map(per-domain registry: few domains, lookup is cold path)
  std::map<std::string, RTree, std::less<>> rtrees_;
  size_t small_batch_factor_ = 16;
};

}  // namespace spatial
}  // namespace graphitti

#endif  // GRAPHITTI_SPATIAL_INDEX_MANAGER_H_
