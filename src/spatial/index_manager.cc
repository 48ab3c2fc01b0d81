#include "spatial/index_manager.h"

namespace graphitti {
namespace spatial {

IntervalTree* IndexManager::GetOrCreateIntervalTree(std::string_view domain) {
  auto it = interval_trees_.find(domain);
  if (it == interval_trees_.end()) {
    it = interval_trees_.emplace(std::string(domain), IntervalTree()).first;
  }
  return &it->second;
}

RTree* IndexManager::GetOrCreateRTree(std::string_view canonical, int dims) {
  auto it = rtrees_.find(canonical);
  if (it == rtrees_.end()) it = rtrees_.emplace(std::string(canonical), RTree(dims)).first;
  return &it->second;
}

util::Status IndexManager::AddInterval(std::string_view domain, const Interval& interval,
                                       uint64_t id) {
  if (domain.empty()) return util::Status::InvalidArgument("empty interval domain");
  return GetOrCreateIntervalTree(domain)->Insert(interval, id);
}

util::Status IndexManager::RemoveInterval(std::string_view domain, const Interval& interval,
                                          uint64_t id) {
  auto it = interval_trees_.find(domain);
  if (it == interval_trees_.end()) {
    return util::Status::NotFound("no interval domain '" + std::string(domain) + "'");
  }
  GRAPHITTI_RETURN_NOT_OK(it->second.Erase(interval, id));
  if (it->second.empty()) interval_trees_.erase(it);
  return util::Status::OK();
}

util::Status IndexManager::BulkLoadIntervals(std::string_view domain,
                                             std::vector<IntervalEntry> entries) {
  if (entries.empty()) return util::Status::OK();
  if (domain.empty()) return util::Status::InvalidArgument("empty interval domain");
  auto it = interval_trees_.find(domain);
  if (it != interval_trees_.end() && small_batch_factor_ != 0 &&
      entries.size() * small_batch_factor_ <= it->second.size()) {
    // Small batch against a large tree: per-entry inserts beat a full
    // merge-rebuild. Roll back on failure so the tree stays untouched,
    // matching the rebuild path's all-or-nothing contract.
    IntervalTree* tree = &it->second;
    for (size_t i = 0; i < entries.size(); ++i) {
      util::Status s = tree->Insert(entries[i].interval, entries[i].id);
      if (!s.ok()) {
        for (size_t j = 0; j < i; ++j) {
          (void)tree->Erase(entries[j].interval, entries[j].id);
        }
        return s;
      }
    }
    return util::Status::OK();
  }
  if (it != interval_trees_.end() && !it->second.empty()) {
    // Merge-rebuild: drain the existing tree and pack old + new entries in
    // one build. BulkLoad sorts everything anyway, so draining in tree
    // order costs nothing extra.
    entries.reserve(entries.size() + it->second.size());
    it->second.ForEach([&](const IntervalEntry& e) { entries.push_back(e); });
  }
  GRAPHITTI_ASSIGN_OR_RETURN(IntervalTree tree, IntervalTree::BulkLoad(std::move(entries)));
  *GetOrCreateIntervalTree(domain) = std::move(tree);
  return util::Status::OK();
}

std::vector<IntervalEntry> IndexManager::QueryIntervals(std::string_view domain,
                                                        const Interval& window) const {
  auto it = interval_trees_.find(domain);
  if (it == interval_trees_.end()) return {};
  return it->second.Window(window);
}

void IndexManager::ForEachInterval(
    std::string_view domain, const Interval& window,
    const std::function<void(const IntervalEntry&)>& fn) const {
  auto it = interval_trees_.find(domain);
  if (it == interval_trees_.end()) return;
  it->second.ForEachOverlap(window, fn);
}

std::optional<IntervalEntry> IndexManager::NextInterval(std::string_view domain,
                                                        int64_t position) const {
  auto it = interval_trees_.find(domain);
  if (it == interval_trees_.end()) return std::nullopt;
  return it->second.NextAfter(position);
}

const IntervalTree* IndexManager::GetIntervalTree(std::string_view domain) const {
  auto it = interval_trees_.find(domain);
  return it == interval_trees_.end() ? nullptr : &it->second;
}

util::Status IndexManager::AddRegion(std::string_view system, const Rect& local_rect,
                                     uint64_t id) {
  GRAPHITTI_ASSIGN_OR_RETURN(auto canonical, coord_systems_.ToCanonical(system, local_rect));
  return GetOrCreateRTree(canonical.first, canonical.second.dims)
      ->Insert(canonical.second, id);
}

util::Status IndexManager::RemoveRegion(std::string_view system, const Rect& local_rect,
                                        uint64_t id) {
  GRAPHITTI_ASSIGN_OR_RETURN(auto canonical, coord_systems_.ToCanonical(system, local_rect));
  auto it = rtrees_.find(canonical.first);
  if (it == rtrees_.end()) {
    return util::Status::NotFound("no region index for system '" + canonical.first + "'");
  }
  GRAPHITTI_RETURN_NOT_OK(it->second.Erase(canonical.second, id));
  if (it->second.empty()) rtrees_.erase(it);
  return util::Status::OK();
}

util::Status IndexManager::BulkLoadRegions(std::string_view system,
                                           std::vector<RTreeEntry> entries) {
  if (entries.empty()) return util::Status::OK();
  GRAPHITTI_ASSIGN_OR_RETURN(CoordinateSystem cs, coord_systems_.Get(system));
  for (RTreeEntry& e : entries) {
    if (e.rect.dims != cs.dims) {
      return util::Status::InvalidArgument("rect dims " + std::to_string(e.rect.dims) +
                                           " != system dims " + std::to_string(cs.dims));
    }
    if (!e.rect.valid()) {
      return util::Status::InvalidArgument("invalid rect " + e.rect.ToString());
    }
    e.rect = cs.ToCanonical(e.rect);
  }
  auto it = rtrees_.find(cs.canonical);
  if (it != rtrees_.end() && small_batch_factor_ != 0 &&
      entries.size() * small_batch_factor_ <= it->second.size()) {
    // Small batch vs. large canonical tree: per-entry inserts with
    // rollback (entries are already canonicalized and validated above).
    RTree* tree = &it->second;
    for (size_t i = 0; i < entries.size(); ++i) {
      util::Status s = tree->Insert(entries[i].rect, entries[i].id);
      if (!s.ok()) {
        for (size_t j = 0; j < i; ++j) {
          (void)tree->Erase(entries[j].rect, entries[j].id);
        }
        return s;
      }
    }
    return util::Status::OK();
  }
  if (it != rtrees_.end() && !it->second.empty()) {
    // Merge-rebuild: drain the existing canonical tree into the batch and
    // rebuild once via STR.
    entries.reserve(entries.size() + it->second.size());
    it->second.ForEach([&](const RTreeEntry& e) { entries.push_back(e); });
  }
  GRAPHITTI_ASSIGN_OR_RETURN(RTree tree, RTree::BulkLoad(std::move(entries), cs.dims));
  if (it != rtrees_.end()) {
    it->second = std::move(tree);
  } else {
    rtrees_.emplace(cs.canonical, std::move(tree));
  }
  return util::Status::OK();
}

util::Result<std::vector<RTreeEntry>> IndexManager::QueryRegions(
    std::string_view system, const Rect& local_window) const {
  GRAPHITTI_ASSIGN_OR_RETURN(auto canonical, coord_systems_.ToCanonical(system, local_window));
  auto it = rtrees_.find(canonical.first);
  if (it == rtrees_.end()) return std::vector<RTreeEntry>{};
  return it->second.Window(canonical.second);
}

util::Status IndexManager::ForEachRegion(
    std::string_view system, const Rect& local_window,
    const std::function<void(const RTreeEntry&)>& fn) const {
  GRAPHITTI_ASSIGN_OR_RETURN(auto canonical, coord_systems_.ToCanonical(system, local_window));
  auto it = rtrees_.find(canonical.first);
  if (it == rtrees_.end()) return util::Status::OK();
  it->second.ForEachOverlap(canonical.second, fn);
  return util::Status::OK();
}

const RTree* IndexManager::GetRTree(std::string_view canonical_system) const {
  auto it = rtrees_.find(canonical_system);
  return it == rtrees_.end() ? nullptr : &it->second;
}

size_t IndexManager::total_interval_entries() const {
  size_t n = 0;
  for (const auto& [_, tree] : interval_trees_) n += tree.size();
  return n;
}

size_t IndexManager::total_region_entries() const {
  size_t n = 0;
  for (const auto& [_, tree] : rtrees_) n += tree.size();
  return n;
}

std::vector<std::string> IndexManager::IntervalDomains() const {
  std::vector<std::string> out;
  out.reserve(interval_trees_.size());
  for (const auto& [name, _] : interval_trees_) out.push_back(name);
  return out;
}

std::vector<std::string> IndexManager::RegionSystems() const {
  std::vector<std::string> out;
  out.reserve(rtrees_.size());
  for (const auto& [name, _] : rtrees_) out.push_back(name);
  return out;
}

IndexManager IndexManager::Clone() const { return IndexManager(*this); }

}  // namespace spatial
}  // namespace graphitti
