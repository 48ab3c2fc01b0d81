// Named coordinate systems with affine mappings onto canonical atlases.
//
// The paper: "regions [of] all brain images of the same resolution are
// referenced with respect to the same brain coordinate system, and placed in
// a single R-tree". Each registered system maps (per-axis scale + offset)
// into a canonical system; regions expressed in any registered system are
// transformed into canonical coordinates before indexing, so one R-tree per
// canonical system suffices.
#ifndef GRAPHITTI_SPATIAL_COORDINATE_SYSTEM_H_
#define GRAPHITTI_SPATIAL_COORDINATE_SYSTEM_H_

#include <array>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "spatial/rect.h"
#include "util/result.h"

namespace graphitti {
namespace spatial {

/// One registered coordinate system.
struct CoordinateSystem {
  std::string name;
  std::string canonical;  // the system whose R-tree holds its regions
  int dims = 2;
  /// canonical = local * scale + offset, per axis.
  std::array<double, Rect::kMaxDims> scale = {1, 1, 1};
  std::array<double, Rect::kMaxDims> offset = {0, 0, 0};

  /// Maps a local-coordinates rect into canonical coordinates.
  Rect ToCanonical(const Rect& local) const;
};

/// Registry of coordinate systems keyed by name.
class CoordinateSystemRegistry {
 public:
  /// Registers a canonical system (identity transform onto itself).
  util::Status RegisterCanonical(std::string_view name, int dims);

  /// Registers a derived system (e.g. a 50um-resolution image stack) mapped
  /// onto an existing canonical system via per-axis scale/offset.
  util::Status RegisterDerived(std::string_view name, std::string_view canonical,
                               const std::array<double, Rect::kMaxDims>& scale,
                               const std::array<double, Rect::kMaxDims>& offset);

  /// Lookup; NotFound if unregistered.
  util::Result<CoordinateSystem> Get(std::string_view name) const;

  /// Borrowed lookup without copying the record; nullptr if unregistered.
  /// The pointer lives as long as the registry (systems are never removed).
  const CoordinateSystem* Find(std::string_view name) const;

  /// Transforms `local` from `system` into that system's canonical frame and
  /// reports the canonical system name. Fails only on an unregistered system
  /// or a rect/system dims mismatch.
  util::Result<std::pair<std::string, Rect>> ToCanonical(std::string_view system,
                                                         const Rect& local) const;

  size_t size() const { return systems_.size(); }
  bool Contains(std::string_view name) const {
    return systems_.find(name) != systems_.end();
  }

  /// All registered systems, canonical systems first (so persistence can
  /// re-register them in a valid order).
  std::vector<CoordinateSystem> All() const;

 private:
  // lint: allow-map(registry: few entries, cold after setup, het. find)
  std::map<std::string, CoordinateSystem, std::less<>> systems_;
};

}  // namespace spatial
}  // namespace graphitti

#endif  // GRAPHITTI_SPATIAL_COORDINATE_SYSTEM_H_
