#include "spatial/coordinate_system.h"

namespace graphitti {
namespace spatial {

Rect CoordinateSystem::ToCanonical(const Rect& local) const {
  Rect out;
  out.dims = local.dims;
  for (int d = 0; d < local.dims; ++d) {
    double a = local.lo[d] * scale[d] + offset[d];
    double b = local.hi[d] * scale[d] + offset[d];
    out.lo[d] = std::min(a, b);  // negative scales flip the axis
    out.hi[d] = std::max(a, b);
  }
  return out;
}

util::Status CoordinateSystemRegistry::RegisterCanonical(std::string_view name, int dims) {
  if (dims < 1 || dims > Rect::kMaxDims) {
    return util::Status::InvalidArgument("dims must be in [1," +
                                         std::to_string(Rect::kMaxDims) + "]");
  }
  if (Contains(name)) {
    return util::Status::AlreadyExists("coordinate system '" + std::string(name) +
                                       "' already registered");
  }
  CoordinateSystem cs;
  cs.name = std::string(name);
  cs.canonical = cs.name;
  cs.dims = dims;
  systems_.emplace(cs.name, std::move(cs));
  return util::Status::OK();
}

util::Status CoordinateSystemRegistry::RegisterDerived(
    std::string_view name, std::string_view canonical,
    const std::array<double, Rect::kMaxDims>& scale,
    const std::array<double, Rect::kMaxDims>& offset) {
  if (Contains(name)) {
    return util::Status::AlreadyExists("coordinate system '" + std::string(name) +
                                       "' already registered");
  }
  auto it = systems_.find(canonical);
  if (it == systems_.end()) {
    return util::Status::NotFound("canonical system '" + std::string(canonical) +
                                  "' not registered");
  }
  if (it->second.canonical != it->second.name) {
    return util::Status::InvalidArgument("'" + std::string(canonical) +
                                         "' is itself derived; chain transforms first");
  }
  for (int d = 0; d < it->second.dims; ++d) {
    if (scale[static_cast<size_t>(d)] == 0.0) {
      return util::Status::InvalidArgument("zero scale on axis " + std::to_string(d));
    }
  }
  CoordinateSystem cs;
  cs.name = std::string(name);
  cs.canonical = std::string(canonical);
  cs.dims = it->second.dims;
  cs.scale = scale;
  cs.offset = offset;
  systems_.emplace(cs.name, std::move(cs));
  return util::Status::OK();
}

std::vector<CoordinateSystem> CoordinateSystemRegistry::All() const {
  std::vector<CoordinateSystem> out;
  for (const auto& [_, cs] : systems_) {
    if (cs.canonical == cs.name) out.push_back(cs);
  }
  for (const auto& [_, cs] : systems_) {
    if (cs.canonical != cs.name) out.push_back(cs);
  }
  return out;
}

const CoordinateSystem* CoordinateSystemRegistry::Find(std::string_view name) const {
  auto it = systems_.find(name);
  return it == systems_.end() ? nullptr : &it->second;
}

util::Result<CoordinateSystem> CoordinateSystemRegistry::Get(std::string_view name) const {
  const CoordinateSystem* cs = Find(name);
  if (cs == nullptr) {
    return util::Status::NotFound("coordinate system '" + std::string(name) +
                                  "' not registered");
  }
  return *cs;
}

util::Result<std::pair<std::string, Rect>> CoordinateSystemRegistry::ToCanonical(
    std::string_view system, const Rect& local) const {
  const CoordinateSystem* cs = Find(system);
  if (cs == nullptr) {
    return util::Status::NotFound("coordinate system '" + std::string(system) +
                                  "' not registered");
  }
  if (local.dims != cs->dims) {
    return util::Status::InvalidArgument("rect dims " + std::to_string(local.dims) +
                                         " != system dims " + std::to_string(cs->dims));
  }
  return std::make_pair(cs->canonical, cs->ToCanonical(local));
}

}  // namespace spatial
}  // namespace graphitti
