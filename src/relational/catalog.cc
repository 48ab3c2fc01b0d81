#include "relational/catalog.h"

namespace graphitti {
namespace relational {

util::Result<Table*> Catalog::CreateTable(std::string name, Schema schema) {
  if (tables_.count(name) > 0) {
    return util::Status::AlreadyExists("table '" + name + "' already exists");
  }
  Table table(name, std::move(schema));
  return &tables_.emplace(std::move(name), std::move(table)).first->second;
}

Table* Catalog::GetTable(std::string_view name) {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : &it->second;
}

const Table* Catalog::GetTable(std::string_view name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : &it->second;
}

util::Status Catalog::DropTable(std::string_view name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return util::Status::NotFound("table '" + std::string(name) + "' not found");
  }
  tables_.erase(it);
  return util::Status::OK();
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, _] : tables_) names.push_back(name);
  return names;
}

size_t Catalog::TotalRows() const {
  size_t total = 0;
  for (const auto& [_, table] : tables_) total += table.size();
  return total;
}

Catalog Catalog::Clone() const {
  Catalog copy;
  copy.tables_ = tables_;
  return copy;
}

}  // namespace relational
}  // namespace graphitti
