// Catalog of type-specific tables ("DNA sequences, protein sequences, images
// etc. all have their metadata stored in separate tables", §II).
#ifndef GRAPHITTI_RELATIONAL_CATALOG_H_
#define GRAPHITTI_RELATIONAL_CATALOG_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "relational/table.h"
#include "util/result.h"

namespace graphitti {
namespace relational {

/// Owns all tables of a Graphitti instance, keyed by name.
class Catalog {
 public:
  Catalog() = default;
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;
  Catalog(Catalog&&) = default;
  Catalog& operator=(Catalog&&) = default;

  /// Creates a table; AlreadyExists when the name is taken.
  util::Result<Table*> CreateTable(std::string name, Schema schema);

  /// Borrowed pointer, or nullptr.
  Table* GetTable(std::string_view name);
  const Table* GetTable(std::string_view name) const;

  util::Status DropTable(std::string_view name);

  std::vector<std::string> TableNames() const;
  size_t num_tables() const { return tables_.size(); }

  /// Sum of live rows across all tables (admin statistics).
  size_t TotalRows() const;

  /// A copy sharing every table's rows and index chunks (O(number of
  /// tables)); each side's later writes path-copy what they touch.
  Catalog Clone() const;

 private:
  std::map<std::string, Table, std::less<>> tables_;
};

}  // namespace relational
}  // namespace graphitti

#endif  // GRAPHITTI_RELATIONAL_CATALOG_H_
