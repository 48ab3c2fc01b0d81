// Heap table with secondary indexes and index-aware selection.
#ifndef GRAPHITTI_RELATIONAL_TABLE_H_
#define GRAPHITTI_RELATIONAL_TABLE_H_

#include <memory>
#include <string>
#include <vector>

#include "relational/predicate.h"
#include "relational/schema.h"
#include "relational/value.h"
#include "util/persistent.h"
#include "util/result.h"

namespace graphitti {
namespace relational {

using RowId = uint64_t;

enum class IndexKind { kHash, kOrdered };

/// A single-table storage unit: slotted row heap + optional secondary
/// indexes. Rows are addressed by stable RowIds (slot numbers); deleted
/// slots are tombstoned and recycled by Vacuum().
///
/// A persistent value (util/persistent.h): rows are shared immutable records
/// in a chunked slot vector and hash-index postings are chunked lists in a
/// hash trie, so copying a table is O(number of indexes) and an insert
/// path-copies O(log n) chunks. Ordered indexes are copied whole on the
/// first write after a copy.
class Table {
 public:
  Table(std::string name, Schema schema)
      : name_(std::move(name)), schema_(std::move(schema)) {}

  /// Copies share every row and index chunk.
  Table(const Table&) = default;
  Table& operator=(const Table&) = default;
  Table(Table&&) = default;
  Table& operator=(Table&&) = default;

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }

  /// Live row count.
  size_t size() const { return live_count_; }
  bool empty() const { return live_count_ == 0; }

  /// Validates against the schema and appends; returns the new RowId.
  util::Result<RowId> Insert(Row row);

  /// The RowId the next successful Insert will assign (inserts append;
  /// tombstoned slots are only reclaimed by Vacuum).
  RowId NextRowId() const { return static_cast<RowId>(rows_.size()); }

  /// Replaces the row at `id`. NotFound for dead/unknown ids.
  util::Status Update(RowId id, Row row);

  /// Tombstones the row at `id`.
  util::Status Delete(RowId id);

  /// Borrowed pointer to the row, or nullptr when dead/unknown.
  const Row* Get(RowId id) const;

  /// Cell access by column name; Null when row or column missing.
  Value GetCell(RowId id, std::string_view column) const;

  /// Calls fn(RowId, const Row&) for every live row.
  template <typename F>
  void Scan(F&& fn) const {
    rows_.ForEachRun([&](size_t first, const RowPtr* run, size_t n) {
      for (size_t k = 0; k < n; ++k) {
        if (run[k] != nullptr) fn(static_cast<RowId>(first + k), *run[k]);
      }
    });
  }

  /// Creates a secondary index on `column`. AlreadyExists if present.
  util::Status CreateIndex(std::string_view column, IndexKind kind);
  bool HasIndex(std::string_view column) const;

  /// (column name, kind) of every secondary index (for admin/persistence).
  std::vector<std::pair<std::string, IndexKind>> IndexDescriptors() const;

  /// RowIds satisfying `pred`, using an index for the most selective
  /// indexable conjunct when available, else a full scan. Results are in
  /// RowId order.
  util::Result<std::vector<RowId>> Select(const Predicate& pred) const;

  /// Like Select but never consults indexes (baseline for benchmarks).
  util::Result<std::vector<RowId>> SelectScan(const Predicate& pred) const;

  /// Estimated fraction of rows satisfying `pred` (for the query optimizer).
  /// Uses exact index bucket sizes for indexed equality conjuncts and
  /// heuristic defaults otherwise. Always in [0, 1].
  double EstimateSelectivity(const Predicate& pred) const;

  /// Compacts tombstones. Invalidates all previously-returned RowIds; only
  /// safe when no external component holds row references.
  void Vacuum();

  /// A copy sharing every row and index chunk with this table.
  std::unique_ptr<Table> Clone() const;

  std::string ToString() const;

 private:
  using RowPtr = std::shared_ptr<const Row>;

  struct Index {
    IndexKind kind;
    int column = -1;
    // Exactly one of these is populated, per kind.
    util::HashTrie<Value, util::ChunkedVector<RowId>, ValueHash> hash;
    util::SortedChunks<Value, RowId> ordered;
  };

  void AddToIndex(Index* index, RowId id, const Row& row);
  void IndexInsert(RowId id, const Row& row);
  void IndexRemove(RowId id, const Row& row);

  /// Finds an index usable for `cmp` (a kCompare predicate); nullptr if none.
  const Index* FindUsableIndex(const Predicate& cmp) const;
  std::vector<RowId> ProbeIndex(const Index& index, const Predicate& cmp) const;

  std::string name_;
  Schema schema_;
  util::ChunkedVector<RowPtr> rows_;  // null = deleted
  size_t live_count_ = 0;
  std::vector<Index> indexes_;
  util::EditOwner owner_;
};

}  // namespace relational
}  // namespace graphitti

#endif  // GRAPHITTI_RELATIONAL_TABLE_H_
