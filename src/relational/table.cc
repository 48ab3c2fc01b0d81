#include "relational/table.h"

#include <algorithm>

namespace graphitti {
namespace relational {

util::Result<RowId> Table::Insert(Row row) {
  GRAPHITTI_RETURN_NOT_OK(schema_.ValidateRow(row));
  RowId id = rows_.size();
  auto stored = std::make_shared<const Row>(std::move(row));
  IndexInsert(id, *stored);
  rows_.push_back(std::move(stored), owner_.Get());
  ++live_count_;
  return id;
}

util::Status Table::Update(RowId id, Row row) {
  if (Get(id) == nullptr) {
    return util::Status::NotFound("row " + std::to_string(id) + " not found in '" + name_ + "'");
  }
  GRAPHITTI_RETURN_NOT_OK(schema_.ValidateRow(row));
  IndexRemove(id, *rows_[id]);
  auto stored = std::make_shared<const Row>(std::move(row));
  IndexInsert(id, *stored);
  rows_.Set(id, std::move(stored), owner_.Get());
  return util::Status::OK();
}

util::Status Table::Delete(RowId id) {
  if (Get(id) == nullptr) {
    return util::Status::NotFound("row " + std::to_string(id) + " not found in '" + name_ + "'");
  }
  IndexRemove(id, *rows_[id]);
  rows_.Set(id, nullptr, owner_.Get());
  --live_count_;
  return util::Status::OK();
}

const Row* Table::Get(RowId id) const { return rows_[id].get(); }

Value Table::GetCell(RowId id, std::string_view column) const {
  const Row* row = Get(id);
  if (row == nullptr) return Value::Null();
  int idx = schema_.FindColumn(column);
  if (idx < 0) return Value::Null();
  return (*row)[static_cast<size_t>(idx)];
}

util::Status Table::CreateIndex(std::string_view column, IndexKind kind) {
  int idx = schema_.FindColumn(column);
  if (idx < 0) {
    return util::Status::NotFound("no column '" + std::string(column) + "' in '" + name_ + "'");
  }
  for (const Index& index : indexes_) {
    if (index.column == idx) {
      return util::Status::AlreadyExists("index on '" + std::string(column) + "' already exists");
    }
  }
  Index index;
  index.kind = kind;
  index.column = idx;
  // Backfill from existing rows.
  Scan([&](RowId id, const Row& row) { AddToIndex(&index, id, row); });
  indexes_.push_back(std::move(index));
  return util::Status::OK();
}

bool Table::HasIndex(std::string_view column) const {
  int idx = schema_.FindColumn(column);
  for (const Index& index : indexes_) {
    if (index.column == idx) return true;
  }
  return false;
}

std::vector<std::pair<std::string, IndexKind>> Table::IndexDescriptors() const {
  std::vector<std::pair<std::string, IndexKind>> out;
  for (const Index& index : indexes_) {
    out.emplace_back(schema_.column(static_cast<size_t>(index.column)).name, index.kind);
  }
  return out;
}

void Table::AddToIndex(Index* index, RowId id, const Row& row) {
  const Value& key = row[static_cast<size_t>(index->column)];
  if (key.is_null()) return;
  const util::EditToken token = owner_.Get();
  if (index->kind == IndexKind::kHash) {
    index->hash.Mutable(key, token).push_back(id, token);
  } else {
    index->ordered.Insert(key, id, token);
  }
}

void Table::IndexInsert(RowId id, const Row& row) {
  for (Index& index : indexes_) AddToIndex(&index, id, row);
}

void Table::IndexRemove(RowId id, const Row& row) {
  const util::EditToken token = owner_.Get();
  for (Index& index : indexes_) {
    const Value& key = row[static_cast<size_t>(index.column)];
    if (key.is_null()) continue;
    if (index.kind == IndexKind::kHash) {
      const util::ChunkedVector<RowId>* ids = index.hash.Find(key);
      if (ids == nullptr) continue;
      // Rare (update/delete): rebuild the key's list without `id`.
      util::ChunkedVector<RowId> kept;
      ids->ForEach([&](size_t, RowId other) {
        if (other != id) kept.push_back(other, token);
      });
      if (kept.empty()) {
        index.hash.Erase(key, token);
      } else {
        index.hash.Assign(key, std::move(kept), token);
      }
    } else {
      index.ordered.Erase(key, id, token);
    }
  }
}

const Table::Index* Table::FindUsableIndex(const Predicate& cmp) const {
  if (cmp.kind() != Predicate::Kind::kCompare) return nullptr;
  int idx = schema_.FindColumn(cmp.column());
  if (idx < 0) return nullptr;
  for (const Index& index : indexes_) {
    if (index.column != idx) continue;
    switch (cmp.op()) {
      case CompareOp::kEq:
        return &index;
      case CompareOp::kLt:
      case CompareOp::kLe:
      case CompareOp::kGt:
      case CompareOp::kGe:
        if (index.kind == IndexKind::kOrdered) return &index;
        break;
      default:
        break;
    }
  }
  return nullptr;
}

std::vector<RowId> Table::ProbeIndex(const Index& index, const Predicate& cmp) const {
  std::vector<RowId> out;
  const Value& lit = cmp.literal();
  if (index.kind == IndexKind::kHash) {
    if (const util::ChunkedVector<RowId>* ids = index.hash.Find(lit)) {
      out.reserve(ids->size());
      ids->ForEach([&](size_t, RowId id) { out.push_back(id); });
    }
  } else {
    // Each case scans from the first key its `below` test does not skip
    // and stops at the first key past the range.
    auto collect_while = [&](auto&& in_range) {
      return [&](const Value& key, RowId id) {
        if (!in_range(key)) return false;
        out.push_back(id);
        return true;
      };
    };
    auto none_below = [](const Value&) { return false; };
    auto below_lit = [&](const Value& key) { return key.Compare(lit) < 0; };
    auto up_to_lit = [&](const Value& key) { return key.Compare(lit) <= 0; };
    auto always = [](const Value&) { return true; };
    switch (cmp.op()) {
      case CompareOp::kEq:
        index.ordered.Scan(below_lit, collect_while(up_to_lit));
        break;
      case CompareOp::kLt:
        index.ordered.Scan(none_below, collect_while(below_lit));
        break;
      case CompareOp::kLe:
        index.ordered.Scan(none_below, collect_while(up_to_lit));
        break;
      case CompareOp::kGt:
        index.ordered.Scan(up_to_lit, collect_while(always));
        break;
      case CompareOp::kGe:
        index.ordered.Scan(below_lit, collect_while(always));
        break;
      default:
        break;
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

util::Result<std::vector<RowId>> Table::Select(const Predicate& pred) const {
  GRAPHITTI_RETURN_NOT_OK(pred.Bind(schema_));

  // Pick the most selective indexable conjunct, filter the rest row-by-row.
  std::vector<const Predicate*> conjuncts;
  pred.CollectConjuncts(&conjuncts);

  const Predicate* best = nullptr;
  const Index* best_index = nullptr;
  double best_sel = 1.1;
  for (const Predicate* c : conjuncts) {
    const Index* index = FindUsableIndex(*c);
    if (index == nullptr) continue;
    double sel = EstimateSelectivity(*c);
    if (sel < best_sel) {
      best_sel = sel;
      best = c;
      best_index = index;
    }
  }

  std::vector<RowId> out;
  if (best != nullptr) {
    for (RowId id : ProbeIndex(*best_index, *best)) {
      const Row* row = Get(id);
      if (row != nullptr && pred.Eval(schema_, *row)) out.push_back(id);
    }
    return out;
  }
  return SelectScan(pred);
}

util::Result<std::vector<RowId>> Table::SelectScan(const Predicate& pred) const {
  GRAPHITTI_RETURN_NOT_OK(pred.Bind(schema_));
  std::vector<RowId> out;
  Scan([&](RowId id, const Row& row) {
    if (pred.Eval(schema_, row)) out.push_back(id);
  });
  return out;
}

double Table::EstimateSelectivity(const Predicate& pred) const {
  if (live_count_ == 0) return 0.0;
  double n = static_cast<double>(live_count_);
  switch (pred.kind()) {
    case Predicate::Kind::kTrue:
      return 1.0;
    case Predicate::Kind::kCompare: {
      // Exact estimate from a hash/ordered index when available.
      int idx = schema_.FindColumn(pred.column());
      if (idx >= 0 && pred.op() == CompareOp::kEq) {
        for (const Index& index : indexes_) {
          if (index.column != idx) continue;
          size_t matches = 0;
          if (index.kind == IndexKind::kHash) {
            const util::ChunkedVector<RowId>* ids = index.hash.Find(pred.literal());
            matches = ids == nullptr ? 0 : ids->size();
          } else {
            const Value& lit = pred.literal();
            index.ordered.Scan([&](const Value& key) { return key.Compare(lit) < 0; },
                               [&](const Value& key, RowId) {
                                 if (key.Compare(lit) != 0) return false;
                                 ++matches;
                                 return true;
                               });
          }
          return static_cast<double>(matches) / n;
        }
      }
      switch (pred.op()) {
        case CompareOp::kEq:
          return std::min(1.0, 1.0 / std::max(1.0, n / 10.0));
        case CompareOp::kNe:
          return 0.9;
        case CompareOp::kContains:
          return 0.2;
        case CompareOp::kPrefix:
          return 0.1;
        default:
          return 0.33;  // range
      }
    }
    case Predicate::Kind::kAnd:
      return EstimateSelectivity(*pred.lhs()) * EstimateSelectivity(*pred.rhs());
    case Predicate::Kind::kOr: {
      double a = EstimateSelectivity(*pred.lhs());
      double b = EstimateSelectivity(*pred.rhs());
      return std::min(1.0, a + b - a * b);
    }
    case Predicate::Kind::kNot:
      return 1.0 - EstimateSelectivity(*pred.lhs());
  }
  return 0.5;
}

void Table::Vacuum() {
  const util::EditToken token = owner_.Get();
  util::ChunkedVector<RowPtr> compacted;
  rows_.ForEachRun([&](size_t, const RowPtr* run, size_t n) {
    for (size_t k = 0; k < n; ++k) {
      if (run[k] != nullptr) compacted.push_back(run[k], token);
    }
  });
  rows_ = std::move(compacted);
  // Rebuild indexes with the new RowIds.
  for (Index& index : indexes_) {
    index.hash = {};
    index.ordered = {};
  }
  Scan([&](RowId id, const Row& row) { IndexInsert(id, row); });
}

std::unique_ptr<Table> Table::Clone() const { return std::make_unique<Table>(*this); }

std::string Table::ToString() const {
  return name_ + " " + schema_.ToString() + " [" + std::to_string(live_count_) + " rows]";
}

}  // namespace relational
}  // namespace graphitti
