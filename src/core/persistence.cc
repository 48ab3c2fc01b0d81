// Directory-based persistence for a Graphitti instance.
//
// Layout written by Graphitti::SaveTo(dir):
//   dir/manifest.txt                 version + next ids
//   dir/tables/<name>.tsv            schema header + rows (TSV, escaped)
//   dir/objects.tsv                  object_id, table, row ordinal, label
//   dir/coordinate_systems.tsv       name, canonical, dims, scale, offset
//   dir/ontologies/<name>.obo        OBO-lite dumps
//   dir/annotations.xml              <annotations> wrapper of content docs
//
// Load order: tables -> objects -> coordinate systems -> ontologies ->
// annotations (replayed through the normal commit pipeline, with forced
// ids, so spatial indexes and the a-graph are rebuilt rather than trusted).
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/graphitti.h"
#include "ontology/obo_parser.h"
#include "persist/recovery.h"
#include "util/string_util.h"
#include "xml/xml_parser.h"

namespace graphitti {
namespace core {

namespace fs = std::filesystem;
using relational::IndexKind;
using relational::Row;
using relational::Schema;
using relational::Table;
using relational::Value;
using relational::ValueType;
using util::Result;
using util::Status;

namespace {

std::string EscapeField(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    switch (c) {
      case '\t':
        out += "\\t";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\\':
        out += "\\\\";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

std::string UnescapeField(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (size_t i = 0; i < raw.size(); ++i) {
    if (raw[i] == '\\' && i + 1 < raw.size()) {
      ++i;
      switch (raw[i]) {
        case 't':
          out.push_back('\t');
          break;
        case 'n':
          out.push_back('\n');
          break;
        default:
          out.push_back(raw[i]);
      }
    } else {
      out.push_back(raw[i]);
    }
  }
  return out;
}

std::string HexEncode(const std::vector<uint8_t>& bytes) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (uint8_t b : bytes) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xf]);
  }
  return out;
}

Result<std::vector<uint8_t>> HexDecode(std::string_view hex) {
  if (hex.size() % 2 != 0) return Status::ParseError("odd-length hex blob");
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  std::vector<uint8_t> out;
  out.reserve(hex.size() / 2);
  for (size_t i = 0; i < hex.size(); i += 2) {
    int hi = nibble(hex[i]);
    int lo = nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) return Status::ParseError("bad hex digit in blob");
    out.push_back(static_cast<uint8_t>(hi << 4 | lo));
  }
  return out;
}

std::string SerializeValue(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return "\\N";
    case ValueType::kInt64:
      return std::to_string(v.as_int());
    case ValueType::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", v.as_double());
      return buf;
    }
    case ValueType::kString:
      return "s:" + EscapeField(v.as_string());
    case ValueType::kBytes:
      return "x:" + HexEncode(v.as_bytes());
  }
  return "\\N";
}

Result<Value> DeserializeValue(std::string_view field, ValueType declared) {
  if (field == "\\N") return Value::Null();
  if (util::StartsWith(field, "s:")) return Value::Str(UnescapeField(field.substr(2)));
  if (util::StartsWith(field, "x:")) {
    GRAPHITTI_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, HexDecode(field.substr(2)));
    return Value::Blob(std::move(bytes));
  }
  if (declared == ValueType::kDouble) {
    double d = 0;
    if (!util::ParseDouble(field, &d)) return Status::ParseError("bad double field");
    return Value::Real(d);
  }
  int64_t i = 0;
  if (!util::ParseInt64(field, &i)) return Status::ParseError("bad int field");
  return Value::Int(i);
}

const char* TypeCode(ValueType t) {
  switch (t) {
    case ValueType::kInt64:
      return "int";
    case ValueType::kDouble:
      return "real";
    case ValueType::kString:
      return "str";
    case ValueType::kBytes:
      return "blob";
    case ValueType::kNull:
      return "null";
  }
  return "?";
}

Result<ValueType> ParseTypeCode(std::string_view code) {
  if (code == "int") return ValueType::kInt64;
  if (code == "real") return ValueType::kDouble;
  if (code == "str") return ValueType::kString;
  if (code == "blob") return ValueType::kBytes;
  return Status::ParseError("unknown column type '" + std::string(code) + "'");
}

Status WriteFile(const fs::path& path, const std::string& content) {
  // Atomic replace (temp + fsync + rename + directory fsync): a crash
  // mid-save leaves either the previous version of this file or the new
  // one, never a torn hybrid.
  return persist::Env::Default()->WriteFileAtomic(path.string(), content);
}

Result<std::string> ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open '" + path.string() + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace

Status Graphitti::SaveTo(const std::string& directory) const {
  // The dump reads one pinned version, so it is commit-consistent without
  // blocking anyone: writers keep publishing and readers keep serving
  // while it is written. Engine metadata (objects, ontologies) is copied
  // out under meta_mu_ up front; objects registered after the pin may
  // reference rows the pinned tables lack and are skipped by the ordinal
  // filter below, matching the version cut.
  GRAPHITTI_RETURN_NOT_OK(EnsureHydrated());
  util::EpochPin pin = epochs_->PinCurrent();
  const auto& state = *static_cast<const EngineState*>(pin.get());
  std::map<uint64_t, ObjectInfo> objects_copy;
  uint64_t next_object_id_copy = 0;
  std::vector<std::pair<std::string, std::string>> ontology_dumps;
  {
    util::MutexLock meta(meta_mu_);
    objects_copy.insert(objects_.begin(), objects_.end());
    next_object_id_copy = next_object_id_;
    ontology_dumps.reserve(ontologies_.size());
    for (const auto& [name, onto] : ontologies_) {
      ontology_dumps.emplace_back(name, ontology::ToObo(onto));
    }
  }
  std::error_code ec;
  fs::create_directories(fs::path(directory) / "tables", ec);
  fs::create_directories(fs::path(directory) / "ontologies", ec);
  if (ec) return Status::Internal("cannot create '" + directory + "': " + ec.message());
  fs::path dir(directory);

  // --- tables ---
  for (const std::string& name : state.catalog.TableNames()) {
    const Table* table = state.catalog.GetTable(name);
    std::string out;
    // Header line 1: columns "name:type[:notnull]".
    const Schema& schema = table->schema();
    for (size_t i = 0; i < schema.num_columns(); ++i) {
      const auto& col = schema.column(i);
      if (i) out += '\t';
      out += EscapeField(col.name);
      out += ':';
      out += TypeCode(col.type);
      if (!col.nullable) out += ":notnull";
    }
    out += '\n';
    // Header line 2: index descriptors "col:hash|ordered" (may be empty).
    bool first = true;
    for (const auto& [col, kind] : table->IndexDescriptors()) {
      if (!first) out += '\t';
      first = false;
      out += EscapeField(col);
      out += (kind == IndexKind::kHash) ? ":hash" : ":ordered";
    }
    out += '\n';
    table->Scan([&](relational::RowId, const Row& row) {
      for (size_t i = 0; i < row.size(); ++i) {
        if (i) out += '\t';
        out += SerializeValue(row[i]);
      }
      out += '\n';
    });
    GRAPHITTI_RETURN_NOT_OK(WriteFile(dir / "tables" / (name + ".tsv"), out));
  }

  // --- objects (row ordinal = position in scan order above) ---
  {
    std::map<std::string, std::map<relational::RowId, size_t>> ordinals;
    for (const std::string& name : state.catalog.TableNames()) {
      size_t ordinal = 0;
      auto& table_ordinals = ordinals[name];
      state.catalog.GetTable(name)->Scan(
          [&](relational::RowId id, const Row&) { table_ordinals[id] = ordinal++; });
    }
    std::string out;
    for (const auto& [id, info] : objects_copy) {
      auto tit = ordinals.find(info.table);
      if (tit == ordinals.end()) continue;  // table dropped; object is stale
      auto rit = tit->second.find(info.row);
      if (rit == tit->second.end()) continue;  // row deleted
      out += std::to_string(id) + '\t' + EscapeField(info.table) + '\t' +
             std::to_string(rit->second) + '\t' + EscapeField(info.label) + '\n';
    }
    GRAPHITTI_RETURN_NOT_OK(WriteFile(dir / "objects.tsv", out));
  }

  // --- coordinate systems ---
  {
    std::string out;
    for (const auto& cs : state.indexes.coordinate_systems().All()) {
      out += EscapeField(cs.name) + '\t' + EscapeField(cs.canonical) + '\t' +
             std::to_string(cs.dims);
      char buf[32];
      for (int d = 0; d < spatial::Rect::kMaxDims; ++d) {
        std::snprintf(buf, sizeof(buf), "%.17g", cs.scale[static_cast<size_t>(d)]);
        out += std::string("\t") + buf;
      }
      for (int d = 0; d < spatial::Rect::kMaxDims; ++d) {
        std::snprintf(buf, sizeof(buf), "%.17g", cs.offset[static_cast<size_t>(d)]);
        out += std::string("\t") + buf;
      }
      out += '\n';
    }
    GRAPHITTI_RETURN_NOT_OK(WriteFile(dir / "coordinate_systems.tsv", out));
  }

  // --- ontologies ---
  for (const auto& [name, obo] : ontology_dumps) {
    GRAPHITTI_RETURN_NOT_OK(WriteFile(dir / "ontologies" / (name + ".obo"), obo));
  }

  // --- annotations ---
  {
    // One line per annotation, no pretty-print indentation: a 50k-corpus
    // file shrinks ~30% and the reload parser skips that much less layout
    // whitespace. Still plain XML — pretty-print a single annotation via
    // content.ToString(true) when a human needs to read one.
    std::string out = "<annotations>\n";
    for (annotation::AnnotationId id : state.store->Ids()) {
      const annotation::Annotation* ann = state.store->Get(id);
      if (ann != nullptr) {
        out += state.store->ContentXml(*ann);
        out += '\n';
      }
    }
    out += "</annotations>\n";
    GRAPHITTI_RETURN_NOT_OK(WriteFile(dir / "annotations.xml", out));
  }

  // --- manifest ---
  {
    std::string out = "graphitti-save-v1\n";
    out += "next_object_id\t" + std::to_string(next_object_id_copy) + '\n';
    GRAPHITTI_RETURN_NOT_OK(WriteFile(dir / "manifest.txt", out));
  }
  return Status::OK();
}

util::Status Graphitti::RestoreObjectInto(EngineState& state, uint64_t object_id,
                                          std::string_view table, relational::RowId row,
                                          std::string label) {
  if (object_id == 0) return Status::InvalidArgument("object id 0 is reserved");
  if (state.catalog.GetTable(table) == nullptr) {
    return Status::NotFound("table '" + std::string(table) + "' not found");
  }
  util::MutexLock meta(meta_mu_);
  if (objects_.count(object_id) > 0) {
    return Status::AlreadyExists("object id " + std::to_string(object_id) + " in use");
  }
  ObjectInfo info;
  info.id = object_id;
  info.table = std::string(table);
  info.row = row;
  info.label = std::move(label);
  state.graph.EnsureNode(agraph::NodeRef::Object(object_id), info.label);
  object_by_row_[info.table][row] = object_id;
  objects_.emplace(object_id, std::move(info));
  next_object_id_ = std::max(next_object_id_, object_id + 1);
  return Status::OK();
}

util::Status Graphitti::RestoreObject(uint64_t object_id, std::string_view table,
                                      relational::RowId row, std::string label) {
  GRAPHITTI_RETURN_NOT_OK(EnsureHydrated());
  util::MutexLock commit(commit_mu_);
  if (object_id == 0) return Status::InvalidArgument("object id 0 is reserved");
  {
    util::MutexLock meta(meta_mu_);
    if (objects_.count(object_id) > 0) {
      return Status::AlreadyExists("object id " + std::to_string(object_id) + " in use");
    }
  }
  if (CurrentState()->catalog.GetTable(table) == nullptr) {
    return Status::NotFound("table '" + std::string(table) + "' not found");
  }
  // Not WAL-logged: the caller adopts an existing row (legacy-load /
  // import paths), and the row's own kObject record or snapshot already
  // carries it where durability is in play.
  std::unique_ptr<EngineState> scratch = AcquireScratch();
  scratch->graph.EnsureNode(agraph::NodeRef::Object(object_id), label);
  {
    util::MutexLock meta(meta_mu_);
    ObjectInfo info;
    info.id = object_id;
    info.table = std::string(table);
    info.row = row;
    info.label = std::move(label);
    object_by_row_[info.table][row] = object_id;
    objects_.emplace(object_id, std::move(info));
    next_object_id_ = std::max(next_object_id_, object_id + 1);
  }
  Publish(std::move(scratch));
  return Status::OK();
}

Result<std::unique_ptr<Graphitti>> Graphitti::LoadFrom(const std::string& directory) {
  fs::path dir(directory);

  // A durable engine's directory (snapshot-<g>/wal-<g>) loads through
  // binary recovery; a legacy manifest.txt save falls through to the XML
  // path below. The returned engine is read-only with respect to
  // durability either way (no WAL attached).
  {
    persist::Env* env = persist::Env::Default();
    GRAPHITTI_ASSIGN_OR_RETURN(persist::RecoveryPlan plan,
                               persist::PlanRecovery(*env, directory));
    if (plan.kind == persist::RecoveryPlan::Kind::kBinary) {
      return RecoverBinary(env, directory, DurabilityOptions{}, std::move(plan),
                           /*attach_wal=*/false);
    }
  }

  auto g = std::make_unique<Graphitti>();
  // Boot mode: the fresh engine's initial version has no observers yet,
  // so the legacy save is replayed into it in place through the
  // substrates — one version, no per-row publishes.
  EngineState& state = *g->CurrentState();

  // --- manifest ---
  GRAPHITTI_ASSIGN_OR_RETURN(std::string manifest, ReadFile(dir / "manifest.txt"));
  if (!util::StartsWith(manifest, "graphitti-save-v1")) {
    return Status::ParseError("unrecognized manifest in '" + directory + "'");
  }

  // --- tables ---
  if (fs::exists(dir / "tables")) {
    for (const auto& entry : fs::directory_iterator(dir / "tables")) {
      if (entry.path().extension() != ".tsv") continue;
      std::string name = entry.path().stem().string();
      GRAPHITTI_ASSIGN_OR_RETURN(std::string text, ReadFile(entry.path()));
      std::vector<std::string> lines = util::Split(text, '\n');
      if (lines.size() < 2) return Status::ParseError("truncated table file " + name);

      // Parse schema header.
      relational::SchemaBuilder sb;
      std::vector<ValueType> types;
      for (const std::string& col_spec : util::Split(lines[0], '\t')) {
        std::vector<std::string> parts = util::Split(col_spec, ':');
        if (parts.size() < 2) return Status::ParseError("bad column spec '" + col_spec + "'");
        GRAPHITTI_ASSIGN_OR_RETURN(ValueType type, ParseTypeCode(parts[1]));
        bool nullable = parts.size() < 3 || parts[2] != "notnull";
        std::string col_name = UnescapeField(parts[0]);
        types.push_back(type);
        switch (type) {
          case ValueType::kInt64:
            sb.Int(col_name, nullable);
            break;
          case ValueType::kDouble:
            sb.Real(col_name, nullable);
            break;
          case ValueType::kString:
            sb.Str(col_name, nullable);
            break;
          default:
            sb.Blob(col_name, nullable);
        }
      }

      Table* table = state.catalog.GetTable(name);
      if (table == nullptr) {
        GRAPHITTI_ASSIGN_OR_RETURN(table, state.catalog.CreateTable(name, sb.Build()));
      }
      // Indexes (line 2); built-ins already have theirs.
      if (!lines[1].empty()) {
        for (const std::string& index_spec : util::Split(lines[1], '\t')) {
          size_t colon = index_spec.rfind(':');
          if (colon == std::string::npos) {
            return Status::ParseError("bad index spec '" + index_spec + "'");
          }
          std::string col = UnescapeField(index_spec.substr(0, colon));
          IndexKind kind = index_spec.substr(colon + 1) == "hash" ? IndexKind::kHash
                                                                  : IndexKind::kOrdered;
          Status s = table->CreateIndex(col, kind);
          if (!s.ok() && !s.IsAlreadyExists()) return s;
        }
      }
      // Rows.
      for (size_t li = 2; li < lines.size(); ++li) {
        if (lines[li].empty()) continue;
        std::vector<std::string> fields = util::Split(lines[li], '\t');
        if (fields.size() != types.size()) {
          return Status::ParseError("row arity mismatch in table " + name + " line " +
                                    std::to_string(li + 1));
        }
        Row row;
        for (size_t f = 0; f < fields.size(); ++f) {
          GRAPHITTI_ASSIGN_OR_RETURN(Value v, DeserializeValue(fields[f], types[f]));
          row.push_back(std::move(v));
        }
        GRAPHITTI_RETURN_NOT_OK(table->Insert(std::move(row)).status());
      }
    }
  }

  // --- objects ---
  {
    GRAPHITTI_ASSIGN_OR_RETURN(std::string text, ReadFile(dir / "objects.tsv"));
    for (const std::string& line : util::Split(text, '\n')) {
      if (line.empty()) continue;
      std::vector<std::string> fields = util::Split(line, '\t');
      if (fields.size() != 4) return Status::ParseError("bad objects.tsv line");
      int64_t id = 0, ordinal = 0;
      if (!util::ParseInt64(fields[0], &id) || !util::ParseInt64(fields[2], &ordinal)) {
        return Status::ParseError("bad ids in objects.tsv");
      }
      // Rows were re-inserted contiguously, so ordinal == RowId after load.
      GRAPHITTI_RETURN_NOT_OK(g->RestoreObjectInto(state, static_cast<uint64_t>(id),
                                                   UnescapeField(fields[1]),
                                                   static_cast<relational::RowId>(ordinal),
                                                   UnescapeField(fields[3])));
    }
  }

  // --- coordinate systems (canonical rows come first by construction) ---
  {
    GRAPHITTI_ASSIGN_OR_RETURN(std::string text, ReadFile(dir / "coordinate_systems.tsv"));
    for (const std::string& line : util::Split(text, '\n')) {
      if (line.empty()) continue;
      std::vector<std::string> fields = util::Split(line, '\t');
      if (fields.size() != 3 + 2 * spatial::Rect::kMaxDims) {
        return Status::ParseError("bad coordinate_systems.tsv line");
      }
      std::string name = UnescapeField(fields[0]);
      std::string canonical = UnescapeField(fields[1]);
      int64_t dims = 0;
      if (!util::ParseInt64(fields[2], &dims)) {
        return Status::ParseError("bad dims in coordinate_systems.tsv");
      }
      if (name == canonical) {
        GRAPHITTI_RETURN_NOT_OK(state.indexes.coordinate_systems().RegisterCanonical(
            name, static_cast<int>(dims)));
      } else {
        std::array<double, spatial::Rect::kMaxDims> scale{};
        std::array<double, spatial::Rect::kMaxDims> offset{};
        for (int d = 0; d < spatial::Rect::kMaxDims; ++d) {
          if (!util::ParseDouble(fields[static_cast<size_t>(3 + d)], &scale[static_cast<size_t>(d)]) ||
              !util::ParseDouble(fields[static_cast<size_t>(3 + spatial::Rect::kMaxDims + d)],
                                 &offset[static_cast<size_t>(d)])) {
            return Status::ParseError("bad transform in coordinate_systems.tsv");
          }
        }
        GRAPHITTI_RETURN_NOT_OK(
            state.indexes.coordinate_systems().RegisterDerived(name, canonical, scale, offset));
      }
    }
  }

  // --- ontologies ---
  if (fs::exists(dir / "ontologies")) {
    for (const auto& entry : fs::directory_iterator(dir / "ontologies")) {
      if (entry.path().extension() != ".obo") continue;
      GRAPHITTI_ASSIGN_OR_RETURN(std::string text, ReadFile(entry.path()));
      GRAPHITTI_RETURN_NOT_OK(g->LoadOntologyInto(entry.path().stem().string(), text));
    }
  }

  // --- annotations: parse into builders and replay as ONE batched commit,
  // so the reload packs each domain's interval tree / R-tree in a single
  // bulk build (and merges keyword postings in one pass) instead of
  // replaying per-annotation inserts ---
  {
    GRAPHITTI_ASSIGN_OR_RETURN(std::string text, ReadFile(dir / "annotations.xml"));
    GRAPHITTI_ASSIGN_OR_RETURN(xml::XmlDocument doc, xml::ParseXml(text));
    std::vector<annotation::AnnotationBuilder> builders;
    std::vector<annotation::AnnotationId> forced_ids;
    // The parsed <annotation> subtrees are detached from the wrapper and
    // handed to CommitBatch as prebuilt content documents, so the reload
    // neither deep-copies nor re-serializes 50k content trees.
    std::vector<xml::XmlDocument> contents;
    std::vector<std::unique_ptr<xml::XmlNode>> children = doc.root()->TakeChildren();
    builders.reserve(children.size());
    forced_ids.reserve(children.size());
    contents.reserve(children.size());
    for (auto& child : children) {
      if (!child->is_element() || child->tag() != "annotation") continue;
      const xml::XmlNode* ann_node = child.get();
      GRAPHITTI_ASSIGN_OR_RETURN(annotation::AnnotationBuilder builder,
                                 annotation::AnnotationBuilder::FromContentXml(ann_node));
      const std::string* id_attr = ann_node->FindAttribute("id");
      annotation::AnnotationId forced_id = 0;
      if (id_attr != nullptr) {
        int64_t v = 0;
        if (!util::ParseInt64(*id_attr, &v) || v <= 0) {
          return Status::ParseError("bad annotation id '" + *id_attr + "'");
        }
        forced_id = static_cast<annotation::AnnotationId>(v);
      }
      builders.push_back(std::move(builder));
      forced_ids.push_back(forced_id);
      contents.emplace_back(std::move(child));
    }
    GRAPHITTI_RETURN_NOT_OK(
        state.store->CommitBatch(std::move(builders), forced_ids, &contents).status());
  }
  return g;
}

util::Status Graphitti::ValidateIntegrity() const {
  GRAPHITTI_RETURN_NOT_OK(EnsureHydrated());
  // One pinned version is checked end to end; cross-checks against engine
  // metadata (object registrations) copy it out under meta_mu_ first.
  util::EpochPin pin = epochs_->PinCurrent();
  const auto& state = *static_cast<const EngineState*>(pin.get());
  std::map<uint64_t, ObjectInfo> objects_copy;
  {
    util::MutexLock meta(meta_mu_);
    objects_copy.insert(objects_.begin(), objects_.end());
  }
  // 1. Every referent is backed by the right index entry (spatial kinds) and
  //    an a-graph node.
  for (annotation::ReferentId rid : state.store->ReferentIds()) {
    const annotation::Referent* ref = state.store->GetReferent(rid);
    if (ref == nullptr) return Status::Internal("referent table inconsistent");
    const auto& sub = ref->substructure;
    if (!state.graph.HasNode(agraph::NodeRef::Referent(rid))) {
      return Status::Internal("referent " + std::to_string(rid) + " missing from a-graph");
    }
    if (sub.type() == substructure::SubType::kInterval) {
      bool found = false;
      for (const auto& e : state.indexes.QueryIntervals(sub.domain(), sub.interval())) {
        if (e.id == rid && e.interval == sub.interval()) found = true;
      }
      if (!found) {
        return Status::Internal("referent " + std::to_string(rid) +
                                " missing from interval index '" + sub.domain() + "'");
      }
    } else if (sub.type() == substructure::SubType::kRegion) {
      auto hits = state.indexes.QueryRegions(sub.domain(), sub.rect());
      if (!hits.ok()) return hits.status();
      bool found = false;
      for (const auto& e : *hits) {
        if (e.id == rid) found = true;
      }
      if (!found) {
        return Status::Internal("referent " + std::to_string(rid) +
                                " missing from region index '" + sub.domain() + "'");
      }
    }
    if (ref->refcount == 0) {
      return Status::Internal("referent " + std::to_string(rid) + " has zero refcount");
    }
  }

  // 2. Every annotation's content node exists and its referents resolve.
  for (annotation::AnnotationId id : state.store->Ids()) {
    const annotation::Annotation* ann = state.store->Get(id);
    if (!state.graph.HasNode(agraph::NodeRef::Content(id))) {
      return Status::Internal("annotation " + std::to_string(id) + " missing from a-graph");
    }
    if (!state.store->HasContent(*ann)) {
      return Status::Internal("annotation " + std::to_string(id) + " has empty content");
    }
    for (annotation::ReferentId rid : ann->referents) {
      if (state.store->GetReferent(rid) == nullptr) {
        return Status::Internal("annotation " + std::to_string(id) +
                                " references dead referent " + std::to_string(rid));
      }
    }
  }

  // 3. Every a-graph content/referent node has a backing record; object
  //    nodes have registrations.
  Status status = Status::OK();
  state.graph.ForEachNode([&](agraph::NodeRef ref, std::string_view) {
    if (!status.ok()) return;
    switch (ref.kind) {
      case agraph::NodeKind::kContent:
        if (state.store->Get(ref.id) == nullptr) {
          status = Status::Internal("a-graph content node " + std::to_string(ref.id) +
                                    " has no stored annotation");
        }
        break;
      case agraph::NodeKind::kReferent:
        if (state.store->GetReferent(ref.id) == nullptr) {
          status = Status::Internal("a-graph referent node " + std::to_string(ref.id) +
                                    " has no referent record");
        }
        break;
      case agraph::NodeKind::kDataObject:
        if (objects_copy.find(ref.id) == objects_copy.end()) {
          status = Status::Internal("a-graph object node " + std::to_string(ref.id) +
                                    " is not registered");
        }
        break;
      case agraph::NodeKind::kOntologyTerm:
        if (state.store->TermName(ref).empty()) {
          status = Status::Internal("a-graph term node " + std::to_string(ref.id) +
                                    " has no interned name");
        }
        break;
    }
  });
  GRAPHITTI_RETURN_NOT_OK(status);

  // 4. Objects point at live rows.
  for (const auto& [id, info] : objects_copy) {
    const Table* table = state.catalog.GetTable(info.table);
    if (table == nullptr || table->Get(info.row) == nullptr) {
      return Status::Internal("object " + std::to_string(id) + " points at a dead row in '" +
                              info.table + "'");
    }
  }
  return Status::OK();
}

}  // namespace core
}  // namespace graphitti
