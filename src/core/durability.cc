// Crash-safe durability for a Graphitti instance: WAL record payloads,
// binary snapshot body encode/restore, recovery, and checkpointing.
//
// Division of labor with src/persist/: persist owns the file-level
// protocol (record framing + CRCs, atomic snapshot writes, generation
// planning) and knows nothing about engine state; this file owns the
// engine-state encodings layered on top.
//
// Snapshot body layout (framed + checksummed by persist/snapshot.cc):
//   coordinate systems (canonical-first), tables (schema, index
//   descriptors, rows in scan order), objects (referencing rows by scan
//   ORDINAL — re-inserting into fresh tables makes ordinal == RowId),
//   next object id, ontologies (OBO text), then the annotation store:
//   term names (dense id order), the keyword index verbatim (token
//   strings + posting lists, so restore never re-tokenizes a document),
//   referents (with their a-graph of-object edge bit), annotations
//   (metadata + the serialized content XML byte-exact + the pre-lowered
//   phrase-search text), and the next annotation/referent ids.
//
// Restore cost model: the two expensive parts of the legacy XML reload
// are parsing 50k content documents and re-tokenizing them into the
// keyword index. The snapshot sidesteps both — content XML is parked
// cold in the store (hydrated lazily on first access) and the keyword
// index is adopted verbatim.
#include "core/durability.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <unordered_map>

#include "persist/format.h"
#include "persist/recovery.h"
#include "persist/snapshot.h"
#include "xml/xml_parser.h"

namespace graphitti {
namespace core {

using annotation::AnnotationId;
using annotation::AnnotationStore;
using annotation::ReferentId;
using persist::Decoder;
using persist::Encoder;
using relational::IndexKind;
using relational::Row;
using relational::RowId;
using relational::Schema;
using relational::Table;
using relational::Value;
using relational::ValueType;
using util::Result;
using util::Status;

namespace {

// --- Value / schema encoding (shared by kObject records and table rows) ---

constexpr uint8_t kValNull = 0;
constexpr uint8_t kValInt = 1;
constexpr uint8_t kValDouble = 2;
constexpr uint8_t kValString = 3;
constexpr uint8_t kValBytes = 4;

void EncodeValue(Encoder* enc, const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      enc->PutU8(kValNull);
      break;
    case ValueType::kInt64:
      enc->PutU8(kValInt);
      enc->PutI64(v.as_int());
      break;
    case ValueType::kDouble:
      enc->PutU8(kValDouble);
      enc->PutDouble(v.as_double());
      break;
    case ValueType::kString:
      enc->PutU8(kValString);
      enc->PutString(v.as_string());
      break;
    case ValueType::kBytes: {
      const std::vector<uint8_t>& b = v.as_bytes();
      enc->PutU8(kValBytes);
      enc->PutString(std::string_view(reinterpret_cast<const char*>(b.data()), b.size()));
      break;
    }
  }
}

Result<Value> DecodeValue(Decoder* dec) {
  GRAPHITTI_ASSIGN_OR_RETURN(uint8_t tag, dec->GetU8());
  switch (tag) {
    case kValNull:
      return Value::Null();
    case kValInt: {
      GRAPHITTI_ASSIGN_OR_RETURN(int64_t v, dec->GetI64());
      return Value::Int(v);
    }
    case kValDouble: {
      GRAPHITTI_ASSIGN_OR_RETURN(double v, dec->GetDouble());
      return Value::Real(v);
    }
    case kValString: {
      GRAPHITTI_ASSIGN_OR_RETURN(std::string v, dec->GetString());
      return Value::Str(std::move(v));
    }
    case kValBytes: {
      GRAPHITTI_ASSIGN_OR_RETURN(std::string_view raw, dec->GetStringView());
      const uint8_t* p = reinterpret_cast<const uint8_t*>(raw.data());
      return Value::Blob(std::vector<uint8_t>(p, p + raw.size()));
    }
    default:
      return Status::Internal("unknown value tag " + std::to_string(tag));
  }
}

uint8_t TypeTag(ValueType t) {
  switch (t) {
    case ValueType::kNull:
      return kValNull;
    case ValueType::kInt64:
      return kValInt;
    case ValueType::kDouble:
      return kValDouble;
    case ValueType::kString:
      return kValString;
    case ValueType::kBytes:
      return kValBytes;
  }
  return kValNull;
}

void EncodeSchema(Encoder* enc, const Schema& schema) {
  enc->PutU32(static_cast<uint32_t>(schema.num_columns()));
  for (size_t i = 0; i < schema.num_columns(); ++i) {
    const relational::Column& col = schema.column(i);
    enc->PutString(col.name);
    enc->PutU8(TypeTag(col.type));
    enc->PutU8(col.nullable ? 1 : 0);
  }
}

Result<Schema> DecodeSchema(Decoder* dec) {
  GRAPHITTI_ASSIGN_OR_RETURN(uint32_t ncols, dec->GetU32());
  relational::SchemaBuilder sb;
  for (uint32_t i = 0; i < ncols; ++i) {
    GRAPHITTI_ASSIGN_OR_RETURN(std::string name, dec->GetString());
    GRAPHITTI_ASSIGN_OR_RETURN(uint8_t type, dec->GetU8());
    GRAPHITTI_ASSIGN_OR_RETURN(uint8_t nullable_byte, dec->GetU8());
    bool nullable = nullable_byte != 0;
    switch (type) {
      case kValInt:
        sb.Int(std::move(name), nullable);
        break;
      case kValDouble:
        sb.Real(std::move(name), nullable);
        break;
      case kValString:
        sb.Str(std::move(name), nullable);
        break;
      case kValBytes:
        sb.Blob(std::move(name), nullable);
        break;
      default:
        return Status::Internal("unknown column type tag " + std::to_string(type));
    }
  }
  return sb.Build();
}

// --- Dublin Core: u16 bitmap of non-empty fields in canonical order ---

constexpr size_t kNumDcFields = 13;

std::array<std::string annotation::DublinCore::*, kNumDcFields> DcFields() {
  using DC = annotation::DublinCore;
  return {&DC::title,    &DC::creator,  &DC::subject, &DC::description, &DC::date,
          &DC::type,     &DC::format,   &DC::identifier, &DC::source,
          &DC::language, &DC::relation, &DC::coverage,   &DC::rights};
}

void EncodeDublinCore(Encoder* enc, const annotation::DublinCore& dc) {
  auto fields = DcFields();
  uint32_t bitmap = 0;
  for (size_t i = 0; i < kNumDcFields; ++i) {
    if (!(dc.*fields[i]).empty()) bitmap |= 1u << i;
  }
  enc->PutU32(bitmap);
  for (size_t i = 0; i < kNumDcFields; ++i) {
    if (bitmap & (1u << i)) enc->PutString(dc.*fields[i]);
  }
}

Status DecodeDublinCore(Decoder* dec, annotation::DublinCore* dc) {
  auto fields = DcFields();
  GRAPHITTI_ASSIGN_OR_RETURN(uint32_t bitmap, dec->GetU32());
  for (size_t i = 0; i < kNumDcFields; ++i) {
    if (bitmap & (1u << i)) {
      GRAPHITTI_ASSIGN_OR_RETURN(dc->*fields[i], dec->GetString());
    }
  }
  return Status::OK();
}

// --- Substructures ---

void EncodeSubstructure(Encoder* enc, const substructure::Substructure& sub) {
  enc->PutU8(static_cast<uint8_t>(sub.type()));
  enc->PutString(sub.domain());
  switch (sub.type()) {
    case substructure::SubType::kInterval:
      enc->PutI64(sub.interval().lo);
      enc->PutI64(sub.interval().hi);
      break;
    case substructure::SubType::kRegion: {
      const spatial::Rect& r = sub.rect();
      enc->PutU8(static_cast<uint8_t>(r.dims));
      for (int d = 0; d < spatial::Rect::kMaxDims; ++d) {
        enc->PutDouble(r.lo[static_cast<size_t>(d)]);
      }
      for (int d = 0; d < spatial::Rect::kMaxDims; ++d) {
        enc->PutDouble(r.hi[static_cast<size_t>(d)]);
      }
      break;
    }
    default: {
      const std::vector<uint64_t>& elems = sub.elements();
      enc->PutU32(static_cast<uint32_t>(elems.size()));
      for (uint64_t e : elems) enc->PutU64(e);
      break;
    }
  }
}

Result<substructure::Substructure> DecodeSubstructure(Decoder* dec) {
  GRAPHITTI_ASSIGN_OR_RETURN(uint8_t type_tag, dec->GetU8());
  GRAPHITTI_ASSIGN_OR_RETURN(std::string domain, dec->GetString());
  auto type = static_cast<substructure::SubType>(type_tag);
  switch (type) {
    case substructure::SubType::kInterval: {
      spatial::Interval iv;
      GRAPHITTI_ASSIGN_OR_RETURN(iv.lo, dec->GetI64());
      GRAPHITTI_ASSIGN_OR_RETURN(iv.hi, dec->GetI64());
      return substructure::Substructure::MakeInterval(std::move(domain), iv);
    }
    case substructure::SubType::kRegion: {
      spatial::Rect r;
      GRAPHITTI_ASSIGN_OR_RETURN(uint8_t dims, dec->GetU8());
      r.dims = dims;
      for (int d = 0; d < spatial::Rect::kMaxDims; ++d) {
        GRAPHITTI_ASSIGN_OR_RETURN(r.lo[static_cast<size_t>(d)], dec->GetDouble());
      }
      for (int d = 0; d < spatial::Rect::kMaxDims; ++d) {
        GRAPHITTI_ASSIGN_OR_RETURN(r.hi[static_cast<size_t>(d)], dec->GetDouble());
      }
      return substructure::Substructure::MakeRegion(std::move(domain), r);
    }
    case substructure::SubType::kNodeSet:
    case substructure::SubType::kBlockSet:
    case substructure::SubType::kTreeClade: {
      GRAPHITTI_ASSIGN_OR_RETURN(uint32_t n, dec->GetCount32(/*u64*/ 8));
      std::vector<uint64_t> elems;
      elems.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        GRAPHITTI_ASSIGN_OR_RETURN(uint64_t e, dec->GetU64());
        elems.push_back(e);
      }
      switch (type) {
        case substructure::SubType::kNodeSet:
          return substructure::Substructure::MakeNodeSet(std::move(domain), std::move(elems));
        case substructure::SubType::kBlockSet:
          return substructure::Substructure::MakeBlockSet(std::move(domain),
                                                          std::move(elems));
        default:
          return substructure::Substructure::MakeTreeClade(std::move(domain),
                                                           std::move(elems));
      }
    }
  }
  return Status::Internal("unknown substructure type tag " + std::to_string(type_tag));
}

}  // namespace

// --- WAL record payload encoders (append sites live in graphitti.cc) ---

namespace walrec {

std::string EncodeCommitBatch(const AnnotationStore& store,
                              const std::vector<AnnotationId>& ids) {
  Encoder enc;
  enc.PutU32(static_cast<uint32_t>(ids.size()));
  for (AnnotationId id : ids) {
    const annotation::Annotation* ann = store.Get(id);
    enc.PutU64(id);
    // The post-commit content XML (with the id attribute stamped) is the
    // replay unit: FromContentXml reconstructs the builder and the parsed
    // document rides along as the prebuilt content, exactly like the
    // legacy XML reload path.
    enc.PutString(ann == nullptr ? std::string() : store.ContentXml(*ann));
  }
  return enc.Take();
}

std::string EncodeRemove(AnnotationId id) {
  Encoder enc;
  enc.PutU64(id);
  return enc.Take();
}

std::string EncodeObject(const ObjectInfo& info, const Row& row) {
  Encoder enc;
  enc.PutU64(info.id);
  enc.PutString(info.table);
  enc.PutString(info.label);
  enc.PutU64(info.row);
  enc.PutU32(static_cast<uint32_t>(row.size()));
  for (const Value& v : row) EncodeValue(&enc, v);
  return enc.Take();
}

std::string EncodeCreateTable(std::string_view name, const Schema& schema) {
  Encoder enc;
  enc.PutString(name);
  EncodeSchema(&enc, schema);
  return enc.Take();
}

std::string EncodeOntology(std::string_view name, std::string_view obo_text) {
  Encoder enc;
  enc.PutString(name);
  enc.PutString(obo_text);
  return enc.Take();
}

std::string EncodeCoordSystem(std::string_view name, int dims) {
  Encoder enc;
  enc.PutString(name);
  enc.PutU8(static_cast<uint8_t>(dims));
  return enc.Take();
}

std::string EncodeDerivedCoordSystem(
    std::string_view name, std::string_view canonical,
    const std::array<double, spatial::Rect::kMaxDims>& scale,
    const std::array<double, spatial::Rect::kMaxDims>& offset) {
  Encoder enc;
  enc.PutString(name);
  enc.PutString(canonical);
  for (double s : scale) enc.PutDouble(s);
  for (double o : offset) enc.PutDouble(o);
  return enc.Take();
}

}  // namespace walrec

// --- WAL plumbing ---

Status Graphitti::WalGuard() const {
  if (env_ != nullptr && wal_failed_) {
    // kUnavailable: the refusal is retryable by design — reads keep
    // serving, and a successful Checkpoint (or TryHeal) restores durable
    // mutations. Health() reports the mode and this rejection count.
    gov_counters_.degraded_rejections.fetch_add(1, std::memory_order_relaxed);
    return Status::Unavailable(
        "durable engine is read-only: an earlier WAL append failed and the "
        "log may be behind in-memory state; Checkpoint() (or TryHeal) to "
        "re-establish durability");
  }
  return Status::OK();
}

Status Graphitti::WalAppend(persist::WalRecordType type, std::string payload) {
  if (env_ == nullptr || wal_ == nullptr) return Status::OK();
  Status s = wal_->AppendRecord(type, payload);
  // Any failure degrades: the record may be torn on disk (recovery will
  // truncate it), so appending further records would leave a gap between
  // durable and in-memory state. WalGuard() refuses mutations until a
  // successful Checkpoint writes a fresh snapshot + empty WAL. The atomic
  // mirror (degraded_) makes the mode observable lock-free via Health().
  if (!s.ok()) {
    wal_failed_ = true;
    degraded_.store(true, std::memory_order_release);
    gov_counters_.wal_failures.fetch_add(1, std::memory_order_relaxed);
  }
  return s;
}

// --- WAL replay ---

Status Graphitti::ApplyWalRecord(const persist::WalRecord& record, EngineState& state) {
  // Boot/recovery mode: `state` is the initial version, not yet observable
  // by any reader, so it is mutated in place through the substrates
  // directly (never the public mutators, which would publish and log).
  Decoder dec(record.payload);
  switch (record.type) {
    case persist::WalRecordType::kCommitBatch: {
      // Each entry: u64 id + length-prefixed XML.
      GRAPHITTI_ASSIGN_OR_RETURN(uint32_t count, dec.GetCount32(8 + 4));
      std::vector<AnnotationId> ids;
      std::vector<std::string> xmls;
      ids.reserve(count);
      xmls.reserve(count);
      for (uint32_t i = 0; i < count; ++i) {
        GRAPHITTI_ASSIGN_OR_RETURN(AnnotationId id, dec.GetU64());
        GRAPHITTI_ASSIGN_OR_RETURN(std::string xml, dec.GetString());
        // Duplicate delivery of an already-applied record (e.g. replay
        // after a crash mid-checkpoint-cleanup): skip the whole batch.
        if (state.store->Get(id) != nullptr) return Status::OK();
        ids.push_back(id);
        xmls.push_back(std::move(xml));
      }
      std::vector<annotation::AnnotationBuilder> builders;
      std::vector<xml::XmlDocument> contents;
      builders.reserve(count);
      contents.reserve(count);
      for (uint32_t i = 0; i < count; ++i) {
        GRAPHITTI_ASSIGN_OR_RETURN(xml::XmlDocument doc, xml::ParseXml(xmls[i]));
        GRAPHITTI_ASSIGN_OR_RETURN(
            annotation::AnnotationBuilder builder,
            annotation::AnnotationBuilder::FromContentXml(doc.root()));
        builders.push_back(std::move(builder));
        contents.push_back(std::move(doc));
      }
      return state.store->CommitBatch(std::move(builders), ids, &contents).status();
    }
    case persist::WalRecordType::kRemove: {
      GRAPHITTI_ASSIGN_OR_RETURN(AnnotationId id, dec.GetU64());
      Status s = state.store->Remove(id);
      return s.IsNotFound() ? Status::OK() : s;  // duplicate delivery
    }
    case persist::WalRecordType::kObject: {
      GRAPHITTI_ASSIGN_OR_RETURN(uint64_t object_id, dec.GetU64());
      GRAPHITTI_ASSIGN_OR_RETURN(std::string table, dec.GetString());
      GRAPHITTI_ASSIGN_OR_RETURN(std::string label, dec.GetString());
      GRAPHITTI_ASSIGN_OR_RETURN(RowId logged_rid, dec.GetU64());
      GRAPHITTI_ASSIGN_OR_RETURN(uint32_t ncols, dec.GetCount32(/*value tag*/ 1));
      {
        util::MutexLock meta(meta_mu_);
        if (objects_.count(object_id) > 0) return Status::OK();  // duplicate
      }
      Row row;
      row.reserve(ncols);
      for (uint32_t i = 0; i < ncols; ++i) {
        GRAPHITTI_ASSIGN_OR_RETURN(Value v, DecodeValue(&dec));
        row.push_back(std::move(v));
      }
      Table* t = state.catalog.GetTable(table);
      if (t == nullptr) {
        return Status::Internal("WAL object record targets missing table '" + table + "'");
      }
      GRAPHITTI_ASSIGN_OR_RETURN(RowId rid, t->Insert(std::move(row)));
      if (rid != logged_rid) {
        // Replay from the logged base state is deterministic; divergence
        // means the WAL does not belong to this base.
        return Status::Internal("WAL object replay row id " + std::to_string(rid) +
                                " != logged " + std::to_string(logged_rid) +
                                " (WAL does not match its base state)");
      }
      return RestoreObjectInto(state, object_id, table, rid, std::move(label));
    }
    case persist::WalRecordType::kCreateTable: {
      GRAPHITTI_ASSIGN_OR_RETURN(std::string name, dec.GetString());
      GRAPHITTI_ASSIGN_OR_RETURN(Schema schema, DecodeSchema(&dec));
      Status s = state.catalog.CreateTable(std::move(name), std::move(schema)).status();
      return s.IsAlreadyExists() ? Status::OK() : s;
    }
    case persist::WalRecordType::kOntology: {
      GRAPHITTI_ASSIGN_OR_RETURN(std::string name, dec.GetString());
      GRAPHITTI_ASSIGN_OR_RETURN(std::string obo, dec.GetString());
      Status s = LoadOntologyInto(std::move(name), obo);
      return s.IsAlreadyExists() ? Status::OK() : s;
    }
    case persist::WalRecordType::kCoordSystem: {
      GRAPHITTI_ASSIGN_OR_RETURN(std::string name, dec.GetString());
      GRAPHITTI_ASSIGN_OR_RETURN(uint8_t dims, dec.GetU8());
      Status s = state.indexes.coordinate_systems().RegisterCanonical(name, dims);
      return s.IsAlreadyExists() ? Status::OK() : s;
    }
    case persist::WalRecordType::kDerivedCoordSystem: {
      GRAPHITTI_ASSIGN_OR_RETURN(std::string name, dec.GetString());
      GRAPHITTI_ASSIGN_OR_RETURN(std::string canonical, dec.GetString());
      std::array<double, spatial::Rect::kMaxDims> scale{};
      std::array<double, spatial::Rect::kMaxDims> offset{};
      for (double& v : scale) {
        GRAPHITTI_ASSIGN_OR_RETURN(v, dec.GetDouble());
      }
      for (double& v : offset) {
        GRAPHITTI_ASSIGN_OR_RETURN(v, dec.GetDouble());
      }
      Status s = state.indexes.coordinate_systems().RegisterDerived(name, canonical, scale,
                                                                   offset);
      return s.IsAlreadyExists() ? Status::OK() : s;
    }
    case persist::WalRecordType::kVacuum:
      for (const std::string& name : state.catalog.TableNames()) {
        state.catalog.GetTable(name)->Vacuum();
      }
      return Status::OK();
  }
  return Status::Internal("unknown WAL record type " +
                          std::to_string(static_cast<int>(record.type)));
}

// --- Snapshot encode ---

std::string Graphitti::EncodeSnapshotBody(const EngineState& state) const {
  Encoder enc;

  // Coordinate systems, canonical-first (restore re-registers in order).
  std::vector<spatial::CoordinateSystem> systems = state.indexes.coordinate_systems().All();
  enc.PutU32(static_cast<uint32_t>(systems.size()));
  for (const spatial::CoordinateSystem& cs : systems) {
    enc.PutString(cs.name);
    enc.PutString(cs.canonical);
    enc.PutU8(static_cast<uint8_t>(cs.dims));
    for (double s : cs.scale) enc.PutDouble(s);
    for (double o : cs.offset) enc.PutDouble(o);
  }

  // Tables: schema + index descriptors + rows in scan order. Objects below
  // reference rows by scan ordinal (restore re-inserts contiguously, so
  // ordinal == RowId there — the same trick as the legacy XML save).
  std::vector<std::string> table_names = state.catalog.TableNames();
  enc.PutU32(static_cast<uint32_t>(table_names.size()));
  std::map<std::string, std::unordered_map<RowId, uint64_t>> ordinals;
  for (const std::string& name : table_names) {
    const Table* table = state.catalog.GetTable(name);
    enc.PutString(name);
    EncodeSchema(&enc, table->schema());
    std::vector<std::pair<std::string, IndexKind>> idx = table->IndexDescriptors();
    enc.PutU32(static_cast<uint32_t>(idx.size()));
    for (const auto& [col, kind] : idx) {
      enc.PutString(col);
      enc.PutU8(kind == IndexKind::kHash ? 0 : 1);
    }
    enc.PutU64(table->size());
    std::unordered_map<RowId, uint64_t>& table_ordinals = ordinals[name];
    uint64_t ordinal = 0;
    table->Scan([&](RowId id, const Row& row) {
      table_ordinals[id] = ordinal++;
      for (const Value& v : row) EncodeValue(&enc, v);
    });
  }

  // Objects and ontologies live in engine metadata, not the versioned
  // state; meta_mu_ covers the reads. A registration racing this encode
  // would reference a row the snapshot's `state` lacks — the ordinal skip
  // below drops it, matching the snapshot's version cut. (Checkpoint holds
  // commit_mu_, so in practice no such race exists there.)
  {
    util::MutexLock meta(meta_mu_);
    std::vector<std::pair<const ObjectInfo*, uint64_t>> live;
    live.reserve(objects_.size());
    for (const auto& [id, info] : objects_) {
      (void)id;
      auto tit = ordinals.find(info.table);
      if (tit == ordinals.end()) continue;
      auto rit = tit->second.find(info.row);
      if (rit == tit->second.end()) continue;
      live.emplace_back(&info, rit->second);
    }
    enc.PutU32(static_cast<uint32_t>(live.size()));
    for (const auto& [info, ordinal] : live) {
      enc.PutU64(info->id);
      enc.PutString(info->table);
      enc.PutU64(ordinal);
      enc.PutString(info->label);
    }
    enc.PutU64(next_object_id_);

    enc.PutU32(static_cast<uint32_t>(ontologies_.size()));
    for (const auto& [name, onto] : ontologies_) {
      enc.PutString(name);
      enc.PutString(ontology::ToObo(onto));
    }
  }

  // Annotation store: term names, the keyword index verbatim, referents,
  // annotations.
  const AnnotationStore& store = *state.store;
  enc.PutU32(static_cast<uint32_t>(store.NumTerms()));
  for (size_t i = 0; i < store.NumTerms(); ++i) enc.PutString(store.TermNameAt(i));

  enc.PutU32(static_cast<uint32_t>(store.NumTokens()));
  for (uint32_t tid = 0; tid < store.NumTokens(); ++tid) {
    enc.PutString(store.TokenString(tid));
    const util::ChunkedVector<AnnotationId>& posting = store.PostingsOf(tid);
    enc.PutU32(static_cast<uint32_t>(posting.size()));
    posting.ForEach([&](size_t, AnnotationId id) { enc.PutU64(id); });
  }

  enc.PutU64(store.num_referents());
  store.ForEachReferent([&](ReferentId rid, const annotation::Referent& ref) {
    enc.PutU64(rid);
    enc.PutU64(ref.object_id);
    enc.PutU64(ref.refcount);
    // Whether the a-graph carries the referent->object edge: absent when a
    // later commit adopted the object id without re-marking, and restore
    // must not invent it.
    bool edge = ref.object_id != 0 &&
                state.graph.HasEdge(AnnotationStore::ReferentNode(rid),
                                    agraph::NodeRef::Object(ref.object_id),
                                    annotation::kEdgeOfObject);
    enc.PutU8(edge ? 1 : 0);
    EncodeSubstructure(&enc, ref.substructure);
  });

  enc.PutU64(store.size());
  store.ForEachAnnotation([&](AnnotationId id, const annotation::Annotation& ann) {
    enc.PutU64(id);
    EncodeDublinCore(&enc, ann.dc);
    enc.PutString(ann.body);
    enc.PutU32(static_cast<uint32_t>(ann.user_tags.size()));
    for (const auto& [k, v] : ann.user_tags) {
      enc.PutString(k);
      enc.PutString(v);
    }
    enc.PutU32(static_cast<uint32_t>(ann.ontology_refs.size()));
    for (const annotation::OntologyRef& oref : ann.ontology_refs) {
      enc.PutString(oref.ontology);
      enc.PutString(oref.term);
    }
    enc.PutU32(static_cast<uint32_t>(ann.referents.size()));
    for (ReferentId rid : ann.referents) enc.PutU64(rid);
    // Byte-exact serialized content (cold entries pass through verbatim),
    // plus the pre-lowered phrase-search text so restore derives nothing.
    enc.PutString(store.ContentXml(ann));
    enc.PutString(store.LowerTextOf(id));
  });

  enc.PutU64(store.next_annotation_id());
  enc.PutU64(store.next_referent_id());
  return enc.Take();
}

// --- Snapshot restore ---

Status Graphitti::RestoreFromSnapshotBody(std::string_view body, EngineState& state) {
  Decoder dec(body);
  // Cooperative cancellation, checked every 1024 items of the bulk loops.
  // The caller owns rollback: a kCancelled return means `state` (and the
  // engine metadata the restore already touched) is half-built.
  auto hydrate_check = [this](uint64_t i) -> Status {
    if ((i & 1023) == 0 && hydrate_cancel_.cancelled()) {
      return Status::Cancelled("hydration cancelled");
    }
    return Status::OK();
  };

  // Boot/recovery mode: `state` is not yet observable by any reader, so
  // it is rebuilt in place through the substrates directly (never the
  // public mutators, which would publish and log).
  GRAPHITTI_ASSIGN_OR_RETURN(uint32_t ncs, dec.GetU32());
  for (uint32_t i = 0; i < ncs; ++i) {
    GRAPHITTI_ASSIGN_OR_RETURN(std::string name, dec.GetString());
    GRAPHITTI_ASSIGN_OR_RETURN(std::string canonical, dec.GetString());
    GRAPHITTI_ASSIGN_OR_RETURN(uint8_t dims, dec.GetU8());
    std::array<double, spatial::Rect::kMaxDims> scale{};
    std::array<double, spatial::Rect::kMaxDims> offset{};
    for (double& v : scale) {
      GRAPHITTI_ASSIGN_OR_RETURN(v, dec.GetDouble());
    }
    for (double& v : offset) {
      GRAPHITTI_ASSIGN_OR_RETURN(v, dec.GetDouble());
    }
    if (name == canonical) {
      GRAPHITTI_RETURN_NOT_OK(state.indexes.coordinate_systems().RegisterCanonical(name, dims));
    } else {
      GRAPHITTI_RETURN_NOT_OK(
          state.indexes.coordinate_systems().RegisterDerived(name, canonical, scale, offset));
    }
  }

  // Tables. Built-ins already exist (same construction path), user tables
  // are created; rows re-insert contiguously so ordinal == RowId.
  GRAPHITTI_ASSIGN_OR_RETURN(uint32_t ntables, dec.GetU32());
  std::map<std::string, std::vector<RowId>> rows_by_ordinal;
  for (uint32_t i = 0; i < ntables; ++i) {
    GRAPHITTI_ASSIGN_OR_RETURN(std::string name, dec.GetString());
    GRAPHITTI_ASSIGN_OR_RETURN(Schema schema, DecodeSchema(&dec));
    Table* table = state.catalog.GetTable(name);
    if (table == nullptr) {
      GRAPHITTI_ASSIGN_OR_RETURN(table, state.catalog.CreateTable(name, std::move(schema)));
    }
    GRAPHITTI_ASSIGN_OR_RETURN(uint32_t nidx, dec.GetU32());
    for (uint32_t j = 0; j < nidx; ++j) {
      GRAPHITTI_ASSIGN_OR_RETURN(std::string col, dec.GetString());
      GRAPHITTI_ASSIGN_OR_RETURN(uint8_t kind, dec.GetU8());
      Status s = table->CreateIndex(col, kind == 0 ? IndexKind::kHash : IndexKind::kOrdered);
      if (!s.ok() && !s.IsAlreadyExists()) return s;
    }
    const size_t ncols = table->schema().num_columns();
    // Each row: one tagged value per column.
    GRAPHITTI_ASSIGN_OR_RETURN(uint64_t nrows, dec.GetCount64(std::max<size_t>(ncols, 1)));
    std::vector<RowId>& rids = rows_by_ordinal[name];
    rids.reserve(nrows);
    for (uint64_t r = 0; r < nrows; ++r) {
      GRAPHITTI_RETURN_NOT_OK(hydrate_check(r));
      Row row;
      row.reserve(ncols);
      for (size_t c = 0; c < ncols; ++c) {
        GRAPHITTI_ASSIGN_OR_RETURN(Value v, DecodeValue(&dec));
        row.push_back(std::move(v));
      }
      GRAPHITTI_ASSIGN_OR_RETURN(RowId rid, table->Insert(std::move(row)));
      rids.push_back(rid);
    }
  }

  // Objects.
  GRAPHITTI_ASSIGN_OR_RETURN(uint32_t nobjects, dec.GetU32());
  for (uint32_t i = 0; i < nobjects; ++i) {
    GRAPHITTI_ASSIGN_OR_RETURN(uint64_t object_id, dec.GetU64());
    GRAPHITTI_ASSIGN_OR_RETURN(std::string table, dec.GetString());
    GRAPHITTI_ASSIGN_OR_RETURN(uint64_t ordinal, dec.GetU64());
    GRAPHITTI_ASSIGN_OR_RETURN(std::string label, dec.GetString());
    auto it = rows_by_ordinal.find(table);
    if (it == rows_by_ordinal.end() || ordinal >= it->second.size()) {
      return Status::Internal("snapshot object " + std::to_string(object_id) +
                              " references row ordinal " + std::to_string(ordinal) +
                              " beyond table '" + table + "'");
    }
    GRAPHITTI_RETURN_NOT_OK(
        RestoreObjectInto(state, object_id, table, it->second[ordinal], std::move(label)));
  }
  GRAPHITTI_ASSIGN_OR_RETURN(uint64_t next_object, dec.GetU64());
  {
    util::MutexLock meta(meta_mu_);
    next_object_id_ = std::max(next_object_id_, next_object);
  }

  // Ontologies.
  GRAPHITTI_ASSIGN_OR_RETURN(uint32_t nontos, dec.GetU32());
  for (uint32_t i = 0; i < nontos; ++i) {
    GRAPHITTI_ASSIGN_OR_RETURN(std::string name, dec.GetString());
    GRAPHITTI_ASSIGN_OR_RETURN(std::string obo, dec.GetString());
    GRAPHITTI_RETURN_NOT_OK(LoadOntologyInto(std::move(name), obo));
  }

  // Annotation store.
  std::vector<std::string> term_names;
  GRAPHITTI_ASSIGN_OR_RETURN(uint32_t nterms, dec.GetCount32(/*string*/ 4));
  term_names.reserve(nterms);
  for (uint32_t i = 0; i < nterms; ++i) {
    GRAPHITTI_ASSIGN_OR_RETURN(std::string t, dec.GetString());
    term_names.push_back(std::move(t));
  }

  AnnotationStore::RestoredKeywordIndex keyword_index;
  // Each token: its string + a u32 posting length.
  GRAPHITTI_ASSIGN_OR_RETURN(uint32_t ntokens, dec.GetCount32(4 + 4));
  keyword_index.tokens.reserve(ntokens);
  keyword_index.postings.reserve(ntokens);
  for (uint32_t i = 0; i < ntokens; ++i) {
    GRAPHITTI_ASSIGN_OR_RETURN(std::string token, dec.GetString());
    GRAPHITTI_ASSIGN_OR_RETURN(uint32_t n, dec.GetCount32(/*u64*/ 8));
    std::vector<AnnotationId> posting;
    posting.reserve(n);
    for (uint32_t j = 0; j < n; ++j) {
      GRAPHITTI_ASSIGN_OR_RETURN(AnnotationId id, dec.GetU64());
      posting.push_back(id);
    }
    keyword_index.tokens.push_back(std::move(token));
    keyword_index.postings.push_back(std::move(posting));
  }

  // Each referent: id, object id, refcount, edge flag, then a substructure
  // (type tag + domain string).
  GRAPHITTI_ASSIGN_OR_RETURN(uint64_t nrefs, dec.GetCount64(8 + 8 + 8 + 1 + 1 + 4));
  std::vector<AnnotationStore::RestoredReferent> referents;
  referents.reserve(nrefs);
  for (uint64_t i = 0; i < nrefs; ++i) {
    GRAPHITTI_RETURN_NOT_OK(hydrate_check(i));
    AnnotationStore::RestoredReferent rr;
    GRAPHITTI_ASSIGN_OR_RETURN(rr.ref.id, dec.GetU64());
    GRAPHITTI_ASSIGN_OR_RETURN(rr.ref.object_id, dec.GetU64());
    GRAPHITTI_ASSIGN_OR_RETURN(uint64_t refcount, dec.GetU64());
    rr.ref.refcount = static_cast<size_t>(refcount);
    GRAPHITTI_ASSIGN_OR_RETURN(uint8_t edge, dec.GetU8());
    rr.object_edge = edge != 0;
    GRAPHITTI_ASSIGN_OR_RETURN(rr.ref.substructure, DecodeSubstructure(&dec));
    referents.push_back(std::move(rr));
  }

  // Each annotation: id, DC bitmap, body, three list counts, content, text.
  GRAPHITTI_ASSIGN_OR_RETURN(uint64_t nanns, dec.GetCount64(8 + 4 + 4 + 4 + 4 + 4 + 4 + 4));
  std::vector<AnnotationStore::RestoredAnnotation> annotations;
  annotations.reserve(nanns);
  for (uint64_t i = 0; i < nanns; ++i) {
    GRAPHITTI_RETURN_NOT_OK(hydrate_check(i));
    AnnotationStore::RestoredAnnotation ra;
    GRAPHITTI_ASSIGN_OR_RETURN(ra.ann.id, dec.GetU64());
    GRAPHITTI_RETURN_NOT_OK(DecodeDublinCore(&dec, &ra.ann.dc));
    GRAPHITTI_ASSIGN_OR_RETURN(ra.ann.body, dec.GetString());
    GRAPHITTI_ASSIGN_OR_RETURN(uint32_t ntags, dec.GetCount32(/*two strings*/ 8));
    ra.ann.user_tags.reserve(ntags);
    for (uint32_t j = 0; j < ntags; ++j) {
      GRAPHITTI_ASSIGN_OR_RETURN(std::string k, dec.GetString());
      GRAPHITTI_ASSIGN_OR_RETURN(std::string v, dec.GetString());
      ra.ann.user_tags.emplace_back(std::move(k), std::move(v));
    }
    GRAPHITTI_ASSIGN_OR_RETURN(uint32_t norefs, dec.GetCount32(/*two strings*/ 8));
    ra.ann.ontology_refs.reserve(norefs);
    for (uint32_t j = 0; j < norefs; ++j) {
      annotation::OntologyRef oref;
      GRAPHITTI_ASSIGN_OR_RETURN(oref.ontology, dec.GetString());
      GRAPHITTI_ASSIGN_OR_RETURN(oref.term, dec.GetString());
      ra.ann.ontology_refs.push_back(std::move(oref));
    }
    GRAPHITTI_ASSIGN_OR_RETURN(uint32_t nr, dec.GetCount32(/*u64*/ 8));
    ra.ann.referents.reserve(nr);
    for (uint32_t j = 0; j < nr; ++j) {
      GRAPHITTI_ASSIGN_OR_RETURN(ReferentId rid, dec.GetU64());
      ra.ann.referents.push_back(rid);
    }
    GRAPHITTI_ASSIGN_OR_RETURN(ra.content_xml, dec.GetString());
    GRAPHITTI_ASSIGN_OR_RETURN(ra.lower_text, dec.GetString());
    annotations.push_back(std::move(ra));
  }

  GRAPHITTI_ASSIGN_OR_RETURN(uint64_t next_ann, dec.GetU64());
  GRAPHITTI_ASSIGN_OR_RETURN(uint64_t next_ref, dec.GetU64());
  if (!dec.Done()) {
    return Status::Internal("snapshot body has " + std::to_string(dec.remaining()) +
                            " trailing bytes");
  }
  return state.store->RestoreSnapshotState(std::move(referents), std::move(annotations),
                                           std::move(keyword_index), std::move(term_names),
                                           next_ann, next_ref);
}

// --- Recovery and checkpointing ---

Result<std::unique_ptr<Graphitti>> Graphitti::RecoverBinary(
    persist::Env* env, const std::string& directory, const DurabilityOptions& options,
    persist::RecoveryPlan plan, bool attach_wal) {
  auto g = std::make_unique<Graphitti>();
  // Installed before any restore work so both eager and deferred
  // hydration honour it (an eager open cancelled mid-restore simply fails
  // with kCancelled and the engine is discarded).
  g->hydrate_cancel_ = options.hydrate_cancel;
  // The WAL is read (and its torn tail identified) now in either mode:
  // every crash-safety decision happens at open. A torn tail was already
  // cut at the first bad length/CRC; everything before it is a committed
  // prefix and replays cleanly.
  std::vector<persist::WalRecord> wal_records;
  if (plan.has_wal) {
    GRAPHITTI_ASSIGN_OR_RETURN(persist::WalContents wal,
                               persist::ReadWal(*env, plan.wal_path));
    wal_records = std::move(wal.records);
  }
  if (options.eager_restore) {
    // The engine is brand new: its initial version has no observers, so
    // recovery rebuilds it in place.
    EngineState& state = *g->CurrentState();
    if (plan.has_snapshot) {
      GRAPHITTI_RETURN_NOT_OK(g->RestoreFromSnapshotBody(plan.snapshot_body, state));
    }
    for (const persist::WalRecord& rec : wal_records) {
      GRAPHITTI_RETURN_NOT_OK(g->ApplyWalRecord(rec, state));
    }
  } else if (plan.has_snapshot || !wal_records.empty()) {
    // Fast restart: the snapshot body is already CRC-verified, so decoding
    // it (and replaying the verified tail) is deferred to the first public
    // call — see EnsureHydrated/HydrateNow.
    auto stash = std::make_unique<PendingRestore>();
    stash->has_snapshot = plan.has_snapshot;
    stash->snapshot_body = std::move(plan.snapshot_body);
    stash->wal_records = std::move(wal_records);
    {
      // Boot-time (g is unshared), but the stash is hydrate-side state —
      // uncontended lock keeps the write statically provable.
      util::MutexLock hydrate(g->hydrate_mu_);
      g->pending_restore_ = std::move(stash);
    }
    g->hydration_pending_.store(true, std::memory_order_release);
  }
  g->generation_ = plan.generation;
  if (attach_wal) {
    g->env_ = env;
    g->durable_dir_ = directory;
    g->wal_options_ = options.wal;
    // Boot-time: no other thread can reach g yet, but the WAL handle is
    // commit-side state, so take the (uncontended) commit lock to keep the
    // write statically provable.
    util::MutexLock commit(g->commit_mu_);
    // Reopening an existing WAL truncates any torn tail before appending;
    // a missing one (crash between snapshot rename and WAL creation) is
    // created fresh.
    GRAPHITTI_ASSIGN_OR_RETURN(
        g->wal_, persist::WalWriter::Open(
                     env, directory + "/" + persist::WalFileName(plan.generation),
                     plan.generation, options.wal));
    for (const std::string& stale : plan.stale_files) (void)env->RemoveFile(stale);
    (void)env->SyncDir(directory);
  }
  return g;
}

void Graphitti::DiscardPartialHydration() {
  // Only reachable from HydrateNow with hydrate_mu_ held and hydration
  // still pending: every public entry point funnels through EnsureHydrated
  // and is blocked on that lock, so the half-built initial version has no
  // observers. Replace it wholesale and reset the engine metadata the
  // restore touched (ontologies, object registry) to boot state — no
  // stable pointers have been handed out yet.
  auto fresh = std::make_unique<EngineState>();
  fresh->InstallBuiltins();
  epochs_->Publish(std::move(fresh));
  util::MutexLock meta(meta_mu_);
  ontologies_.clear();
  objects_.clear();
  object_by_row_.clear();
  next_object_id_ = 1;
}

Status Graphitti::HydrateNow() const {
  // The deferred-recovery members (hydrate_mu_, pending_restore_,
  // hydrate_status_, hydration_pending_) are all mutable precisely so this
  // const entry point can lock and update them through `this` — keeping
  // every guarded access on one base object for the thread-safety
  // analysis. const_cast is confined to the boot-mode replay helpers,
  // which are non-const but touch only the unpublished initial version.
  util::MutexLock lk(hydrate_mu_);
  if (!hydration_pending_.load(std::memory_order_relaxed)) return Status::OK();
  if (!hydrate_status_.ok()) return hydrate_status_;  // poisoned: never retried
  // hydration_pending_ stays true for the whole decode: every other
  // thread's EnsureHydrated funnels here and blocks on hydrate_mu_, so no
  // reader can pin (let alone observe) the half-built initial version.
  // The boot-mode helpers mutate that version in place and never touch
  // the WAL, so nothing gets re-logged.
  std::unique_ptr<PendingRestore> stash = std::move(pending_restore_);
  Graphitti* self = const_cast<Graphitti*>(this);
  EngineState& state = *CurrentState();
  Status st;
  if (stash->has_snapshot) st = self->RestoreFromSnapshotBody(stash->snapshot_body, state);
  if (st.ok()) {
    for (const persist::WalRecord& rec : stash->wal_records) {
      if (hydrate_cancel_.cancelled()) {
        st = Status::Cancelled("hydration cancelled");
        break;
      }
      st = self->ApplyWalRecord(rec, state);
      if (!st.ok()) break;
    }
  }
  if (!st.ok()) {
    if (st.IsCancelled()) {
      // Cancellation is retryable, never sticky: throw away the half-built
      // state wholesale, put the stash back, and leave hydration pending.
      // Reset() on the token + any public call retries from scratch.
      self->DiscardPartialHydration();
      pending_restore_ = std::move(stash);
      return st;
    }
    // Should be unreachable for a CRC-clean snapshot + settled WAL; if it
    // happens, poison rather than serve the partial state.
    hydrate_status_ = st;
    return st;
  }
  hydration_pending_.store(false, std::memory_order_release);
  return Status::OK();
}

Result<std::unique_ptr<Graphitti>> Graphitti::OpenDurable(const std::string& directory,
                                                          const DurabilityOptions& options) {
  persist::Env* env = options.env != nullptr ? options.env : persist::Env::Default();
  GRAPHITTI_RETURN_NOT_OK(env->CreateDirs(directory));
  GRAPHITTI_ASSIGN_OR_RETURN(persist::RecoveryPlan plan,
                             persist::PlanRecovery(*env, directory));
  if (plan.kind == persist::RecoveryPlan::Kind::kLegacyXml) {
    // Pre-WAL XML save: load through the legacy path (real filesystem —
    // legacy saves predate the Env seam), then immediately checkpoint
    // into the binary format (snapshot-1 + wal-1; later recoveries take
    // the binary branch and ignore the legacy files).
    GRAPHITTI_ASSIGN_OR_RETURN(std::unique_ptr<Graphitti> g, LoadFrom(directory));
    g->env_ = env;
    g->durable_dir_ = directory;
    g->wal_options_ = options.wal;
    GRAPHITTI_RETURN_NOT_OK(g->Checkpoint());
    return g;
  }
  return RecoverBinary(env, directory, options, std::move(plan), /*attach_wal=*/true);
}

Status Graphitti::Checkpoint() {
  GRAPHITTI_RETURN_NOT_OK(EnsureHydrated());
  // Checkpointing serializes against *writers* (commit_mu_), never against
  // readers: the current version is immutable once published, so encoding
  // it races nothing, and readers keep pinning and serving throughout.
  util::MutexLock commit(commit_mu_);
  if (env_ == nullptr) {
    return Status::Unsupported("Checkpoint() requires an OpenDurable engine");
  }
  // Ordering is the crash-safety argument: (1) snapshot g+1 lands
  // atomically (temp + fsync + rename + dir fsync) — a crash before this
  // leaves generation g fully intact; (2) wal-(g+1) is created with a
  // synced header — a crash between (1) and (2) recovers snapshot g+1
  // with no WAL, which is exactly its state; (3) only then are the old
  // generation's files deleted — a crash mid-cleanup leaves stale files
  // that PlanRecovery recognizes and removes.
  const uint64_t next_gen = generation_ + 1;
  std::string body = EncodeSnapshotBody(*CurrentState());
  GRAPHITTI_RETURN_NOT_OK(persist::WriteSnapshotFile(
      env_, durable_dir_ + "/" + persist::SnapshotFileName(next_gen), next_gen, body));
  GRAPHITTI_ASSIGN_OR_RETURN(
      std::unique_ptr<persist::WalWriter> next_wal,
      persist::WalWriter::Open(env_, durable_dir_ + "/" + persist::WalFileName(next_gen),
                               next_gen, wal_options_));
  std::string old_wal_path = wal_ != nullptr ? wal_->path() : std::string();
  const uint64_t old_gen = generation_;
  wal_ = std::move(next_wal);
  generation_ = next_gen;
  // The new snapshot captures all in-memory state, including anything a
  // failed append never made durable — the WAL is whole again.
  wal_failed_ = false;
  if (degraded_.exchange(false, std::memory_order_acq_rel)) {
    gov_counters_.heals.fetch_add(1, std::memory_order_relaxed);
  }
  if (old_gen > 0) {
    (void)env_->RemoveFile(durable_dir_ + "/" + persist::SnapshotFileName(old_gen));
  }
  if (!old_wal_path.empty()) (void)env_->RemoveFile(old_wal_path);
  (void)env_->SyncDir(durable_dir_);
  return Status::OK();
}

Status Graphitti::TryHeal(size_t max_attempts, std::chrono::milliseconds initial_backoff) {
  if (env_ == nullptr) {
    return Status::Unsupported("TryHeal() requires an OpenDurable engine");
  }
  if (!degraded_.load(std::memory_order_acquire)) return Status::OK();
  Status last = Status::OK();
  std::chrono::milliseconds backoff = initial_backoff;
  for (size_t attempt = 0; attempt < max_attempts; ++attempt) {
    if (attempt > 0) {
      // Backoff happens with no engine lock held: readers and other
      // writers proceed normally between attempts.
      std::this_thread::sleep_for(backoff);
      backoff *= 2;
    }
    last = Checkpoint();
    if (last.ok()) return Status::OK();
  }
  return last;
}

HealthSnapshot Graphitti::Health() const {
  HealthSnapshot h;
  h.durable = IsDurable();
  h.mode = degraded_.load(std::memory_order_acquire) ? EngineMode::kReadOnly
                                                     : EngineMode::kServing;
  h.hydration_pending = hydration_pending_.load(std::memory_order_acquire);
  h.generation = generation();
  h.wal_failures = gov_counters_.wal_failures.load(std::memory_order_relaxed);
  h.degraded_rejections =
      gov_counters_.degraded_rejections.load(std::memory_order_relaxed);
  h.heals = gov_counters_.heals.load(std::memory_order_relaxed);
  h.deadline_exceeded =
      gov_counters_.deadline_exceeded.load(std::memory_order_relaxed);
  h.cancelled = gov_counters_.cancelled.load(std::memory_order_relaxed);
  h.resource_exhausted =
      gov_counters_.resource_exhausted.load(std::memory_order_relaxed);
  if (admission_ != nullptr) h.admission = admission_->Counters();
  h.live_versions = epochs_->live_versions();
  h.oldest_pin_epoch_lag = epochs_->oldest_pin_epoch_lag();
  return h;
}

void Graphitti::ConfigureAdmission(const util::AdmissionOptions& options) {
  admission_ = std::make_unique<util::AdmissionController>(options);
}

}  // namespace core
}  // namespace graphitti
