#include "annotation/annotation_store.h"

#include <algorithm>
#include <unordered_set>

#include "util/dense_set.h"
#include "util/string_util.h"
#include "util/thread_annotations.h"
#include "xml/xml_parser.h"
#include "xml/xquery.h"

namespace graphitti {
namespace annotation {

namespace {

// Guards the one-time parse of cold snapshot content. Records are shared
// across versions (and so across stores), so the lock cannot live in any
// one store; it is only ever taken while some record is still cold.
util::Mutex& HydrationMutex() {
  static util::Mutex mu;
  return mu;
}

// One token's ascending posting list: chunked, so a commit appending to a
// list shared with older versions copies O(log n) chunks, not the list.
using Posting = util::ChunkedVector<AnnotationId>;

std::vector<AnnotationId> ToVector(const Posting& posting) {
  std::vector<AnnotationId> out;
  out.reserve(posting.size());
  posting.ForEachRun([&](size_t, const AnnotationId* run, size_t n) {
    out.insert(out.end(), run, run + n);
  });
  return out;
}

Posting FromVector(const std::vector<AnnotationId>& ids, util::EditToken token) {
  Posting posting;
  for (AnnotationId id : ids) posting.push_back(id, token);
  return posting;
}

size_t LowerBound(const Posting& posting, AnnotationId id) {
  size_t lo = 0, hi = posting.size();
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (posting[mid] < id) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// Keeps the ids of *acc that `posting` contains. Galloping from a monotone
// cursor, so a rare list against a common one costs O(|acc| log |posting|).
void IntersectWith(const Posting& posting, std::vector<AnnotationId>* acc) {
  const size_t n = posting.size();
  size_t lo = 0;
  size_t kept = 0;
  for (AnnotationId x : *acc) {
    if (lo >= n) break;
    if (posting[lo] < x) {
      size_t bound = 1;
      while (lo + bound < n && posting[lo + bound] < x) bound <<= 1;
      size_t hi = std::min(lo + bound + 1, n);
      while (lo < hi) {
        size_t mid = lo + (hi - lo) / 2;
        if (posting[mid] < x) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
    }
    if (lo < n && posting[lo] == x) (*acc)[kept++] = x;
  }
  acc->resize(kept);
}

}  // namespace

AnnotationStore::AnnotationStore(spatial::IndexManager* indexes, agraph::AGraph* graph)
    : indexes_(indexes), graph_(graph) {}

void AnnotationStore::PutAnnotation(Annotation ann, std::string lower_text,
                                    util::EditToken token) {
  auto record = std::make_shared<Record>();
  const AnnotationId id = ann.id;
  record->ann = std::move(ann);
  record->lower_text = std::move(lower_text);
  annotations_.Set(id, std::move(record), token);
  ++num_annotations_;
}

util::Result<ReferentId> AnnotationStore::InternReferent(
    const substructure::Substructure& sub, uint64_t object_id, BatchStaging* staging,
    uint32_t* node_index, MarkUndo* undo) {
  if (!sub.valid()) {
    return util::Status::InvalidArgument("invalid substructure: " + sub.ToString());
  }
  // Serialized once per intern: this string is both the dedup map key and
  // the a-graph display label (ToString is hot under bulk ingest).
  std::string key = sub.ToString();
  const util::EditToken t = owner_.Get();
  if (const ReferentId* existing = referent_by_key_.Find(key)) {
    const ReferentId rid = *existing;
    Referent& ref = MutableReferent(rid, t);
    ++ref.refcount;
    if (ref.object_id == 0 && object_id != 0) {
      // Object-id adoption mutates a *shared* referent; record it so a
      // caller whose commit later fails can restore the pre-commit state.
      if (undo != nullptr) undo->adoptions.push_back(rid);
      ref.object_id = object_id;
    }
    if (node_index != nullptr) {
      *node_index = graph_->EnsureNodeIndex(ReferentNode(rid));
    }
    return rid;
  }

  ReferentId id = next_referent_id_++;

  // Spatial kinds join the shared per-domain index; this is where the
  // "one interval tree per chromosome / one R-tree per coordinate system"
  // policy is applied. Validation errors (unknown coordinate system,
  // invalid rect) surface here, before any state change. A batch defers
  // the insertion into per-domain accumulators (flushed as one bulk build
  // per domain) but canonicalizes regions now, so flush cannot fail.
  switch (sub.type()) {
    case substructure::SubType::kInterval:
      if (staging != nullptr) {
        staging->intervals[sub.domain()].push_back({sub.interval(), id});
      } else {
        GRAPHITTI_RETURN_NOT_OK(indexes_->AddInterval(sub.domain(), sub.interval(), id));
      }
      break;
    case substructure::SubType::kRegion:
      if (staging != nullptr) {
        GRAPHITTI_ASSIGN_OR_RETURN(
            auto canonical,
            indexes_->coordinate_systems().ToCanonical(sub.domain(), sub.rect()));
        staging->regions[canonical.first].push_back({canonical.second, id});
      } else {
        GRAPHITTI_RETURN_NOT_OK(indexes_->AddRegion(sub.domain(), sub.rect(), id));
      }
      break;
    default:
      break;  // set-typed referents are stored in the referent table only
  }

  Referent& ref = MutableReferent(id, t);
  ref.id = id;
  ref.substructure = sub;
  ref.object_id = object_id;
  ref.refcount = 1;
  ++num_referents_;
  // Referent ids are issued monotonically and never reused, so appending
  // keeps each domain list ascending.
  DomainList& dom = referents_by_domain_.Mutable(sub.domain(), t);
  dom.ids.push_back(id, t);
  ++dom.live;

  agraph::NodeRef node = ReferentNode(id);
  uint32_t idx = graph_->EnsureNodeIndex(node, key);
  if (node_index != nullptr) *node_index = idx;
  referent_by_key_.Assign(key, id, t);
  if (object_id != 0) {
    agraph::NodeRef object_node = agraph::NodeRef::Object(object_id);
    if (undo != nullptr && !graph_->HasNode(object_node)) {
      undo->created_object_nodes.push_back(object_node);
    }
    graph_->EnsureNode(object_node);
    (void)graph_->AddEdge(node, object_node, kEdgeOfObject);
  }
  return id;
}

void AnnotationStore::ReleaseReferent(ReferentId id) {
  if (referents_[id].get().id == 0) return;
  const util::EditToken t = owner_.Get();
  Referent& ref = MutableReferent(id, t);
  if (--ref.refcount > 0) return;

  switch (ref.substructure.type()) {
    case substructure::SubType::kInterval:
      (void)indexes_->RemoveInterval(ref.substructure.domain(), ref.substructure.interval(),
                                     id);
      break;
    case substructure::SubType::kRegion:
      (void)indexes_->RemoveRegion(ref.substructure.domain(), ref.substructure.rect(), id);
      break;
    default:
      break;
  }
  (void)graph_->RemoveNode(ReferentNode(id));
  if (DomainList* dom = referents_by_domain_.FindMutable(ref.substructure.domain(), t)) {
    if (--dom->live == 0) {
      referents_by_domain_.Erase(ref.substructure.domain(), t);
    } else if (dom->live * 2 < dom->ids.size()) {
      // Dead ids outnumber live ones: compact (order is preserved).
      util::ChunkedVector<ReferentId> live;
      dom->ids.ForEach([&](size_t, ReferentId rid) {
        if (rid != id && referents_[rid].get().id != 0) live.push_back(rid, t);
      });
      dom->ids = std::move(live);
    }
  }
  referent_by_key_.Erase(ref.substructure.ToString(), t);
  referents_.Set(id, util::CowBox<Referent>(), t);
  --num_referents_;
}

util::Result<AnnotationId> AnnotationStore::Commit(const AnnotationBuilder& builder,
                                                   AnnotationId forced_id) {
  if (builder.marks().empty()) {
    return util::Status::InvalidArgument(
        "an annotation must mark at least one referent (it is a linker object)");
  }
  if (forced_id != 0 && RecordOf(forced_id) != nullptr) {
    return util::Status::AlreadyExists("annotation id " + std::to_string(forced_id) +
                                       " already in use");
  }
  AnnotationId id = forced_id != 0 ? forced_id : next_annotation_id_;
  GRAPHITTI_ASSIGN_OR_RETURN(xml::XmlDocument content, builder.BuildContentXml(id));

  // Validate all marks before mutating shared state, so a bad mark cannot
  // leave earlier marks half-committed.
  for (const auto& [sub, object_id] : builder.marks()) {
    (void)object_id;
    if (!sub.valid()) {
      return util::Status::InvalidArgument("invalid marked substructure: " + sub.ToString());
    }
    if (sub.type() == substructure::SubType::kRegion &&
        !indexes_->coordinate_systems().Contains(sub.domain())) {
      return util::Status::NotFound("coordinate system '" + sub.domain() +
                                    "' not registered");
    }
  }

  Annotation ann;
  ann.id = id;
  ann.dc = builder.dc();
  ann.body = builder.body();
  ann.user_tags = builder.user_tags();
  ann.ontology_refs = builder.ontology_refs();
  ann.content = std::move(content);

  agraph::NodeRef content_node = ContentNode(id);
  graph_->EnsureNode(content_node,
                     ann.dc.title.empty() ? ("annotation-" + std::to_string(id))
                                          : ann.dc.title);

  MarkUndo undo;
  for (const auto& [sub, object_id] : builder.marks()) {
    util::Result<ReferentId> rid_or =
        InternReferent(sub, object_id, nullptr, nullptr, &undo);
    if (!rid_or.ok()) {
      // A mark can still fail after the up-front checks (e.g. a region
      // whose rect dims mismatch its registered coordinate system, caught
      // at canonicalization). Roll back everything staged for this
      // annotation — release the referents interned so far (dropping
      // index entries and a-graph nodes for the ones this commit created)
      // and the content node — so a failed Commit leaves the store
      // exactly as it was.
      for (auto rit = ann.referents.rbegin(); rit != ann.referents.rend(); ++rit) {
        ReleaseReferent(*rit);
      }
      // Shared referents whose object id this commit adopted (they had
      // none) go back to unowned; referents released to zero above are
      // simply gone from the map.
      for (ReferentId rid : undo.adoptions) {
        if (referents_[rid].get().id != 0) MutableReferent(rid, owner_.Get()).object_id = 0;
      }
      // Object nodes this commit created are isolated by now (their only
      // edges came from referents released above) — remove them too.
      for (const agraph::NodeRef& obj : undo.created_object_nodes) {
        (void)graph_->RemoveNode(obj);
      }
      (void)graph_->RemoveNode(content_node);
      return rid_or.status();
    }
    ReferentId rid = *rid_or;
    // Skip duplicate referent links within one annotation.
    if (std::find(ann.referents.begin(), ann.referents.end(), rid) != ann.referents.end()) {
      // InternReferent already bumped the refcount; undo the extra count.
      if (referents_[rid].get().refcount > 1) --MutableReferent(rid, owner_.Get()).refcount;
      continue;
    }
    ann.referents.push_back(rid);
    (void)graph_->AddEdge(content_node, ReferentNode(rid), kEdgeAnnotates);
  }

  for (const OntologyRef& oref : ann.ontology_refs) {
    agraph::NodeRef term_node = TermNode(oref.Qualified());
    (void)graph_->AddEdge(content_node, term_node, kEdgeRefersTo);
  }

  std::string lower_text = IndexContentText(id, ann);
  PutAnnotation(std::move(ann), std::move(lower_text), owner_.Get());
  next_annotation_id_ = std::max(next_annotation_id_, id + 1);
  return id;
}

util::Result<std::vector<AnnotationId>> AnnotationStore::CommitBatch(
    const std::vector<AnnotationBuilder>& builders,
    const std::vector<AnnotationId>& forced_ids,
    std::vector<xml::XmlDocument>* prebuilt_contents) {
  return CommitBatchImpl(builders, forced_ids, prebuilt_contents, /*consume=*/false);
}

util::Result<std::vector<AnnotationId>> AnnotationStore::CommitBatch(
    std::vector<AnnotationBuilder>&& builders,
    const std::vector<AnnotationId>& forced_ids,
    std::vector<xml::XmlDocument>* prebuilt_contents) {
  return CommitBatchImpl(builders, forced_ids, prebuilt_contents, /*consume=*/true);
}

util::Result<std::vector<AnnotationId>> AnnotationStore::CommitBatchImpl(
    const std::vector<AnnotationBuilder>& builders,
    const std::vector<AnnotationId>& forced_ids,
    std::vector<xml::XmlDocument>* prebuilt_contents, bool consume) {
  std::vector<AnnotationId> ids;
  if (builders.empty()) return ids;
  if (!forced_ids.empty() && forced_ids.size() != builders.size()) {
    return util::Status::InvalidArgument(
        "forced_ids must be empty or have one entry per builder");
  }
  if (prebuilt_contents != nullptr && prebuilt_contents->size() != builders.size()) {
    return util::Status::InvalidArgument(
        "prebuilt_contents must be null or have one document per builder");
  }

  // --- Validate. Nothing in this block touches shared state, so any error
  // rejects the whole batch with the store untouched. Id assignment mirrors
  // a loop of Commit exactly: forced ids jump the counter forward, fresh
  // ids continue from it.
  ids.reserve(builders.size());
  std::vector<xml::XmlDocument> contents;
  contents.reserve(builders.size());
  std::unordered_set<AnnotationId> assigned;
  assigned.reserve(builders.size());
  uint64_t next_id = next_annotation_id_;
  for (size_t i = 0; i < builders.size(); ++i) {
    const AnnotationBuilder& b = builders[i];
    if (b.marks().empty()) {
      return util::Status::InvalidArgument(
          "builder " + std::to_string(i) +
          ": an annotation must mark at least one referent (it is a linker object)");
    }
    AnnotationId forced = forced_ids.empty() ? 0 : forced_ids[i];
    if (forced != 0 && (RecordOf(forced) != nullptr || assigned.count(forced) > 0)) {
      return util::Status::AlreadyExists("annotation id " + std::to_string(forced) +
                                         " already in use");
    }
    AnnotationId id = forced != 0 ? forced : next_id;
    assigned.insert(id);
    next_id = std::max(next_id, id + 1);
    if (prebuilt_contents != nullptr && !(*prebuilt_contents)[i].empty()) {
      // Reload fast path: the content document was just parsed from disk;
      // adopt it instead of re-serializing the builder. BuildContentXml's
      // own validation still has to happen (it rejects empty user-tag
      // names; substructure validity is checked in the marks loop below).
      for (const auto& [name, value] : b.user_tags()) {
        (void)value;
        if (name.empty()) {
          return util::Status::InvalidArgument("user tag with empty name");
        }
      }
      xml::XmlDocument content = std::move((*prebuilt_contents)[i]);
      content.root()->SetAttribute("id", std::to_string(id));
      contents.push_back(std::move(content));
    } else {
      GRAPHITTI_ASSIGN_OR_RETURN(xml::XmlDocument content, b.BuildContentXml(id));
      contents.push_back(std::move(content));
    }
    ids.push_back(id);
    for (const auto& [sub, object_id] : b.marks()) {
      (void)object_id;
      if (!sub.valid()) {
        return util::Status::InvalidArgument("invalid marked substructure: " +
                                             sub.ToString());
      }
      if (sub.type() == substructure::SubType::kRegion) {
        // The staged flush below must not be able to fail. ToCanonical
        // fails only on an unknown system or a rect/system dims mismatch,
        // so checking those here (without transforming: the staging pass
        // does the one real canonicalization per mark) guarantees it.
        const auto& systems = indexes_->coordinate_systems();
        const spatial::CoordinateSystem* cs = systems.Find(sub.domain());
        if (cs == nullptr || cs->dims != sub.rect().dims) {
          return systems.ToCanonical(sub.domain(), sub.rect()).status();
        }
      }
    }
  }

  // --- Stage: annotation records, referent interning with spatial
  // insertion deferred into per-domain accumulators, a-graph nodes/edges,
  // and keyword tokens. Every chunk this batch creates or copies is owned
  // by the store's token, so the rest of the batch edits it in place.
  const util::EditToken t = owner_.Get();
  BatchStaging staging;
  // Token posting appends go straight onto the shared lists; first_size
  // records each touched list's pre-batch length (SIZE_MAX = untouched) so
  // the flush can restore sortedness with at most one sort + merge per
  // touched token instead of a global sort over every (token, id) pair.
  std::vector<size_t> first_size(postings_.size(), SIZE_MAX);
  std::vector<uint32_t> touched;
  // Scratch reused across the whole batch: the tokenization buffer, its
  // word views, and the token-lookup key.
  std::string text_buf;
  std::vector<std::string_view> words;
  // The batch's two edge labels, interned once; edges below are wired by
  // dense index so the per-mark path never re-hashes refs or labels.
  const uint32_t annotates_label = graph_->InternEdgeLabel(kEdgeAnnotates);
  const uint32_t refers_to_label = graph_->InternEdgeLabel(kEdgeRefersTo);
  for (size_t i = 0; i < builders.size(); ++i) {
    const AnnotationBuilder& b = builders[i];
    AnnotationId id = ids[i];
    Annotation ann;
    ann.id = id;
    if (consume) {
      // The rvalue overload owns the builders: steal the metadata strings
      // instead of copying 50k of them on reload.
      AnnotationBuilder& mb = const_cast<AnnotationBuilder&>(b);
      ann.dc = std::move(mb.dc_);
      ann.body = std::move(mb.body_);
      ann.user_tags = std::move(mb.user_tags_);
      ann.ontology_refs = std::move(mb.ontology_refs_);
    } else {
      ann.dc = b.dc();
      ann.body = b.body();
      ann.user_tags = b.user_tags();
      ann.ontology_refs = b.ontology_refs();
    }
    ann.content = std::move(contents[i]);

    agraph::NodeRef content_node = ContentNode(id);
    const uint32_t content_idx = graph_->EnsureNodeIndex(
        content_node, ann.dc.title.empty() ? ("annotation-" + std::to_string(id))
                                           : ann.dc.title);

    for (const auto& [sub, object_id] : b.marks()) {
      // Cannot fail: everything InternReferent checks was validated above.
      uint32_t ref_idx = 0;
      GRAPHITTI_ASSIGN_OR_RETURN(ReferentId rid,
                                 InternReferent(sub, object_id, &staging, &ref_idx));
      // Skip duplicate referent links within one annotation.
      if (std::find(ann.referents.begin(), ann.referents.end(), rid) !=
          ann.referents.end()) {
        if (referents_[rid].get().refcount > 1) --MutableReferent(rid, t).refcount;
        continue;
      }
      ann.referents.push_back(rid);
      graph_->AddEdgeIndexed(content_idx, ref_idx, annotates_label);
    }

    for (const OntologyRef& oref : ann.ontology_refs) {
      graph_->AddEdgeIndexed(content_idx,
                             graph_->EnsureNodeIndex(TermNode(oref.Qualified())),
                             refers_to_label);
    }

    // One-pass keyword accumulation: tokens are interned now but postings
    // are merged once at flush instead of appended per commit.
    size_t content_len = TokenizeForIndex(ann, &text_buf, &words);
    for (std::string_view w : words) {
      uint32_t tid = InternToken(w, t);
      if (tid >= first_size.size()) first_size.resize(postings_.size(), SIZE_MAX);
      Posting& posting = postings_.Mutable(tid, t);
      if (first_size[tid] == SIZE_MAX) {
        first_size[tid] = posting.size();
        touched.push_back(tid);
      }
      posting.push_back(id, t);
    }
    PutAnnotation(std::move(ann), std::string(text_buf.data(), content_len), t);
  }
  next_annotation_id_ = std::max(next_annotation_id_, next_id);

  // --- Flush: one bulk tree build per touched domain, one sorted merge
  // pass over the batch's postings.
  for (auto& [domain, entries] : staging.intervals) {
    GRAPHITTI_RETURN_NOT_OK(indexes_->BulkLoadIntervals(domain, std::move(entries)));
  }
  for (auto& [system, entries] : staging.regions) {
    GRAPHITTI_RETURN_NOT_OK(indexes_->BulkLoadRegions(system, std::move(entries)));
  }
  for (uint32_t tid : touched) {
    // Batch ids ascend except when forced ids interleave, so the appended
    // run almost always extends the list in order and nothing is repaired.
    Posting& posting = postings_.Mutable(tid, t);
    bool sorted = true;
    for (size_t k = std::max<size_t>(first_size[tid], 1); k < posting.size() && sorted; ++k) {
      sorted = posting[k - 1] < posting[k];
    }
    if (!sorted) {
      std::vector<AnnotationId> repaired = ToVector(posting);
      std::sort(repaired.begin(), repaired.end());
      posting = FromVector(repaired, t);
    }
  }
  return ids;
}

util::Status AnnotationStore::Remove(AnnotationId id) {
  // Hold the record: the slot is cleared below while its fields are read.
  RecordPtr record = annotations_[id];
  if (record == nullptr) {
    return util::Status::NotFound("annotation " + std::to_string(id) + " not found");
  }
  const Annotation& ann = record->ann;
  UnindexContentText(id, ann);
  (void)graph_->RemoveNode(ContentNode(id));
  // Release referents after the content node is gone so AnnotationsOfReferent
  // stays consistent.
  for (ReferentId rid : ann.referents) ReleaseReferent(rid);
  annotations_.Set(id, nullptr, owner_.Get());
  --num_annotations_;
  return util::Status::OK();
}

const Annotation* AnnotationStore::Get(AnnotationId id) const {
  const Record* record = RecordOf(id);
  return record == nullptr ? nullptr : &record->ann;
}

const Referent* AnnotationStore::GetReferent(ReferentId id) const {
  const Referent& ref = referents_[id].get();
  return ref.id == 0 ? nullptr : &ref;
}

std::vector<AnnotationId> AnnotationStore::Ids() const {
  std::vector<AnnotationId> out;
  out.reserve(num_annotations_);
  ForEachAnnotation([&](AnnotationId id, const Annotation&) { out.push_back(id); });
  return out;
}

std::vector<ReferentId> AnnotationStore::ReferentIds() const {
  std::vector<ReferentId> out;
  out.reserve(num_referents_);
  ForEachReferent([&](ReferentId id, const Referent&) { out.push_back(id); });
  return out;
}

void AnnotationStore::ForEachAnnotation(
    const std::function<void(AnnotationId, const Annotation&)>& fn) const {
  annotations_.ForEachRun([&](size_t first, const RecordPtr* run, size_t n) {
    for (size_t k = 0; k < n; ++k) {
      if (run[k] != nullptr) fn(first + k, run[k]->ann);
    }
  });
}

void AnnotationStore::ForEachReferent(
    const std::function<void(ReferentId, const Referent&)>& fn) const {
  referents_.ForEachRun([&](size_t first, const util::CowBox<Referent>* run, size_t n) {
    for (size_t k = 0; k < n; ++k) {
      if (run[k].get().id != 0) fn(first + k, run[k].get());
    }
  });
}

void AnnotationStore::ForEachReferentInDomain(
    std::string_view domain,
    const std::function<void(ReferentId, const Referent&)>& fn) const {
  const DomainList* dom = referents_by_domain_.Find(domain);
  if (dom == nullptr) return;
  dom->ids.ForEachRun([&](size_t, const ReferentId* run, size_t n) {
    for (size_t k = 0; k < n; ++k) {
      const Referent& ref = referents_[run[k]].get();
      if (ref.id != 0) fn(run[k], ref);
    }
  });
}

std::vector<AnnotationId> AnnotationStore::AnnotationsOfReferent(ReferentId id) const {
  std::vector<AnnotationId> out;
  for (const agraph::NodeRef& n : graph_->Neighbors(ReferentNode(id))) {
    if (n.kind == agraph::NodeKind::kContent) out.push_back(n.id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

util::Result<ReferentId> AnnotationStore::FindReferent(
    const substructure::Substructure& sub) const {
  std::string key = sub.ToString();
  const ReferentId* rid = referent_by_key_.Find(key);
  if (rid == nullptr) {
    return util::Status::NotFound("no referent for " + key);
  }
  return *rid;
}

size_t AnnotationStore::TokenizeForIndex(const Annotation& ann, std::string* text_buf,
                                         std::vector<std::string_view>* words) {
  std::string& text = *text_buf;
  text.clear();
  // The content document's text nodes are exactly the annotation's field
  // values in build order — dc fields, body, user-tag values (content
  // always round-trips BuildContentXml; see CommitBatch's prebuilt-content
  // contract) — so the search text is assembled from the contiguous struct
  // fields instead of a pointer-chasing DOM walk. Semantics match
  // CollectTextSeparated over the built DOM, including the empty-tag-value
  // separator case.
  ann.dc.AppendValuesSeparated(&text);
  if (!ann.body.empty()) {
    if (!text.empty()) text.push_back(' ');
    text.append(ann.body);
  }
  for (const auto& [k, v] : ann.user_tags) {
    (void)k;
    if (!text.empty()) text.push_back(' ');
    text.append(v);
  }
  // One lower-casing pass over the content, in place; the buffer then
  // serves both the phrase cache (the commit paths copy the content
  // prefix into the record) and tokenization (TokenizeWordViews does no
  // case folding of its own).
  for (char& c : text) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  const size_t content_len = text.size();
  for (const auto& [k, v] : ann.user_tags) {
    text += ' ';
    text += k;
  }
  for (const OntologyRef& oref : ann.ontology_refs) {
    text += ' ';
    text += oref.ontology;
    text += ' ';
    text += oref.term;
  }
  for (size_t i = content_len; i < text.size(); ++i) {
    text[i] = static_cast<char>(std::tolower(static_cast<unsigned char>(text[i])));
  }
  words->clear();
  util::TokenizeWordViews(text, words);
  std::sort(words->begin(), words->end());
  words->erase(std::unique(words->begin(), words->end()), words->end());
  return content_len;
}

uint32_t AnnotationStore::InternToken(std::string_view w, util::EditToken token) {
  if (const uint32_t* tid = token_ids_.Find(w)) return *tid;
  const uint32_t tid = static_cast<uint32_t>(token_strings_.size());
  token_ids_.Assign(w, tid, token);
  token_strings_.push_back(std::string(w), token);
  postings_.push_back({}, token);
  return tid;
}

std::string AnnotationStore::IndexContentText(AnnotationId id, const Annotation& ann) {
  const util::EditToken t = owner_.Get();
  std::string text_buf;
  std::vector<std::string_view> words;
  size_t content_len = TokenizeForIndex(ann, &text_buf, &words);
  for (std::string_view w : words) {
    Posting& posting = postings_.Mutable(InternToken(w, t), t);
    // Ids normally arrive ascending; forced ids (persistence replay) may
    // not, so keep the posting sorted either way.
    if (posting.empty() || posting[posting.size() - 1] < id) {
      posting.push_back(id, t);
    } else {
      std::vector<AnnotationId> ids = ToVector(posting);
      ids.insert(std::upper_bound(ids.begin(), ids.end(), id), id);
      posting = FromVector(ids, t);
    }
  }
  // Phrase search matches the serialized content only (not tags/terms),
  // case-insensitively; the record caches the lower-cased form.
  text_buf.resize(content_len);
  return text_buf;
}

void AnnotationStore::UnindexContentText(AnnotationId id, const Annotation& ann) {
  // Tokens are recomputed from the annotation's fields — the same
  // deterministic derivation commit used — instead of being materialized
  // per annotation at ingest: removal is rare, ingest is hot, and the
  // per-annotation token vectors were pure ingest overhead.
  const util::EditToken t = owner_.Get();
  std::string text_buf;
  std::vector<std::string_view> words;
  TokenizeForIndex(ann, &text_buf, &words);
  for (std::string_view w : words) {
    const uint32_t* tid = token_ids_.Find(w);
    if (tid == nullptr) continue;
    const size_t pos = LowerBound(postings_[*tid], id);
    if (pos == postings_[*tid].size() || postings_[*tid][pos] != id) continue;
    postings_.Mutable(*tid, t).EraseAt(pos, t);
  }
}

std::vector<AnnotationId> AnnotationStore::SearchKeyword(std::string_view word) const {
  std::vector<std::string> tokens = util::TokenizeWords(word);
  if (tokens.size() != 1) return SearchAllKeywords(tokens);
  const uint32_t* tid = token_ids_.Find(tokens[0]);
  return tid == nullptr ? std::vector<AnnotationId>{} : ToVector(postings_[*tid]);
}

std::vector<AnnotationId> AnnotationStore::SearchAllKeywords(
    const std::vector<std::string>& words) const {
  // Resolve every word to its posting list up front. A word tokenizing to
  // several tokens requires all of them (phrase-less AND semantics, as
  // before); a word with no tokens or an unindexed token matches nothing.
  std::vector<const Posting*> lists;
  if (words.empty()) return {};
  for (const std::string& w : words) {
    std::vector<std::string> tokens = util::TokenizeWords(w);
    if (tokens.empty()) return {};
    for (const std::string& t : tokens) {
      const uint32_t* tid = token_ids_.Find(t);
      if (tid == nullptr) return {};
      lists.push_back(&postings_[*tid]);
    }
  }
  std::sort(lists.begin(), lists.end());
  lists.erase(std::unique(lists.begin(), lists.end()), lists.end());
  // Intersect in ascending posting-size order: every later intersection runs
  // against a result no larger than the rarest list, and galloping makes
  // rare-against-common cost logarithmic in the common list's size.
  std::sort(lists.begin(), lists.end(),
            [](const Posting* a, const Posting* b) { return a->size() < b->size(); });
  std::vector<AnnotationId> acc = ToVector(*lists.front());
  for (size_t i = 1; i < lists.size() && !acc.empty(); ++i) IntersectWith(*lists[i], &acc);
  return acc;
}

std::vector<AnnotationId> AnnotationStore::SearchPhrase(std::string_view phrase) const {
  std::vector<std::string> tokens = util::TokenizeWords(phrase);
  std::vector<AnnotationId> candidates;
  if (tokens.empty()) {
    candidates = Ids();
  } else {
    candidates = SearchAllKeywords(tokens);
  }
  std::string lower_phrase = util::ToLower(phrase);
  // The substring verification below is required even for single-word
  // phrases: posting lists also index user-tag keys and ontology terms,
  // which are not part of the serialized content this search matches.
  std::vector<AnnotationId> out;
  for (AnnotationId id : candidates) {
    const Record* record = RecordOf(id);
    if (record != nullptr && record->lower_text.find(lower_phrase) != std::string::npos) {
      out.push_back(id);
    }
  }
  return out;
}

std::vector<const xml::XmlDocument*> AnnotationStore::Collection() const {
  std::vector<const xml::XmlDocument*> out;
  out.reserve(num_annotations_);
  ForEachAnnotation([&](AnnotationId, const Annotation& ann) { out.push_back(&ContentOf(ann)); });
  return out;
}

const xml::XmlDocument& AnnotationStore::ContentOf(const Annotation& ann) const {
  const Record* record = RecordOf(ann.id);
  // Fast path: a record that is not cold has an immutable hot DOM. While
  // `cold` is set, ann.content may be written by a concurrent hydration,
  // so access goes through the hydration mutex.
  if (record == nullptr || !record->cold.load(std::memory_order_acquire)) return ann.content;
  util::MutexLock lock(HydrationMutex());
  if (!record->cold.load(std::memory_order_relaxed)) return ann.content;  // a racer won
  util::Result<xml::XmlDocument> doc = xml::ParseXml(record->cold_xml);
  // The bytes were serialized by our own snapshot writer and CRC-verified;
  // a parse failure is unreachable short of a logic bug, in which case the
  // annotation degrades to content-less rather than crashing a recovery.
  if (doc.ok()) record->ann.content = std::move(*doc);
  std::string().swap(record->cold_xml);
  record->cold.store(false, std::memory_order_release);
  return ann.content;
}

std::string AnnotationStore::ContentXml(const Annotation& ann) const {
  const Record* record = RecordOf(ann.id);
  if (record != nullptr && record->cold.load(std::memory_order_acquire)) {
    util::MutexLock lock(HydrationMutex());
    // Still cold: the stored bytes verbatim, no parse + re-serialize
    // round-trip (this is what makes snapshot-of-a-restored-engine
    // byte-stable).
    if (record->cold.load(std::memory_order_relaxed)) return record->cold_xml;
    // Hydrated under this mutex by some earlier holder; the DOM is
    // immutable from then on, so serializing after unlock is safe.
  }
  return ann.content.ToString(false);
}

bool AnnotationStore::HasContent(const Annotation& ann) const {
  const Record* record = RecordOf(ann.id);
  if (record == nullptr || !record->cold.load(std::memory_order_acquire)) {
    return !ann.content.empty();
  }
  return true;  // cold bytes are present until hydration swaps them in
}

std::string_view AnnotationStore::LowerTextOf(AnnotationId id) const {
  const Record* record = RecordOf(id);
  return record == nullptr ? std::string_view() : std::string_view(record->lower_text);
}

util::Result<std::vector<AnnotationId>> AnnotationStore::XQuerySearch(
    std::string_view flwor) const {
  GRAPHITTI_ASSIGN_OR_RETURN(xml::XQuery query, xml::XQuery::Compile(flwor));
  std::vector<const xml::XmlDocument*> docs = Collection();
  std::vector<AnnotationId> doc_ids = Ids();

  std::vector<AnnotationId> out;
  for (const xml::XQueryRow& row : query.Execute(docs)) {
    out.push_back(doc_ids[row.document_index]);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

util::Status AnnotationStore::RestoreSnapshotState(
    std::vector<RestoredReferent> referents, std::vector<RestoredAnnotation> annotations,
    RestoredKeywordIndex keyword_index, std::vector<std::string> term_names,
    uint64_t next_annotation_id, uint64_t next_referent_id) {
  if (num_annotations_ != 0 || num_referents_ != 0 || !postings_.empty() ||
      !term_names_.empty()) {
    return util::Status::Internal("RestoreSnapshotState requires an empty store");
  }
  if (keyword_index.tokens.size() != keyword_index.postings.size()) {
    return util::Status::Internal("snapshot keyword index tokens/postings length mismatch");
  }

  // Term ids are dense and 1-based; the maps restore up front, but each
  // term's a-graph NODE is created lazily at its first referencing edge
  // below — the same order the original commits produced, so the graph
  // round-trips node for node.
  const util::EditToken t = owner_.Get();
  for (size_t i = 0; i < term_names.size(); ++i) {
    term_node_ids_.Assign(term_names[i], i + 1, t);
    term_names_.push_back(std::move(term_names[i]), t);
  }

  // Referents: table + dedup key + domain index now, spatial entries
  // staged for one bulk tree build per domain (the same pipeline as
  // CommitBatch). A-graph referent nodes are created lazily at first use.
  BatchStaging staging;
  // Per-referent facts the annotation loop below needs — the restored
  // Referent's address, its dedup key (reused as the a-graph node label so
  // Substructure::ToString runs once per referent, not twice) and the
  // of-object edge flag — collected in one hash map so that loop does one
  // lookup per reference instead of an rb-tree find plus a re-serialize.
  struct RefAux {
    uint64_t object_id;
    std::string key;
    bool object_edge;
  };
  std::unordered_map<ReferentId, RefAux> ref_aux;
  ref_aux.reserve(referents.size());
  uint64_t prev_rid = 0;
  for (RestoredReferent& rr : referents) {
    if (rr.ref.id <= prev_rid) {
      return util::Status::Internal("snapshot referents not ascending by id");
    }
    prev_rid = rr.ref.id;
    const ReferentId rid = rr.ref.id;
    Referent& ref = MutableReferent(rid, t);
    ref = std::move(rr.ref);
    ++num_referents_;
    const substructure::Substructure& sub = ref.substructure;
    switch (sub.type()) {
      case substructure::SubType::kInterval:
        staging.intervals[sub.domain()].push_back({sub.interval(), ref.id});
        break;
      case substructure::SubType::kRegion: {
        GRAPHITTI_ASSIGN_OR_RETURN(
            auto canonical,
            indexes_->coordinate_systems().ToCanonical(sub.domain(), sub.rect()));
        staging.regions[canonical.first].push_back({canonical.second, ref.id});
        break;
      }
      default:
        break;
    }
    DomainList& dom = referents_by_domain_.Mutable(sub.domain(), t);
    dom.ids.push_back(rid, t);
    ++dom.live;
    std::string key = sub.ToString();
    referent_by_key_.Assign(key, rid, t);
    ref_aux.emplace(rid, RefAux{ref.object_id, std::move(key), rr.object_edge});
  }
  for (auto& [domain, entries] : staging.intervals) {
    GRAPHITTI_RETURN_NOT_OK(indexes_->BulkLoadIntervals(domain, std::move(entries)));
  }
  for (auto& [system, entries] : staging.regions) {
    GRAPHITTI_RETURN_NOT_OK(indexes_->BulkLoadRegions(system, std::move(entries)));
  }

  // Keyword index: token strings intern in dense-id order and posting
  // lists adopt verbatim — no document is tokenized at restore time.
  for (size_t i = 0; i < keyword_index.tokens.size(); ++i) {
    uint32_t tid = InternToken(keyword_index.tokens[i], t);
    if (tid != i) {
      return util::Status::Internal("snapshot keyword index has a duplicate token");
    }
    postings_.Set(tid, FromVector(keyword_index.postings[i], t), t);
  }

  // Annotations: metadata hot, content cold, a-graph wired in commit
  // order (content node; per first-use referent: referent node, then its
  // of-object edge, then the annotates edge; then term edges).
  const uint32_t annotates_label = graph_->InternEdgeLabel(kEdgeAnnotates);
  const uint32_t refers_to_label = graph_->InternEdgeLabel(kEdgeRefersTo);
  uint64_t prev_aid = 0;
  for (RestoredAnnotation& ra : annotations) {
    Annotation& ann = ra.ann;
    const AnnotationId id = ann.id;
    if (id <= prev_aid) {
      return util::Status::Internal("snapshot annotations not ascending by id");
    }
    prev_aid = id;
    const uint32_t content_idx = graph_->EnsureNodeIndex(
        ContentNode(id), ann.dc.title.empty() ? ("annotation-" + std::to_string(id))
                                              : ann.dc.title);
    for (ReferentId rid : ann.referents) {
      auto rit = ref_aux.find(rid);
      if (rit == ref_aux.end()) {
        return util::Status::Internal("snapshot annotation " + std::to_string(id) +
                                      " references unknown referent " + std::to_string(rid));
      }
      const RefAux& aux = rit->second;
      agraph::NodeRef rnode = ReferentNode(rid);
      uint32_t ref_idx;
      if (!graph_->HasNode(rnode)) {
        ref_idx = graph_->EnsureNodeIndex(rnode, aux.key);
        if (aux.object_id != 0 && aux.object_edge) {
          agraph::NodeRef object_node = agraph::NodeRef::Object(aux.object_id);
          graph_->EnsureNode(object_node);
          (void)graph_->AddEdge(rnode, object_node, kEdgeOfObject);
        }
      } else {
        ref_idx = graph_->EnsureNodeIndex(rnode);
      }
      graph_->AddEdgeIndexed(content_idx, ref_idx, annotates_label);
    }
    for (const OntologyRef& oref : ann.ontology_refs) {
      std::string qualified = oref.Qualified();
      const uint64_t* term_id = term_node_ids_.Find(qualified);
      if (term_id == nullptr) {
        return util::Status::Internal("snapshot annotation " + std::to_string(id) +
                                      " references unknown term '" + qualified + "'");
      }
      agraph::NodeRef tnode = agraph::NodeRef::Term(*term_id);
      if (!graph_->HasNode(tnode)) graph_->EnsureNode(tnode, qualified);
      graph_->AddEdgeIndexed(content_idx, graph_->EnsureNodeIndex(tnode), refers_to_label);
    }
    auto record = std::make_shared<Record>();
    record->ann = std::move(ann);
    record->lower_text = std::move(ra.lower_text);
    record->cold_xml = std::move(ra.content_xml);
    record->cold.store(true, std::memory_order_relaxed);
    annotations_.Set(id, std::move(record), t);
    ++num_annotations_;
  }

  // Terms whose every referencing annotation was later removed keep their
  // (edge-less) node in the original graph; recreate those too, appended
  // after everything else.
  for (size_t i = 0; i < term_names_.size(); ++i) {
    agraph::NodeRef tnode = agraph::NodeRef::Term(i + 1);
    if (!graph_->HasNode(tnode)) graph_->EnsureNode(tnode, term_names_[i]);
  }

  next_annotation_id_ = next_annotation_id;
  next_referent_id_ = next_referent_id;
  return util::Status::OK();
}

agraph::NodeRef AnnotationStore::TermNode(const std::string& qualified) {
  if (const uint64_t* id = term_node_ids_.Find(qualified)) {
    return agraph::NodeRef::Term(*id);
  }
  const util::EditToken t = owner_.Get();
  uint64_t id = term_names_.size() + 1;  // ids are 1-based
  term_names_.push_back(qualified, t);
  term_node_ids_.Assign(qualified, id, t);
  agraph::NodeRef node = agraph::NodeRef::Term(id);
  graph_->EnsureNode(node, qualified);
  return node;
}

util::Result<agraph::NodeRef> AnnotationStore::FindTermNode(
    const std::string& qualified) const {
  const uint64_t* id = term_node_ids_.Find(qualified);
  if (id == nullptr) {
    return util::Status::NotFound("term '" + qualified + "' was never referenced");
  }
  return agraph::NodeRef::Term(*id);
}

std::string AnnotationStore::TermName(agraph::NodeRef ref) const {
  if (ref.kind != agraph::NodeKind::kOntologyTerm || ref.id == 0 ||
      ref.id > term_names_.size()) {
    return "";
  }
  return term_names_[ref.id - 1];
}

std::unique_ptr<AnnotationStore> AnnotationStore::Clone(
    spatial::IndexManager* indexes, agraph::AGraph* graph) const {
  // Copying shares every chunk and record and revokes this store's edit
  // token, so neither side edits what the other can see.
  std::unique_ptr<AnnotationStore> copy(new AnnotationStore(*this));
  copy->indexes_ = indexes;
  copy->graph_ = graph;
  return copy;
}

}  // namespace annotation
}  // namespace graphitti
