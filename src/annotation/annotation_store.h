// AnnotationStore: the commit pipeline and search surface over annotations.
//
// Commit wires the three §II structures together:
//   1. the content XML joins the document collection (searchable via
//      keyword index, XPath and XQuery),
//   2. each marked substructure becomes (or reuses) a Referent and is
//      inserted into the shared interval-tree/R-tree indexes,
//   3. content/referent/term/object nodes and labeled edges are added to
//      the a-graph.
//
// The store is a persistent value (util/persistent.h): annotation and
// referent slots are id-indexed chunked vectors of shared immutable
// records, postings are one chunked list per token, and the key, domain
// and term maps are hash tries. Clone() shares all of it; a commit copies
// only the chunks and records it touches.
//
// Thread-safety: the store performs no synchronization of its own; the
// owning core::Graphitti mutates only unpublished versions, so const
// methods run against a frozen store. ALL read-acceleration state is built
// eagerly at commit time — keyword postings, the per-annotation lowercase
// text that phrase search scans, the per-domain referent index — so no
// const search method ever writes, except the lazy parse of cold snapshot
// content, which happens once per shared record under a process-wide
// hydration mutex.
#ifndef GRAPHITTI_ANNOTATION_ANNOTATION_STORE_H_
#define GRAPHITTI_ANNOTATION_ANNOTATION_STORE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "agraph/agraph.h"
#include "annotation/annotation.h"
#include "spatial/index_manager.h"
#include "util/persistent.h"
#include "util/result.h"

namespace graphitti {
namespace annotation {

/// Edge labels the store writes into the a-graph.
inline constexpr std::string_view kEdgeAnnotates = "annotates";      // content -> referent
inline constexpr std::string_view kEdgeRefersTo = "refers-to";       // content -> term
inline constexpr std::string_view kEdgeOfObject = "of-object";       // referent -> object

class AnnotationStore {
 public:
  /// The store borrows the index manager and a-graph owned by the Graphitti
  /// instance; both must outlive it.
  AnnotationStore(spatial::IndexManager* indexes, agraph::AGraph* graph);

  AnnotationStore& operator=(const AnnotationStore&) = delete;

  /// A copy sharing every chunk and record with this store (O(1)); the
  /// clone borrows `indexes`/`graph` (the *clone's* counterparts, not this
  /// store's). Safe to call while reader threads hydrate cold content on
  /// this store concurrently — hydration fills the shared records, which
  /// both stores then see.
  std::unique_ptr<AnnotationStore> Clone(spatial::IndexManager* indexes,
                                         agraph::AGraph* graph) const;

  // --- Commit / remove ---

  /// Commits a built annotation: assigns ids, materializes the XML, indexes
  /// substructures (deduplicating identical marks into shared referents),
  /// and extends the a-graph. Errors are validated up front (invalid marks,
  /// unknown coordinate systems); a failure that can only surface mid-way
  /// through the marks loop (e.g. a region whose rect dims mismatch its
  /// registered coordinate system) rolls back the referents and content
  /// node staged for this annotation, so a failed Commit never leaves the
  /// store half-mutated. `forced_id` (non-zero) preserves a persisted id;
  /// it must not collide with an existing annotation.
  util::Result<AnnotationId> Commit(const AnnotationBuilder& builder,
                                    AnnotationId forced_id = 0);

  /// Commits a batch of annotations through the bulk pipeline. Every
  /// builder is validated up front — marks, coordinate systems (including
  /// rect-dims canonicalization), forced-id collisions against the store
  /// and within the batch — before any state changes, so a bad builder
  /// rejects the whole batch with the store untouched (all-or-nothing,
  /// unlike a loop of Commit which stops at the first failure). Referent
  /// interning then stages spatial insertion into per-domain interval and
  /// per-canonical-system region accumulators that flush through
  /// IndexManager::BulkLoadIntervals / BulkLoadRegions (one tree build per
  /// touched domain); keyword postings append in one pass (ids ascend, so
  /// appends are already sorted) with per-touched-token sortedness repair
  /// at flush for out-of-order forced ids; a-graph node capacity is
  /// reserved from batch totals and edges wire by dense index. On
  /// success, observable state (assigned ids, query answers, a-graph
  /// shape, integrity) is identical to committing the builders one by one.
  /// `forced_ids`, when non-empty, must have one entry per builder
  /// (0 = assign fresh) — the persistence-reload path.
  ///
  /// `prebuilt_contents`, when non-null, must have one document per
  /// builder; a non-empty document is *consumed* (moved, id attribute
  /// restamped) as that annotation's content instead of re-serializing the
  /// builder through BuildContentXml — the reload fast path, where the
  /// content was just parsed from disk. An empty document falls back to
  /// BuildContentXml. Callers must pass documents that round-trip to the
  /// builder (FromContentXml(doc) == builder), or stored content and
  /// search text will disagree with the per-commit path.
  util::Result<std::vector<AnnotationId>> CommitBatch(
      const std::vector<AnnotationBuilder>& builders,
      const std::vector<AnnotationId>& forced_ids = {},
      std::vector<xml::XmlDocument>* prebuilt_contents = nullptr);

  /// Consuming overload: identical observable semantics, but each
  /// annotation's metadata (Dublin Core fields, body, user tags, ontology
  /// refs) is moved out of its builder instead of copied — for callers
  /// that discard the builders afterwards, like persistence reload.
  util::Result<std::vector<AnnotationId>> CommitBatch(
      std::vector<AnnotationBuilder>&& builders,
      const std::vector<AnnotationId>& forced_ids = {},
      std::vector<xml::XmlDocument>* prebuilt_contents = nullptr);

  /// Removes an annotation; referents drop a refcount and disappear from
  /// spatial indexes and the a-graph when orphaned.
  util::Status Remove(AnnotationId id);

  // --- Lookup ---
  const Annotation* Get(AnnotationId id) const;
  const Referent* GetReferent(ReferentId id) const;
  size_t size() const { return num_annotations_; }
  size_t num_referents() const { return num_referents_; }

  /// All annotation ids, ascending.
  std::vector<AnnotationId> Ids() const;

  /// All referent ids, ascending.
  std::vector<ReferentId> ReferentIds() const;

  // --- Streaming enumeration (the query executor's candidate feeds) ---
  //
  // These visit store entries in ascending-id order without materializing an
  // id vector and with direct access to the entry, so a filtering consumer
  // pays no per-id lookup.

  /// Visits every annotation in ascending id order.
  void ForEachAnnotation(
      const std::function<void(AnnotationId, const Annotation&)>& fn) const;

  /// Visits every referent in ascending id order.
  void ForEachReferent(
      const std::function<void(ReferentId, const Referent&)>& fn) const;

  /// Visits the referents whose substructure domain equals `domain`, in
  /// ascending id order. Index-backed: O(|referents in domain|), not
  /// O(|all referents|) — the fast path for DOMAIN-filtered subqueries.
  void ForEachReferentInDomain(
      std::string_view domain,
      const std::function<void(ReferentId, const Referent&)>& fn) const;

  /// Annotations referencing the given referent.
  std::vector<AnnotationId> AnnotationsOfReferent(ReferentId id) const;

  /// Referent whose substructure equals `sub`, if any.
  util::Result<ReferentId> FindReferent(const substructure::Substructure& sub) const;

  // --- Content search ---

  /// Annotations whose content contains `word` (keyword inverted index;
  /// case-insensitive, alphanumeric tokenization).
  std::vector<AnnotationId> SearchKeyword(std::string_view word) const;

  /// Annotations containing all of `words`.
  std::vector<AnnotationId> SearchAllKeywords(const std::vector<std::string>& words) const;

  /// Substring search over serialized content, accelerated by the keyword
  /// index when the phrase tokenizes to at least one word.
  std::vector<AnnotationId> SearchPhrase(std::string_view phrase) const;

  /// The XML collection view for XQuery ("collection()"). Hydrates any
  /// still-cold documents (see ContentOf).
  std::vector<const xml::XmlDocument*> Collection() const;

  // --- Content access (lazy hydration) ---
  //
  // After a binary-snapshot restore, annotation content arrives as
  // serialized XML bytes parked in the annotation's shared record; the DOM
  // is parsed on first access instead of at load time (parsing 50k
  // documents dominates restart cost), once per record for every version
  // sharing it. These accessors are the only sanctioned way to read
  // Annotation::content — they are safe from concurrent readers, and for a
  // record that was never cold the fast path is one atomic load.

  /// The annotation's content DOM, hydrating it from the cold bytes first
  /// if needed. The returned reference lives as long as the annotation.
  const xml::XmlDocument& ContentOf(const Annotation& ann) const;

  /// The serialized content (ToString(false) form) WITHOUT hydrating:
  /// returns the cold bytes verbatim when present, else serializes the hot
  /// DOM. Byte-exact across snapshot round-trips.
  std::string ContentXml(const Annotation& ann) const;

  /// Whether the annotation has any content (hot or cold) — the integrity
  /// check's replacement for `!ann.content.empty()`.
  bool HasContent(const Annotation& ann) const;

  // --- Snapshot restore ---

  /// One referent as decoded from a snapshot.
  struct RestoredReferent {
    Referent ref;
    /// Whether the a-graph had a referent->object "of-object" edge (absent
    /// when a later commit adopted the object id without re-marking).
    bool object_edge = false;
  };

  /// One annotation as decoded from a snapshot: metadata hot, content cold.
  struct RestoredAnnotation {
    Annotation ann;           // content left empty
    std::string content_xml;  // serialized content, hydrated on demand
    std::string lower_text;   // pre-lowered content text for phrase search
  };

  /// The keyword index as decoded from a snapshot: token strings in dense
  /// id order with their ascending posting lists. Restoring this verbatim
  /// skips re-tokenizing every document at load time.
  struct RestoredKeywordIndex {
    std::vector<std::string> tokens;
    std::vector<std::vector<AnnotationId>> postings;
  };

  /// Rebuilds the full store state from decoded snapshot sections. The
  /// store must be empty; `referents` and `annotations` must be ascending
  /// by id; object nodes referenced by referents must already exist in the
  /// a-graph (core::Graphitti restores objects first). Spatial entries are
  /// bulk-loaded per domain; a-graph nodes/edges are wired in the same
  /// order the original commits produced, so ExportAGraph of a restored
  /// engine matches the saved one line for line.
  util::Status RestoreSnapshotState(std::vector<RestoredReferent> referents,
                                    std::vector<RestoredAnnotation> annotations,
                                    RestoredKeywordIndex keyword_index,
                                    std::vector<std::string> term_names,
                                    uint64_t next_annotation_id,
                                    uint64_t next_referent_id);

  // --- Snapshot encode accessors (core/durability.cc) ---
  size_t NumTerms() const { return term_names_.size(); }
  const std::string& TermNameAt(size_t i) const { return term_names_[i]; }
  size_t NumTokens() const { return postings_.size(); }
  std::string_view TokenString(uint32_t token_id) const { return token_strings_[token_id]; }
  const util::ChunkedVector<AnnotationId>& PostingsOf(uint32_t token_id) const {
    return postings_[token_id];
  }
  std::string_view LowerTextOf(AnnotationId id) const;
  uint64_t next_annotation_id() const { return next_annotation_id_; }
  uint64_t next_referent_id() const { return next_referent_id_; }

  /// Runs a compiled-on-the-fly XQuery over the collection; returns matching
  /// annotation ids (document order).
  util::Result<std::vector<AnnotationId>> XQuerySearch(std::string_view flwor) const;

  // --- Ontology term nodes ---

  /// Stable a-graph NodeRef for a qualified ontology term ("onto:term");
  /// creates the node on first use.
  agraph::NodeRef TermNode(const std::string& qualified);
  /// Lookup without creation; NotFound when the term was never referenced.
  util::Result<agraph::NodeRef> FindTermNode(const std::string& qualified) const;
  /// Reverse lookup; empty when the node id is unknown.
  std::string TermName(agraph::NodeRef ref) const;

  // --- a-graph node helpers ---
  static agraph::NodeRef ContentNode(AnnotationId id) {
    return agraph::NodeRef::Content(id);
  }
  static agraph::NodeRef ReferentNode(ReferentId id) {
    return agraph::NodeRef::Referent(id);
  }

 private:
  /// One committed annotation, shared by every version that holds it and
  /// never modified after commit — except the one-time parse of cold
  /// snapshot content, guarded by the process-wide hydration mutex while
  /// `cold` is set.
  struct Record {
    Annotation ann;          // content empty while cold
    std::string lower_text;  // lower-cased content text (phrase search)
    mutable std::atomic<bool> cold{false};
    mutable std::string cold_xml;
  };
  using RecordPtr = std::shared_ptr<const Record>;

  /// Ascending referent ids of one domain. Removal leaves dead ids behind
  /// (ids are never reused) until they outnumber the live ones.
  struct DomainList {
    util::ChunkedVector<ReferentId> ids;
    size_t live = 0;
  };

  AnnotationStore(const AnnotationStore&) = default;

  const Record* RecordOf(AnnotationId id) const { return annotations_[id].get(); }
  void PutAnnotation(Annotation ann, std::string lower_text, util::EditToken token);
  Referent& MutableReferent(ReferentId id, util::EditToken token) {
    return referents_.Mutable(id, token).Mutable(token);
  }

  /// Undo log for one Commit's marks loop: shared referents whose object
  /// id the commit adopted (had none before), and object nodes the commit
  /// created in the a-graph — restored/removed if a later mark fails, so a
  /// failed Commit leaves no trace.
  struct MarkUndo {
    std::vector<ReferentId> adoptions;
    std::vector<agraph::NodeRef> created_object_nodes;
  };

  /// Deferred spatial insertions for one CommitBatch: interval entries per
  /// 1D domain and canonical-frame region entries per canonical system,
  /// flushed through the IndexManager bulk builds after staging.
  /// Flush order across domains is independent (one tree per domain), so
  /// hashed maps are fine — and cheaper, as these are probed once per mark.
  struct BatchStaging {
    std::unordered_map<std::string, std::vector<spatial::IntervalEntry>> intervals;
    std::unordered_map<std::string, std::vector<spatial::RTreeEntry>> regions;
  };

  /// Shared CommitBatch engine. `consume` is true only for the rvalue
  /// overload, which owns the builders and may steal their metadata.
  util::Result<std::vector<AnnotationId>> CommitBatchImpl(
      const std::vector<AnnotationBuilder>& builders,
      const std::vector<AnnotationId>& forced_ids,
      std::vector<xml::XmlDocument>* prebuilt_contents, bool consume);

  /// Tokenizes `ann`'s search text (content text, user-tag keys, ontology
  /// terms) into `words` — sorted, deduplicated views into `text_buf` —
  /// and returns the length of the lowered *content* prefix in `text_buf`
  /// (what the commit paths copy into lower_text_; this function itself
  /// mutates no store state, so the removal path reuses it freely). Both
  /// out-params are caller-owned scratch, reusable across calls (a batch
  /// tokenizes thousands of annotations with two allocations total); the
  /// views die with the next reuse of `text_buf`.
  size_t TokenizeForIndex(const Annotation& ann, std::string* text_buf,
                          std::vector<std::string_view>* words);
  /// Token id for `w`, interning it (with an empty posting list) on first
  /// sight.
  uint32_t InternToken(std::string_view w, util::EditToken token);
  /// Posts `ann`'s tokens and returns its lower-cased content text.
  std::string IndexContentText(AnnotationId id, const Annotation& ann);
  /// Drops `ann`'s postings by re-deriving its token set from the stored
  /// fields (the same deterministic derivation IndexContentText used), so
  /// ingest never materializes per-annotation token vectors.
  void UnindexContentText(AnnotationId id, const Annotation& ann);
  /// Interns (or refcounts) the referent for `sub`. With `staging` null,
  /// spatial kinds are inserted into the shared index immediately
  /// (per-commit path); with `staging` set, the index entry is accumulated
  /// for a later bulk flush instead (batch path).
  /// `node_index`, when non-null, receives the referent's a-graph dense
  /// index so batch callers can wire edges without re-hashing the ref
  /// (valid only until the next node removal). `undo`, when non-null,
  /// collects the side effects a failing commit must reverse (object-id
  /// adoptions, object nodes created).
  util::Result<ReferentId> InternReferent(const substructure::Substructure& sub,
                                          uint64_t object_id,
                                          BatchStaging* staging = nullptr,
                                          uint32_t* node_index = nullptr,
                                          MarkUndo* undo = nullptr);
  /// Removes one reference to `id`, erasing the referent entirely at zero.
  void ReleaseReferent(ReferentId id);

  spatial::IndexManager* indexes_;  // borrowed
  agraph::AGraph* graph_;           // borrowed

  util::EditOwner owner_;
  util::ChunkedVector<RecordPtr> annotations_;  // by id; null = absent
  size_t num_annotations_ = 0;
  util::ChunkedVector<util::CowBox<Referent>> referents_;  // by id; id 0 = absent
  size_t num_referents_ = 0;
  // Substructure::ToString() key -> referent (exact lookup only).
  util::HashTrie<std::string, ReferentId, util::StringKeyHash> referent_by_key_;
  // Domain -> its referents. Drives ForEachReferentInDomain.
  util::HashTrie<std::string, DomainList, util::StringKeyHash> referents_by_domain_;

  // Keyword inverted index with interned tokens: token string -> dense token
  // id; postings_[token id] is the ascending posting list of annotations
  // containing the token. Removal re-derives an annotation's token set from
  // its stored fields (see UnindexContentText), so ingest stores no
  // per-annotation token vectors.
  util::HashTrie<std::string, uint32_t, util::StringKeyHash> token_ids_;
  util::ChunkedVector<std::string> token_strings_;
  util::ChunkedVector<util::ChunkedVector<AnnotationId>> postings_;

  util::HashTrie<std::string, uint64_t, util::StringKeyHash> term_node_ids_;
  util::ChunkedVector<std::string> term_names_;  // dense id - 1 -> qualified name

  uint64_t next_annotation_id_ = 1;
  uint64_t next_referent_id_ = 1;
};

}  // namespace annotation
}  // namespace graphitti

#endif  // GRAPHITTI_ANNOTATION_ANNOTATION_STORE_H_
