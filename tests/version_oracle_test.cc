// Differential version oracle: drives fixed-seed random sequences of
// engine mutations (Commit, CommitBatch above and below 64 builders,
// RemoveAnnotation, IngestDnaSequence / IngestRecord, and an unversioned
// escape-hatch commit straight into the current version's store) against
// a naive reference model — plain vectors, linear scans, brute-force
// keyword and interval matching — and requires:
//
//   1. result-set equality with the model after every step (keyword,
//      interval-window, referent and count queries, plus Stats()), and
//   2. snapshot stability: every QueryResult the test holds keeps its
//      items, and every page it flips — including pages flipped for the
//      first time many commits later — bit-identical to what the same
//      query produced at the moment it was held.
//
// Check 2 is the one that catches a version that shares structure with
// its successors and gets mutated in place: a held GRAPH result whose
// pages are materialized late runs Connect against its pinned a-graph, so
// any commit that altered a node, edge list or dense index the pinned
// version still reads changes the late page.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/graphitti.h"

namespace graphitti {
namespace core {
namespace {

using annotation::AnnotationBuilder;
using annotation::AnnotationId;

constexpr int kDomains = 4;
constexpr int64_t kSpan = 400;
const char* const kWords[] = {"alpha", "beta", "gamma", "delta", "epsilon", "zeta"};
constexpr int kTags = 10;
const char* const kTerms[] = {"t1", "t2", "t3"};

std::string Domain(int d) { return "chr" + std::to_string(d); }
std::string Tag(int t) { return "tag" + std::to_string(t); }

// One mark as the model stores it: (domain, lo, hi).
using Mark = std::tuple<std::string, int64_t, int64_t>;

struct ModelAnnotation {
  std::vector<std::string> words;  // body words (lower case)
  std::vector<Mark> marks;         // deduplicated within the annotation
};

// The naive reference: everything is a linear scan.
struct Model {
  std::map<AnnotationId, ModelAnnotation> live;
  size_t objects = 0;
  size_t notes_rows = 0;

  std::vector<AnnotationId> Keyword(const std::string& word) const {
    std::vector<AnnotationId> out;
    for (const auto& [id, a] : live) {
      if (std::find(a.words.begin(), a.words.end(), word) != a.words.end()) {
        out.push_back(id);
      }
    }
    return out;
  }
  std::vector<AnnotationId> Overlapping(const std::string& domain, int64_t lo,
                                        int64_t hi) const {
    std::vector<AnnotationId> out;
    for (const auto& [id, a] : live) {
      for (const Mark& m : a.marks) {
        if (std::get<0>(m) == domain && std::get<1>(m) <= hi && lo <= std::get<2>(m)) {
          out.push_back(id);
          break;
        }
      }
    }
    return out;
  }
  std::set<std::pair<int64_t, int64_t>> ReferentWindow(const std::string& domain,
                                                       int64_t lo, int64_t hi) const {
    std::set<std::pair<int64_t, int64_t>> out;
    for (const auto& [id, a] : live) {
      for (const Mark& m : a.marks) {
        if (std::get<0>(m) == domain && std::get<1>(m) <= hi && lo <= std::get<2>(m)) {
          out.insert({std::get<1>(m), std::get<2>(m)});
        }
      }
    }
    return out;
  }
  size_t Referents() const {
    std::set<Mark> all;
    for (const auto& [id, a] : live) all.insert(a.marks.begin(), a.marks.end());
    return all.size();
  }
};

// Bit-level fingerprint of a result's items. A GRAPH item's label names
// its subgraph once materialized, so it belongs to the page fingerprint.
std::string Fingerprint(const query::QueryResult& r) {
  std::string out = std::to_string(r.items.size()) + "|" + std::to_string(r.total_pages);
  for (const query::ResultItem& item : r.items) {
    out += ";" + std::to_string(item.content_id) + "," + std::to_string(item.referent_id) +
           "," + std::to_string(item.count) + "," +
           (r.target == query::Target::kGraph ? std::string() : item.label);
    for (const agraph::NodeRef& t : item.terminals) out += "," + t.ToString();
  }
  return out;
}

std::string PageFingerprint(const query::QueryResult& r) {
  std::string out = "page" + std::to_string(r.page);
  for (const query::ResultItem& item : r.Page()) {
    out += (item.subgraph_ready ? "[" : "[unready") + item.label + ":";
    for (const agraph::NodeRef& n : item.subgraph.nodes) out += n.ToString() + " ";
    for (const agraph::EdgeRecord& e : item.subgraph.edges) {
      out += e.from.ToString() + ">" + e.to.ToString() + ":" + e.label + " ";
    }
    out += "]";
  }
  return out;
}

std::vector<AnnotationId> ContentIds(const query::QueryResult& r) {
  std::vector<AnnotationId> out;
  for (const query::ResultItem& item : r.items) out.push_back(item.content_id);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

// A result held across later commits, with the fingerprints its items and
// every page had when it was taken (computed on a twin query run at the
// same version and flipped eagerly).
struct Held {
  query::QueryResult result;
  std::string items;
  std::vector<std::string> pages;  // index p-1 -> fingerprint of page p
};

class VersionOracle {
 public:
  explicit VersionOracle(uint32_t seed) : rng_(seed) {}

  void Run(int steps) {
    auto notes = g_.CreateTable(
        "notes", relational::SchemaBuilder().Str("title").Int("n").Build());
    ASSERT_TRUE(notes.ok());
    for (int i = 0; i < 4; ++i) ASSERT_NO_FATAL_FAILURE(IngestObject());
    for (int step = 0; step < steps; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      int dice = Uniform(0, 99);
      if (dice < 34) {
        ASSERT_NO_FATAL_FAILURE(CommitOne());
      } else if (dice < 46) {
        ASSERT_NO_FATAL_FAILURE(CommitMany(Uniform(2, 12)));
      } else if (dice < 48) {
        ASSERT_NO_FATAL_FAILURE(CommitMany(Uniform(65, 80)));
      } else if (dice < 66) {
        ASSERT_NO_FATAL_FAILURE(RemoveOne());
      } else if (dice < 72) {
        ASSERT_NO_FATAL_FAILURE(IngestObject());
      } else if (dice < 76) {
        ASSERT_NO_FATAL_FAILURE(IngestNote());
      } else if (dice < 86) {
        ASSERT_NO_FATAL_FAILURE(HoldResult());
      } else if (dice < 96) {
        ASSERT_NO_FATAL_FAILURE(FlipHeld());
      } else {
        ASSERT_NO_FATAL_FAILURE(EscapeHatchCommit());
      }
      ASSERT_NO_FATAL_FAILURE(CheckAgainstModel());
      if (step % 25 == 0) {
        ASSERT_TRUE(g_.ValidateIntegrity().ok());
      }
    }
    // Every page of every held result, flipped after all the commits.
    for (Held& h : held_) {
      for (size_t p = 1; p <= h.pages.size(); ++p) ASSERT_NO_FATAL_FAILURE(Flip(&h, p));
      EXPECT_EQ(Fingerprint(h.result), h.items);
    }
    EXPECT_TRUE(g_.ValidateIntegrity().ok());
  }

 private:
  int Uniform(int lo, int hi) { return std::uniform_int_distribution<int>(lo, hi)(rng_); }

  AnnotationBuilder RandomBuilder(ModelAnnotation* model) {
    AnnotationBuilder b;
    std::vector<std::string> words;
    int n = Uniform(1, 3);
    for (int i = 0; i < n; ++i) words.push_back(kWords[Uniform(0, 5)]);
    words.push_back(Tag(Uniform(0, kTags - 1)));
    std::string body;
    for (const std::string& w : words) body += (body.empty() ? "" : " ") + w;
    b.Title("oracle note").Creator("oracle").Body(body);
    int marks = Uniform(1, 3);
    for (int i = 0; i < marks; ++i) {
      std::string domain = Domain(Uniform(0, kDomains - 1));
      int64_t lo = Uniform(0, static_cast<int>(kSpan));
      int64_t hi = lo + Uniform(0, 30);
      uint64_t object = objects_.empty() || Uniform(0, 2) == 0
                            ? 0
                            : objects_[static_cast<size_t>(
                                  Uniform(0, static_cast<int>(objects_.size()) - 1))];
      b.MarkInterval(domain, lo, hi, object);
      Mark m{domain, lo, hi};
      if (std::find(model->marks.begin(), model->marks.end(), m) == model->marks.end()) {
        model->marks.push_back(m);
      }
    }
    if (Uniform(0, 2) == 0) b.OntologyReference("GO", kTerms[Uniform(0, 2)]);
    // Words as the keyword index sees them: the body tokens, plus the
    // title/creator tokens every note shares.
    model->words = words;
    model->words.push_back("oracle");
    model->words.push_back("note");
    return b;
  }

  void CommitOne() {
    ModelAnnotation m;
    AnnotationBuilder b = RandomBuilder(&m);
    auto id = g_.Commit(b);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    model_.live.emplace(*id, std::move(m));
  }

  void CommitMany(int n) {
    std::vector<AnnotationBuilder> builders;
    std::vector<ModelAnnotation> models(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) builders.push_back(RandomBuilder(&models[static_cast<size_t>(i)]));
    auto ids = g_.CommitBatch(builders);
    ASSERT_TRUE(ids.ok()) << ids.status().ToString();
    ASSERT_EQ(ids->size(), builders.size());
    for (size_t i = 0; i < ids->size(); ++i) model_.live.emplace((*ids)[i], std::move(models[i]));
  }

  void RemoveOne() {
    if (model_.live.empty()) return;
    auto it = model_.live.begin();
    std::advance(it, Uniform(0, static_cast<int>(model_.live.size()) - 1));
    ASSERT_TRUE(g_.RemoveAnnotation(it->first).ok());
    model_.live.erase(it);
  }

  void IngestObject() {
    auto obj = g_.IngestDnaSequence("ORC" + std::to_string(next_accession_++), "H5N1",
                                    Domain(Uniform(0, kDomains - 1)), "ACGTACGT");
    ASSERT_TRUE(obj.ok());
    objects_.push_back(*obj);
    ++model_.objects;
  }

  void IngestNote() {
    relational::Row row{relational::Value::Str("n" + std::to_string(next_accession_)),
                        relational::Value::Int(next_accession_)};
    ++next_accession_;
    auto obj = g_.IngestRecord("notes", std::move(row));
    ASSERT_TRUE(obj.ok()) << obj.status().ToString();
    objects_.push_back(*obj);
    ++model_.objects;
    ++model_.notes_rows;
  }

  // Unversioned escape hatch: commits straight into the current version's
  // store. Done right after a versioned commit, so no held result pins the
  // version being mutated — the older versions they pin must not change.
  void EscapeHatchCommit() {
    ASSERT_NO_FATAL_FAILURE(CommitOne());
    ModelAnnotation m;
    AnnotationBuilder b = RandomBuilder(&m);
    auto id = g_.annotations().Commit(b);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    model_.live.emplace(*id, std::move(m));
  }

  void HoldResult() {
    if (held_.size() >= 4) held_.erase(held_.begin());
    std::string text;
    if (Uniform(0, 1) == 0) {
      text = "FIND GRAPH WHERE { ?a1 CONTAINS \"" + Tag(Uniform(0, kTags - 1)) +
             "\" ; ?a2 CONTAINS \"" + Tag(Uniform(0, kTags - 1)) + "\" } LIMIT 3";
    } else {
      text = "FIND CONTENTS WHERE { ?a CONTAINS \"" + std::string(kWords[Uniform(0, 5)]) +
             "\" } LIMIT 5";
    }
    auto held = g_.Query(text);
    auto twin = g_.Query(text);
    ASSERT_TRUE(held.ok()) << text << ": " << held.status().ToString();
    ASSERT_TRUE(twin.ok());
    Held h;
    h.items = Fingerprint(*held);
    ASSERT_EQ(h.items, Fingerprint(*twin));
    for (size_t p = 1; p <= twin->total_pages; ++p) {
      ASSERT_TRUE(g_.MaterializePage(&*twin, p).ok());
      h.pages.push_back(PageFingerprint(*twin));
    }
    h.result = std::move(*held);
    held_.push_back(std::move(h));
  }

  void Flip(Held* h, size_t page) {
    ASSERT_TRUE(g_.MaterializePage(&h->result, page).ok());
    ASSERT_EQ(PageFingerprint(h->result), h->pages[page - 1])
        << "held page " << page << " changed after later commits";
  }

  void FlipHeld() {
    if (held_.empty()) return;
    Held& h = held_[static_cast<size_t>(Uniform(0, static_cast<int>(held_.size()) - 1))];
    if (h.pages.empty()) return;
    ASSERT_NO_FATAL_FAILURE(
        Flip(&h, static_cast<size_t>(Uniform(1, static_cast<int>(h.pages.size())))));
    ASSERT_EQ(Fingerprint(h.result), h.items);
  }

  void CheckAgainstModel() {
    const std::string word = kWords[Uniform(0, 5)];
    auto kw = g_.Query("FIND CONTENTS WHERE { ?a CONTAINS \"" + word + "\" }");
    ASSERT_TRUE(kw.ok());
    ASSERT_EQ(ContentIds(*kw), model_.Keyword(word)) << "keyword " << word;

    const std::string domain = Domain(Uniform(0, kDomains - 1));
    const int64_t lo = Uniform(0, static_cast<int>(kSpan));
    const int64_t hi = lo + Uniform(0, 60);
    const std::string window = "[" + std::to_string(lo) + "," + std::to_string(hi) + "]";
    auto by_window = g_.Query("FIND CONTENTS ?a WHERE { ?a IS CONTENT ; ?r IS REFERENT ; ?r DOMAIN \"" +
                              domain + "\" ; ?r OVERLAPS " + window + " ; ?a ANNOTATES ?r }");
    ASSERT_TRUE(by_window.ok()) << by_window.status().ToString();
    ASSERT_EQ(ContentIds(*by_window), model_.Overlapping(domain, lo, hi))
        << domain << " " << window;

    auto refs = g_.Query("FIND REFERENTS ?r WHERE { ?r IS REFERENT ; ?r DOMAIN \"" + domain +
                         "\" ; ?r OVERLAPS " + window + " }");
    ASSERT_TRUE(refs.ok());
    std::set<std::pair<int64_t, int64_t>> got;
    for (const query::ResultItem& item : refs->items) {
      got.insert({item.substructure.interval().lo, item.substructure.interval().hi});
    }
    ASSERT_EQ(got, model_.ReferentWindow(domain, lo, hi));

    auto count = g_.Query("FIND COUNT ?a WHERE { ?a CONTAINS \"oracle\" }");
    ASSERT_TRUE(count.ok());
    ASSERT_EQ(count->items[0].count, model_.live.size());

    SystemStats stats = g_.Stats();
    ASSERT_EQ(stats.num_annotations, model_.live.size());
    ASSERT_EQ(stats.num_referents, model_.Referents());
    ASSERT_EQ(stats.num_objects, model_.objects);
    ASSERT_EQ(g_.catalog().GetTable("notes")->size(), model_.notes_rows);
  }

  std::mt19937 rng_;
  Graphitti g_;
  Model model_;
  std::vector<uint64_t> objects_;
  std::vector<Held> held_;
  int next_accession_ = 0;
};

TEST(VersionOracle, Seed1) { VersionOracle(1).Run(260); }
TEST(VersionOracle, Seed2) { VersionOracle(2).Run(260); }
TEST(VersionOracle, Seed3) { VersionOracle(3).Run(260); }

}  // namespace
}  // namespace core
}  // namespace graphitti
