#include "substrate.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "core/cafc.h"
#include "core/hub_clusters.h"
#include "core/select_hub_clusters.h"
#include "util/string_util.h"

namespace cafc::perfbench {
namespace {

/// Incremental FNV-1a over raw bytes.
class Digest {
 public:
  void Bytes(const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ ^= bytes[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  template <typename T>
  void Value(const T& value) {
    Bytes(&value, sizeof(value));
  }
  void String(const std::string& s) {
    Value(s.size());
    Bytes(s.data(), s.size());
  }
  void Vector(const vsm::SparseVector& v) {
    Value(v.size());
    for (const vsm::Entry& e : v.entries()) {
      Value(e.term);
      Value(e.weight);
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

}  // namespace

uint64_t SubSeed(uint64_t seed, uint64_t stream, uint64_t index) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL +
               index * 0x94d049bb133111ebULL + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

web::SyntheticWeb MakeWeb(uint64_t seed, int form_pages) {
  web::SynthesizerConfig config;
  config.seed = seed;
  config.form_pages_total = form_pages;
  config.single_attribute_forms = form_pages / 8;
  const double scale = static_cast<double>(form_pages) / kPaperPages;
  config.homogeneous_hubs_per_domain = static_cast<int>(360 * scale);
  config.mixed_hubs = static_cast<int>(1100 * scale);
  config.directory_hubs = static_cast<int>(24 * scale) + 1;
  config.large_air_hotel_hubs = static_cast<int>(30 * scale) + 1;
  config.outlier_pages = static_cast<int>(10 * scale);
  config.non_searchable_form_pages = static_cast<int>(60 * scale);
  config.noise_pages = static_cast<int>(80 * scale);
  return web::Synthesizer(config).Generate();
}

web::SyntheticWeb MakeGrowthWeb(uint64_t seed, int form_pages) {
  web::SynthesizerConfig config;
  config.seed = seed;
  config.form_pages_total = form_pages;
  config.single_attribute_forms = std::max(1, form_pages / 8);
  config.homogeneous_hubs_per_domain = 20;
  config.mixed_hubs = 30;
  config.directory_hubs = 2;
  config.large_air_hotel_hubs = 2;
  return web::Synthesizer(config).Generate();
}

CorpusBuild Ingest(const web::SyntheticWeb& web) {
  Result<CorpusBuild> built = BuildCorpus(web);
  if (!built.ok()) {
    throw std::runtime_error("ingest failed: " +
                             built.status().ToString());
  }
  return std::move(built).value();
}

DatabaseDirectory BuildCafcChDirectory(Corpus& corpus, int k) {
  const FormPageSet& pages = corpus.Weighted();
  std::vector<HubCluster> kept = FilterByCardinality(
      GenerateHubClusters(pages), kMinHubCardinality);
  std::vector<std::vector<size_t>> seeds;
  for (HubCluster& hub : SelectHubClusters(pages, kept, k)) {
    seeds.push_back(std::move(hub.members));
  }
  cluster::Clustering clustering =
      CafcCWithSeeds(pages, seeds, CafcOptions{});
  return DatabaseDirectory::Build(
      pages, clustering, DatabaseDirectory::AutoLabels(pages, clustering));
}

DatabaseDirectory BuildSiteDirectory(Corpus& corpus) {
  cluster::Clustering clustering;
  std::unordered_map<std::string, int> site_ids;
  for (const DatasetEntry& entry : corpus.entries()) {
    const auto it =
        site_ids.emplace(entry.site, static_cast<int>(site_ids.size())).first;
    clustering.assignment.push_back(it->second);
  }
  clustering.num_clusters = static_cast<int>(site_ids.size());
  const FormPageSet& pages = corpus.Weighted();
  return DatabaseDirectory::Build(
      pages, clustering, DatabaseDirectory::AutoLabels(pages, clustering));
}

std::vector<forms::FormPageDocument> HeldOutDocs(uint64_t seed, int webs,
                                                 int pages_per_web) {
  std::vector<forms::FormPageDocument> docs;
  for (int w = 0; w < webs; ++w) {
    CorpusBuild built = Ingest(
        MakeWeb(SubSeed(seed, /*stream=*/1, static_cast<uint64_t>(w)),
                pages_per_web));
    for (const DatasetEntry& entry : built.corpus.entries()) {
      docs.push_back(entry.doc);
    }
  }
  return docs;
}

std::vector<std::string> SearchPool(const DatabaseDirectory& directory) {
  std::vector<std::string> labels;
  std::vector<std::vector<std::string>> terms;
  for (const DirectoryEntry& entry : directory.entries()) {
    labels.push_back(entry.label);
    std::vector<std::string> split;
    for (const std::string& term : SplitNonEmpty(entry.label, ',')) {
      std::string trimmed(StripAsciiWhitespace(term));
      if (!trimmed.empty()) split.push_back(trimmed);
    }
    terms.push_back(std::move(split));
  }
  std::vector<std::string> pool = labels;
  for (const auto& split : terms) {
    for (const std::string& term : split) pool.push_back(term);
  }
  for (const auto& split : terms) {
    for (size_t i = 0; i + 1 < split.size(); ++i) {
      pool.push_back(split[i] + " " + split[i + 1]);
    }
  }
  // Keep the first occurrence of each query (labels can share terms).
  std::vector<std::string> unique;
  for (const std::string& q : pool) {
    if (std::find(unique.begin(), unique.end(), q) == unique.end()) {
      unique.push_back(q);
    }
  }
  return unique;
}

uint64_t HitsDigest(const std::vector<DatabaseDirectory::SearchHit>& hits) {
  Digest digest;
  digest.Value(hits.size());
  for (const DatabaseDirectory::SearchHit& hit : hits) {
    digest.Value(hit.entry);
    digest.Value(hit.similarity);
  }
  return digest.value();
}

uint64_t DirectoryDigest(const DatabaseDirectory& directory) {
  Digest digest;
  digest.Value(directory.epoch());
  digest.Value(directory.size());
  for (const DirectoryEntry& entry : directory.entries()) {
    digest.String(entry.label);
    digest.Vector(entry.centroid.pc);
    digest.Vector(entry.centroid.fc);
    digest.Value(entry.member_urls.size());
    for (const std::string& url : entry.member_urls) digest.String(url);
  }
  const FormPageSet& collection = directory.collection();
  const vsm::TermDictionary& dictionary = collection.dictionary();
  digest.Value(dictionary.size());
  digest.Value(collection.pc_stats().num_documents());
  digest.Value(collection.fc_stats().num_documents());
  for (vsm::TermId id = 0; id < dictionary.size(); ++id) {
    digest.String(dictionary.term(id));
    digest.Value(collection.pc_stats().DocumentFrequency(id));
    digest.Value(collection.fc_stats().DocumentFrequency(id));
  }
  return digest.value();
}

OracleAnswers ScanOracle(const DatabaseDirectory& directory,
                         const std::vector<forms::FormPageDocument>& docs,
                         const std::vector<std::string>& queries,
                         size_t top_k) {
  OracleAnswers answers;
  answers.classify.reserve(docs.size());
  for (const forms::FormPageDocument& doc : docs) {
    const DatabaseDirectory::Classification c =
        directory.ClassifyDocument(doc);
    answers.classify.push_back(Answer{c.entry, c.similarity, 0});
  }
  for (const std::string& query : queries) {
    answers.search.push_back(
        Answer{-1, 0.0, HitsDigest(directory.Search(query, top_k))});
  }
  return answers;
}

}  // namespace cafc::perfbench
