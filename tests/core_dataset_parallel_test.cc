// Determinism check for the parallel ingestion pipeline: BuildDataset must
// produce a bit-identical Dataset — entries, interned term streams,
// dictionary contents, counters — and BuildFormPageSet identical weighted
// vectors, at every thread count, with and without injected faults. This
// is the ingestion twin of cluster_parallel_equivalence_test: per-chunk
// dictionary shards merged in fixed chunk order, outcomes written to
// per-candidate slots, and all policy applied in a serial candidate-order
// pass. The id-based weights must also equal the string-keyed weighting
// path term for term.

#include <map>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/cafc.h"
#include "core/dataset.h"
#include "util/thread_pool.h"
#include "web/fault_injection.h"
#include "web/synthesizer.h"

namespace cafc {
namespace {

web::SynthesizerConfig TestConfig() {
  web::SynthesizerConfig config;
  config.seed = 99;
  config.form_pages_total = 96;
  config.single_attribute_forms = 10;
  config.homogeneous_hubs_per_domain = 30;
  config.mixed_hubs = 60;
  config.directory_hubs = 4;
  config.large_air_hotel_hubs = 4;
  config.non_searchable_form_pages = 16;
  config.noise_pages = 12;
  config.outlier_pages = 2;
  return config;
}

/// Builds the dataset at `threads`, fetching through a fresh fault
/// decorator when `profile` is given: its attempt counters model one run's
/// view of the network, and sharing them would warm later runs.
Dataset Build(const web::SyntheticWeb& web, int threads,
              const web::FaultProfile* profile = nullptr) {
  std::optional<web::FaultInjectingFetcher> faulty;
  DatasetOptions options;
  options.collect_anchor_text = true;  // exercise the hub-DOM cache too
  options.threads = threads;
  if (profile != nullptr) options.fetcher = &faulty.emplace(&web, *profile);
  Result<Dataset> dataset = BuildDataset(web, options);
  EXPECT_TRUE(dataset.ok());
  return std::move(dataset).value();
}

/// Weight map keyed by term string, so vectors from differently numbered
/// dictionaries compare exactly.
std::map<std::string, double> ByTermString(const vsm::SparseVector& v,
                                           const vsm::TermDictionary& dict) {
  std::map<std::string, double> out;
  for (const vsm::Entry& e : v.entries()) out[dict.term(e.term)] = e.weight;
  return out;
}

void ExpectDatasetsIdentical(const Dataset& a, const Dataset& b,
                             int threads) {
  SCOPED_TRACE("threads=" + std::to_string(threads));
  EXPECT_TRUE(a.stats == b.stats);
  EXPECT_EQ(a.num_classes, b.num_classes);

  ASSERT_TRUE(a.dictionary != nullptr);
  ASSERT_TRUE(b.dictionary != nullptr);
  ASSERT_EQ(a.dictionary->size(), b.dictionary->size());
  for (vsm::TermId id = 0; id < a.dictionary->size(); ++id) {
    ASSERT_EQ(a.dictionary->term(id), b.dictionary->term(id)) << "id=" << id;
  }

  ASSERT_EQ(a.entries.size(), b.entries.size());
  for (size_t i = 0; i < a.entries.size(); ++i) {
    const DatasetEntry& ea = a.entries[i];
    const DatasetEntry& eb = b.entries[i];
    SCOPED_TRACE(ea.doc.url);
    EXPECT_EQ(ea.doc.url, eb.doc.url);
    EXPECT_EQ(ea.site, eb.site);
    EXPECT_EQ(ea.root_url, eb.root_url);
    EXPECT_EQ(ea.gold, eb.gold);
    EXPECT_EQ(ea.single_attribute, eb.single_attribute);
    EXPECT_EQ(ea.backlinks, eb.backlinks);
    // Interned term streams: same ids, same order, same locations.
    EXPECT_EQ(ea.doc.page_terms, eb.doc.page_terms);
    EXPECT_EQ(ea.doc.form_terms, eb.doc.form_terms);
    ASSERT_EQ(ea.labels.size(), eb.labels.size());
    for (size_t f = 0; f < ea.labels.size(); ++f) {
      EXPECT_EQ(ea.labels[f].field_name, eb.labels[f].field_name);
      EXPECT_EQ(ea.labels[f].label, eb.labels[f].label);
    }
  }
}

class DatasetParallelTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Real worker threads even on a 1-core host.
    util::ThreadPool::SetDefaultThreads(8);
    web_ = new web::SyntheticWeb(web::Synthesizer(TestConfig()).Generate());
    serial_ = new Dataset(Build(*web_, 1));
  }
  static void TearDownTestSuite() {
    delete serial_;
    delete web_;
    serial_ = nullptr;
    web_ = nullptr;
    util::ThreadPool::SetDefaultThreads(0);  // restore automatic sizing
  }

  static web::SyntheticWeb* web_;
  static Dataset* serial_;
};

web::SyntheticWeb* DatasetParallelTest::web_ = nullptr;
Dataset* DatasetParallelTest::serial_ = nullptr;

TEST_F(DatasetParallelTest, SerialRunKeepsMostGoldPages) {
  EXPECT_GE(serial_->entries.size(), 90u);
  EXPECT_GT(serial_->dictionary->size(), 0u);
  EXPECT_GT(serial_->stats.term_occurrences, 0u);
  EXPECT_GT(serial_->stats.hub_fetches, 0u);
}

TEST_F(DatasetParallelTest, DatasetIdenticalAcrossThreadCounts) {
  for (int threads : {2, 8}) {
    Dataset parallel = Build(*web_, threads);
    ExpectDatasetsIdentical(*serial_, parallel, threads);
  }
}

TEST_F(DatasetParallelTest, WeightedVectorsIdenticalAcrossThreadCounts) {
  FormPageSet serial_set = BuildFormPageSet(*serial_);
  for (int threads : {2, 8}) {
    Dataset parallel = Build(*web_, threads);
    FormPageSet parallel_set = BuildFormPageSet(parallel);
    ASSERT_EQ(parallel_set.size(), serial_set.size()) << "threads=" << threads;
    for (size_t i = 0; i < serial_set.size(); ++i) {
      EXPECT_EQ(parallel_set.page(i).url, serial_set.page(i).url);
      // Bit-identical weights: same ids, same order, same doubles.
      EXPECT_EQ(parallel_set.page(i).pc, serial_set.page(i).pc)
          << "threads=" << threads << " url=" << serial_set.page(i).url;
      EXPECT_EQ(parallel_set.page(i).fc, serial_set.page(i).fc)
          << "threads=" << threads << " url=" << serial_set.page(i).url;
    }
  }
}

TEST_F(DatasetParallelTest, TransientFaultsInvisibleInFinalDataset) {
  // 30% of URLs fail transiently (twice each); the crawler's default retry
  // budget recovers every one, so the assembled dataset must be
  // bit-identical to the zero-fault dataset — the only trace of the faults
  // is the retry accounting in stats.crawl.
  web::FaultProfile profile;
  profile.transient_rate = 0.3;
  profile.transient_attempts = 2;
  profile.seed = 21;

  Dataset faulted = Build(*web_, 1, &profile);
  EXPECT_GT(faulted.stats.crawl.transient_recovered, 0u);
  EXPECT_GT(faulted.stats.crawl.retry_attempts, 0u);
  EXPECT_EQ(faulted.stats.crawl.fetch_failures(), 0u);

  // Identical across thread counts, including the full failure taxonomy.
  for (int threads : {2, 8}) {
    Dataset parallel = Build(*web_, threads, &profile);
    ExpectDatasetsIdentical(faulted, parallel, threads);
  }

  // Identical to the zero-fault dataset once the retry accounting (the
  // one legitimate difference) is factored out.
  faulted.stats.crawl = serial_->stats.crawl;
  ExpectDatasetsIdentical(*serial_, faulted, 1);
}

TEST_F(DatasetParallelTest, FaultBandsThreadInvariantAndRecoveryMonotone) {
  // One permanent fault kind at a time, at rising rates. At every rate the
  // dataset, failure taxonomy included, is identical across thread counts.
  // The stacked-band assignment nests the fault sets, so the recovered
  // page count can only fall as the rate grows, and CAFC-CH still files
  // what survives into k clusters: degradation, never collapse.
  struct Band {
    const char* kind;
    double web::FaultProfile::*rate;
  };
  const Band bands[] = {{"dead", &web::FaultProfile::dead_rate},
                        {"truncated", &web::FaultProfile::truncated_rate},
                        {"soft404", &web::FaultProfile::soft404_rate}};
  constexpr int kClusters = 8;
  for (const Band& band : bands) {
    size_t recovered = serial_->entries.size();  // rate 0
    for (double rate : {0.1, 0.2, 0.4}) {
      SCOPED_TRACE(std::string(band.kind) + " " + std::to_string(rate));
      web::FaultProfile profile;
      profile.seed = 13;
      profile.*band.rate = rate;
      Dataset faulted = Build(*web_, 1, &profile);
      for (int threads : {2, 8}) {
        ExpectDatasetsIdentical(faulted, Build(*web_, threads, &profile),
                                threads);
      }
      EXPECT_LE(faulted.entries.size(), recovered);
      recovered = faulted.entries.size();

      FormPageSet pages = BuildFormPageSet(faulted);
      cluster::Clustering clustering =
          CafcCh(pages, kClusters, CafcChOptions{});
      EXPECT_EQ(clustering.num_clusters, kClusters);
      EXPECT_EQ(clustering.assignment.size(), pages.size());
    }
  }
}

TEST_F(DatasetParallelTest, InternedWeightsMatchStringKeyedPath) {
  // Re-weigh the dataset through the string-keyed path (string
  // CorpusStats::AddDocument + TfIdfWeighter::Weigh over a private
  // dictionary): every weight must equal the id-based one, same doubles,
  // compared per term string so the id numbering cannot hide a drift.
  const Dataset& dataset = *serial_;
  const FormPageSet id_set = BuildFormPageSet(dataset);
  auto resolve = [&dataset](const std::vector<vsm::InternedTerm>& terms) {
    std::vector<vsm::LocatedTerm> out;
    for (const vsm::InternedTerm& t : terms) {
      out.push_back({dataset.dictionary->term(t.term), t.location});
    }
    return out;
  };
  FormPageSet string_set;
  std::vector<std::vector<vsm::LocatedTerm>> pc_docs;
  std::vector<std::vector<vsm::LocatedTerm>> fc_docs;
  for (const DatasetEntry& e : dataset.entries) {
    pc_docs.push_back(resolve(e.doc.page_terms));
    fc_docs.push_back(resolve(e.doc.form_terms));
    string_set.mutable_pc_stats()->AddDocument(pc_docs.back());
    string_set.mutable_fc_stats()->AddDocument(fc_docs.back());
  }
  vsm::TfIdfWeighter pc_weighter(&string_set.pc_stats(), {});
  vsm::TfIdfWeighter fc_weighter(&string_set.fc_stats(), {});
  ASSERT_EQ(id_set.size(), dataset.entries.size());
  for (size_t i = 0; i < id_set.size(); ++i) {
    SCOPED_TRACE(id_set.page(i).url);
    EXPECT_EQ(ByTermString(id_set.page(i).pc, id_set.dictionary()),
              ByTermString(pc_weighter.Weigh(pc_docs[i]),
                           string_set.dictionary()));
    EXPECT_EQ(ByTermString(id_set.page(i).fc, id_set.dictionary()),
              ByTermString(fc_weighter.Weigh(fc_docs[i]),
                           string_set.dictionary()));
  }
}

TEST_F(DatasetParallelTest, SingleParsePipelineAccounting) {
  // The pipeline parses each fetched page exactly once, during the crawl:
  // candidates reuse the crawl's DOM and hub anchors come from the crawl's
  // records, so no page is ever parsed twice and every hub fetch is
  // answered without a parse.
  const DatasetStats& stats = serial_->stats;
  EXPECT_EQ(stats.html_parses, stats.crawled_pages);
  EXPECT_GT(stats.hub_fetches, 0u);
  EXPECT_EQ(stats.hub_parse_cache_hits, stats.hub_fetches);
}

}  // namespace
}  // namespace cafc
