#include "core/corpus.h"

#include <algorithm>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/dataset.h"
#include "core/ingest.h"
#include "util/thread_pool.h"
#include "web/synthesizer.h"

namespace cafc {
namespace {

static_assert(!std::is_copy_constructible_v<Corpus>,
              "Corpus owns the dictionary and DF state; copying would fork it");
static_assert(!std::is_copy_assignable_v<Corpus>);
static_assert(std::is_move_constructible_v<Corpus>);
static_assert(std::is_move_assignable_v<Corpus>);

web::SynthesizerConfig SmallConfig(uint32_t seed) {
  web::SynthesizerConfig config;
  config.seed = seed;
  config.form_pages_total = 48;
  config.single_attribute_forms = 6;
  config.homogeneous_hubs_per_domain = 20;
  config.mixed_hubs = 30;
  config.directory_hubs = 3;
  config.large_air_hotel_hubs = 3;
  config.non_searchable_form_pages = 2;
  config.noise_pages = 2;
  config.outlier_pages = 0;
  return config;
}

Corpus BuildSmallCorpus(uint32_t seed) {
  web::SyntheticWeb web = web::Synthesizer(SmallConfig(seed)).Generate();
  Result<CorpusBuild> build = BuildCorpus(web);
  EXPECT_TRUE(build.ok()) << build.status().ToString();
  return std::move(build->corpus);
}

/// Bit-identity between an epoch snapshot and a from-scratch rebuild:
/// URLs, both weighted vectors, dictionary, and per-space statistics.
void ExpectSetsIdentical(const FormPageSet& a, const FormPageSet& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.page(i).url, b.page(i).url) << i;
    EXPECT_EQ(a.page(i).pc, b.page(i).pc) << a.page(i).url;
    EXPECT_EQ(a.page(i).fc, b.page(i).fc) << a.page(i).url;
  }
  ASSERT_EQ(a.dictionary().size(), b.dictionary().size());
  EXPECT_EQ(a.pc_stats().num_documents(), b.pc_stats().num_documents());
  EXPECT_EQ(a.fc_stats().num_documents(), b.fc_stats().num_documents());
  for (vsm::TermId id = 0; id < a.dictionary().size(); ++id) {
    ASSERT_EQ(a.dictionary().term(id), b.dictionary().term(id)) << id;
    EXPECT_EQ(a.pc_stats().DocumentFrequency(id),
              b.pc_stats().DocumentFrequency(id))
        << a.dictionary().term(id);
    EXPECT_EQ(a.fc_stats().DocumentFrequency(id),
              b.fc_stats().DocumentFrequency(id))
        << a.dictionary().term(id);
  }
}

TEST(CorpusTest, StartsEmptyAtVersionZero) {
  Corpus corpus;
  EXPECT_EQ(corpus.size(), 0u);
  EXPECT_EQ(corpus.version(), 0u);
  EXPECT_EQ(corpus.epoch(), 0u);
  EXPECT_FALSE(corpus.Contains("http://nowhere.com/"));
}

TEST(CorpusTest, StreamingBuildMatchesBatchPipeline) {
  // The streaming-ingest corpus must be bit-identical to the historical
  // one-shot BuildDataset + BuildFormPageSet over the same web.
  web::SyntheticWeb web = web::Synthesizer(SmallConfig(11)).Generate();
  Result<CorpusBuild> build = BuildCorpus(web);
  ASSERT_TRUE(build.ok()) << build.status().ToString();
  Result<Dataset> dataset = BuildDataset(web);
  ASSERT_TRUE(dataset.ok());
  FormPageSet batch = BuildFormPageSet(*dataset);
  ExpectSetsIdentical(build->corpus.Weighted(), batch);
}

TEST(CorpusTest, EpochMatchesRebuildAfterGrowth) {
  Corpus corpus = BuildSmallCorpus(11);
  Corpus incoming = BuildSmallCorpus(12);  // different web, different pages
  std::vector<DatasetEntry> pages = incoming.TakeEntries();
  Result<size_t> added = corpus.AddPages(std::move(pages));
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  EXPECT_GT(*added, 0u);
  ExpectSetsIdentical(corpus.Weighted(),
                      BuildFormPageSet(corpus.SnapshotDataset()));
}

TEST(CorpusTest, EveryBatchEpochMatchesRebuild) {
  // Grow a fresh corpus from the same observations in batches of 1, 8 and
  // 64 pages, deriving after every batch: each epoch must equal the
  // from-scratch rebuild of the pages added so far.
  Corpus source = BuildSmallCorpus(11);
  const std::vector<DatasetEntry> master = source.TakeEntries();
  for (size_t batch : {1u, 8u, 64u}) {
    Corpus corpus;
    for (size_t at = 0; at < master.size(); at += batch) {
      SCOPED_TRACE("batch " + std::to_string(batch) + " at " +
                   std::to_string(at));
      const size_t end = std::min(at + batch, master.size());
      std::vector<DatasetEntry> pages(
          master.begin() + static_cast<ptrdiff_t>(at),
          master.begin() + static_cast<ptrdiff_t>(end));
      ASSERT_TRUE(corpus.AddPages(std::move(pages)).ok());
      ExpectSetsIdentical(corpus.Weighted(),
                          BuildFormPageSet(corpus.SnapshotDataset()));
    }
    EXPECT_EQ(corpus.size(), master.size());
  }
}

TEST(CorpusTest, DuplicateUrlsAreSkipped) {
  Corpus corpus = BuildSmallCorpus(11);
  size_t size_before = corpus.size();
  uint64_t version_before = corpus.version();
  std::vector<DatasetEntry> again = corpus.SnapshotDataset().entries;
  Result<size_t> added = corpus.AddPages(std::move(again));
  ASSERT_TRUE(added.ok());
  EXPECT_EQ(*added, 0u);
  EXPECT_EQ(corpus.size(), size_before);
  // A no-op batch must not invalidate the derived epoch.
  EXPECT_EQ(corpus.version(), version_before);
}

TEST(CorpusTest, RemovePagesShrinksAndStaysRebuildIdentical) {
  Corpus corpus = BuildSmallCorpus(11);
  size_t n = corpus.size();
  ASSERT_GE(n, 4u);
  std::vector<std::string> victims = {corpus.entries()[0].doc.url,
                                      corpus.entries()[n / 2].doc.url,
                                      "http://never-crawled.example/"};
  EXPECT_EQ(corpus.RemovePages(victims), 2u);  // unknown URL ignored
  EXPECT_EQ(corpus.size(), n - 2);
  EXPECT_FALSE(corpus.Contains(victims[0]));
  ExpectSetsIdentical(corpus.Weighted(),
                      BuildFormPageSet(corpus.SnapshotDataset()));
}

TEST(CorpusTest, RemoveReAddReusesUntouchedVectors) {
  Corpus corpus = BuildSmallCorpus(11);
  corpus.Weighted();  // settle an epoch
  size_t n = corpus.size();
  ASSERT_GE(n, 2u);
  DatasetEntry victim = corpus.entries()[n / 2];
  ASSERT_EQ(corpus.RemovePages({victim.doc.url}), 1u);
  Result<size_t> re_added = corpus.AddPages({std::move(victim)});
  ASSERT_TRUE(re_added.ok());
  ASSERT_EQ(*re_added, 1u);
  const FormPageSet& derived = corpus.Weighted();
  // N and every df net out, so no IDF moved: only the re-added page's two
  // vectors are recomputed, everything else is carried over verbatim.
  EXPECT_EQ(corpus.last_derive().dirty_terms_pc, 0u);
  EXPECT_EQ(corpus.last_derive().dirty_terms_fc, 0u);
  EXPECT_EQ(corpus.last_derive().vectors_recomputed, 2u);
  EXPECT_EQ(corpus.last_derive().vectors_reused, 2 * (n - 1));
  ExpectSetsIdentical(derived, BuildFormPageSet(corpus.SnapshotDataset()));
}

TEST(CorpusTest, VersionAndEpochBookkeeping) {
  Corpus corpus = BuildSmallCorpus(11);
  uint64_t v = corpus.version();
  EXPECT_GT(v, 0u);
  EXPECT_LT(corpus.epoch(), v);  // BuildCorpus leaves the derive lazy
  corpus.Weighted();
  EXPECT_EQ(corpus.epoch(), v);
  std::string url = corpus.entries()[0].doc.url;
  corpus.RemovePages({url});
  EXPECT_GT(corpus.version(), v);
  EXPECT_LT(corpus.epoch(), corpus.version());  // stale until derive
  corpus.Weighted();
  EXPECT_EQ(corpus.epoch(), corpus.version());
  EXPECT_EQ(corpus.last_derive().epoch, corpus.epoch());
  // Removing an unknown URL is a no-op and must not bump the version.
  uint64_t settled = corpus.version();
  EXPECT_EQ(corpus.RemovePages({"http://never-crawled.example/"}), 0u);
  EXPECT_EQ(corpus.version(), settled);
}

TEST(CorpusTest, CrossCorpusGrowTranslatesDictionaries) {
  // Entries exported from a corpus with its own dictionary resolve by term
  // string when absorbed into another corpus (the grow path).
  Corpus a = BuildSmallCorpus(11);
  Corpus b = BuildSmallCorpus(12);
  size_t size_a = a.size();
  size_t size_b = b.size();
  ASSERT_GT(size_b, 0u);
  Result<size_t> added = a.AddPages(b.TakeEntries());
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  EXPECT_EQ(*added, size_b);
  EXPECT_EQ(a.size(), size_a + size_b);
  ExpectSetsIdentical(a.Weighted(), BuildFormPageSet(a.SnapshotDataset()));
}

TEST(CorpusTest, AddRejectsOutOfRangeIds) {
  Corpus corpus = BuildSmallCorpus(11);
  size_t size_before = corpus.size();
  DatasetEntry bogus;
  bogus.doc.url = "http://bogus.example/";
  bogus.doc.page_terms = {
      {static_cast<vsm::TermId>(corpus.dictionary()->size() + 1000),
       vsm::Location::kPageBody}};
  Result<size_t> added = corpus.AddPages({std::move(bogus)});
  ASSERT_FALSE(added.ok());
  EXPECT_EQ(added.status().code(), StatusCode::kInvalidArgument);
  // Failed batches are all-or-nothing.
  EXPECT_EQ(corpus.size(), size_before);
  EXPECT_FALSE(corpus.Contains("http://bogus.example/"));
}

TEST(CorpusTest, EpochsAreThreadCountInvariant) {
  // The same growth schedule at 1, 2, 4 and 8 threads must produce
  // bit-identical epochs (profiles and vectors are pure per-page work over
  // fixed grains; everything order-dependent is serial).
  auto grow = [](int threads) {
    util::ScopedThreads scoped(threads);
    Corpus corpus = BuildSmallCorpus(11);
    Corpus incoming = BuildSmallCorpus(12);
    Result<size_t> added = corpus.AddPages(incoming.TakeEntries());
    EXPECT_TRUE(added.ok());
    corpus.Weighted();
    return corpus;
  };
  Corpus serial = grow(1);
  for (int threads : {2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    Corpus parallel = grow(threads);
    ExpectSetsIdentical(serial.Weighted(), parallel.Weighted());
  }
}

TEST(CorpusTest, TakeEntriesLeavesCorpusEmpty) {
  Corpus corpus = BuildSmallCorpus(11);
  size_t n = corpus.size();
  std::vector<DatasetEntry> entries = corpus.TakeEntries();
  EXPECT_EQ(entries.size(), n);
  EXPECT_EQ(corpus.size(), 0u);
  EXPECT_EQ(corpus.version(), 0u);
  EXPECT_EQ(corpus.epoch(), 0u);
}

}  // namespace
}  // namespace cafc
