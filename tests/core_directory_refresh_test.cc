#include "core/directory.h"

#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/cafc.h"
#include "core/corpus.h"
#include "core/ingest.h"
#include "util/rng.h"
#include "web/synthesizer.h"
#include "fixtures.h"

namespace cafc {
namespace {

using test::BuildDirectory;
using test::GrowCorpus;

TEST(DirectoryRefreshTest, RefilesGrownCorpusAndReportsDrift) {
  Corpus corpus = GrowCorpus(21, 48);
  DatabaseDirectory directory = BuildDirectory(corpus, 6);
  size_t base_pages = corpus.size();

  Corpus incoming = GrowCorpus(22, 24);
  Result<size_t> added = corpus.AddPages(incoming.TakeEntries());
  ASSERT_TRUE(added.ok());
  ASSERT_GT(*added, 0u);

  Result<DirectoryRefreshReport> report = directory.Refresh(corpus);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // Every previously filed page survived the growth, so the intersection
  // is the full base collection and the new pages all enter.
  EXPECT_EQ(report->retained + report->moved, base_pages);
  EXPECT_EQ(report->entered, *added);
  EXPECT_EQ(report->left, 0u);
  EXPECT_GE(report->drift, 0.0);
  EXPECT_LE(report->drift, 1.0);
  EXPECT_EQ(report->epoch, corpus.epoch());
  EXPECT_EQ(directory.epoch(), corpus.epoch());
  EXPECT_EQ(report->reseed_recommended, report->drift > 0.25);

  // The refreshed sections cover the grown corpus exactly.
  std::unordered_set<std::string> filed;
  for (const DirectoryEntry& e : directory.entries()) {
    EXPECT_FALSE(e.member_urls.empty());  // empty sections are dropped
    for (const std::string& url : e.member_urls) {
      EXPECT_TRUE(filed.insert(url).second) << url;
      EXPECT_TRUE(corpus.Contains(url)) << url;
    }
  }
  EXPECT_EQ(filed.size(), corpus.size());
}

TEST(DirectoryRefreshTest, WarmStartBeatsColdOnLightDrift) {
  Corpus corpus = GrowCorpus(21, 48);
  DatabaseDirectory directory = BuildDirectory(corpus, 6);

  Corpus incoming = GrowCorpus(22, 8);  // small delta → light drift
  ASSERT_TRUE(corpus.AddPages(incoming.TakeEntries()).ok());

  Result<DirectoryRefreshReport> report = directory.Refresh(corpus);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  cluster::KMeansStats cold;
  Rng rng(1234);
  CafcC(corpus.Weighted(), 6, CafcOptions{}, &rng, &cold);

  // The warm start primes from the previous epoch's centroids, so it must
  // converge in strictly fewer counted iterations than a cold relocation
  // (whose first iteration always moves every page).
  EXPECT_TRUE(report->kmeans.converged);
  EXPECT_LT(report->kmeans.iterations, cold.iterations);
}

TEST(DirectoryRefreshTest, ReportsPagesThatLeft) {
  Corpus corpus = GrowCorpus(21, 48);
  DatabaseDirectory directory = BuildDirectory(corpus, 6);
  std::vector<std::string> victims = {corpus.entries()[0].doc.url,
                                      corpus.entries()[1].doc.url};
  ASSERT_EQ(corpus.RemovePages(victims), 2u);

  Result<DirectoryRefreshReport> report = directory.Refresh(corpus);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->left, 2u);
  EXPECT_EQ(report->entered, 0u);
  EXPECT_EQ(report->retained + report->moved, corpus.size());
  for (const DirectoryEntry& e : directory.entries()) {
    for (const std::string& url : e.member_urls) {
      EXPECT_NE(url, victims[0]);
      EXPECT_NE(url, victims[1]);
    }
  }
}

TEST(DirectoryRefreshTest, ClassificationSpeaksTheNewEpoch) {
  Corpus corpus = GrowCorpus(21, 48);
  DatabaseDirectory directory = BuildDirectory(corpus, 6);
  Corpus incoming = GrowCorpus(22, 16);
  ASSERT_TRUE(corpus.AddPages(incoming.TakeEntries()).ok());
  ASSERT_TRUE(directory.Refresh(corpus).ok());

  // Every page of the grown corpus — including ones the original build
  // never saw — classifies into the section that lists it (up to the 10%
  // k-means stop criterion).
  const FormPageSet& pages = corpus.Weighted();
  size_t correct = 0;
  for (size_t i = 0; i < pages.size(); ++i) {
    DatabaseDirectory::Classification verdict =
        directory.ClassifyPage(pages.page(i));
    ASSERT_GE(verdict.entry, 0);
    const DirectoryEntry& entry =
        directory.entries()[static_cast<size_t>(verdict.entry)];
    for (const std::string& url : entry.member_urls) {
      if (url == pages.page(i).url) {
        ++correct;
        break;
      }
    }
  }
  EXPECT_GE(correct * 10, pages.size() * 9);
}

TEST(DirectoryRefreshTest, EmptyDirectoryFailsPrecondition) {
  Corpus corpus = GrowCorpus(21, 48);
  DatabaseDirectory empty;
  Result<DirectoryRefreshReport> report = empty.Refresh(corpus);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition);
}

TEST(DirectoryRefreshTest, EmptyCorpusFailsPrecondition) {
  Corpus corpus = GrowCorpus(21, 48);
  DatabaseDirectory directory = BuildDirectory(corpus, 6);
  Corpus empty;
  Result<DirectoryRefreshReport> report = directory.Refresh(empty);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition);
  // The directory is unchanged on failure.
  EXPECT_EQ(directory.epoch(), 0u);
  EXPECT_GT(directory.size(), 0u);
}

TEST(DirectoryRefreshTest, ForeignCorpusFailsPrecondition) {
  // A corpus whose dictionary is not an id-stable extension of the
  // directory's vocabulary must be rejected — its term ids mean different
  // strings.
  Corpus corpus = GrowCorpus(21, 48);
  DatabaseDirectory directory = BuildDirectory(corpus, 6);
  Corpus foreign = GrowCorpus(99, 48);
  Result<DirectoryRefreshReport> report = directory.Refresh(foreign);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace cafc
