// Tests of snapshot-backed (read-only, mmapped) DirectoryServer mode:
// stored-page classification and search must be bit-identical to the
// in-RAM directory at any worker count and under a tight memory budget,
// refresh must be refused, and the storage counters must surface through
// ServerStats.

#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/cafc.h"
#include "core/dataset.h"
#include "core/directory.h"
#include "serve/server.h"
#include "storage/reader.h"
#include "storage/writer.h"
#include "web/synthesizer.h"
#include "test_util.h"

namespace cafc {
namespace {

using serve::DirectoryServer;
using serve::DirectoryServerOptions;
using serve::QueryKind;
using serve::QueryRequest;
using serve::QueryResponse;
using serve::ServerStats;

web::SynthesizerConfig SmallConfig() {
  web::SynthesizerConfig config;
  config.seed = 91;
  config.form_pages_total = 64;
  config.single_attribute_forms = 8;
  config.homogeneous_hubs_per_domain = 25;
  config.mixed_hubs = 40;
  config.directory_hubs = 3;
  config.large_air_hotel_hubs = 3;
  config.non_searchable_form_pages = 0;
  config.noise_pages = 0;
  config.outlier_pages = 0;
  return config;
}

using ::cafc::test::TempPath;

class MappedServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    web::SyntheticWeb web = web::Synthesizer(SmallConfig()).Generate();
    Dataset dataset = std::move(BuildDataset(web)).value();
    pages_ = new FormPageSet(BuildFormPageSet(dataset));
    CafcChOptions options;
    options.min_hub_cardinality = 4;
    cluster::Clustering clustering =
        CafcCh(*pages_, web::kNumDomains, options);
    directory_ = new DatabaseDirectory(DatabaseDirectory::Build(
        *pages_, clustering,
        DatabaseDirectory::AutoLabels(*pages_, clustering)));
    path_ = new std::string(TempPath("serve_mapped.cafc3"));
    ASSERT_TRUE(
        storage::WriteSnapshotV3(*directory_, pages_, *path_).ok());
  }
  static void TearDownTestSuite() {
    std::remove(path_->c_str());
    delete path_;
    delete directory_;
    delete pages_;
    path_ = nullptr;
    directory_ = nullptr;
    pages_ = nullptr;
  }

  static std::shared_ptr<const storage::MappedSnapshot> OpenSnapshot(
      uint64_t budget = 0) {
    storage::SnapshotOpenOptions options;
    options.memory_budget_bytes = budget;
    Result<std::unique_ptr<storage::MappedSnapshot>> opened =
        storage::MappedSnapshot::Open(*path_, options);
    EXPECT_TRUE(opened.ok()) << opened.status().ToString();
    return opened.ok()
               ? std::shared_ptr<const storage::MappedSnapshot>(
                     std::move(*opened))
               : nullptr;
  }

  static FormPageSet* pages_;
  static DatabaseDirectory* directory_;
  static std::string* path_;
};

FormPageSet* MappedServeTest::pages_ = nullptr;
DatabaseDirectory* MappedServeTest::directory_ = nullptr;
std::string* MappedServeTest::path_ = nullptr;

TEST_F(MappedServeTest, StoredClassifyMatchesInRamAtEveryWorkerCount) {
  const cluster::CentroidIndex reference_index =
      directory_->BuildCentroidIndex();
  std::vector<DatabaseDirectory::Classification> expected;
  for (size_t i = 0; i < pages_->size(); ++i) {
    expected.push_back(directory_->ClassifyPage(
        pages_->page(i), ContentConfig::kFcPlusPc, reference_index));
  }

  for (size_t workers : {size_t{1}, size_t{2}, size_t{3}, size_t{8}}) {
    auto snapshot = OpenSnapshot();
    ASSERT_NE(snapshot, nullptr);
    DirectoryServerOptions options;
    options.workers = workers;
    options.queue_capacity = pages_->size() + 8;
    DirectoryServer server(snapshot, options);

    std::vector<std::future<QueryResponse>> futures;
    for (size_t i = 0; i < pages_->size(); ++i) {
      QueryRequest request;
      request.kind = QueryKind::kClassifyStored;
      request.page_ordinal = i;
      futures.push_back(server.Submit(std::move(request)));
    }
    for (size_t i = 0; i < futures.size(); ++i) {
      QueryResponse response = futures[i].get();
      ASSERT_TRUE(response.status.ok()) << response.status.ToString();
      EXPECT_EQ(response.classification.entry, expected[i].entry);
      EXPECT_EQ(response.classification.similarity,
                expected[i].similarity);
    }
    server.Shutdown();
  }
}

TEST_F(MappedServeTest, SearchMatchesInRamBitExactly) {
  const cluster::CentroidIndex reference_index =
      directory_->BuildCentroidIndex();
  auto snapshot = OpenSnapshot();
  ASSERT_NE(snapshot, nullptr);
  DirectoryServer server(snapshot, DirectoryServerOptions{});
  for (const char* query :
       {"job career resume", "hotel rooms", "cheap flights airline"}) {
    QueryRequest request;
    request.kind = QueryKind::kSearch;
    request.query = query;
    request.top_k = 4;
    QueryResponse response = server.Query(std::move(request));
    ASSERT_TRUE(response.status.ok());
    auto expected = directory_->Search(query, 4, reference_index);
    ASSERT_EQ(response.hits.size(), expected.size()) << query;
    for (size_t h = 0; h < expected.size(); ++h) {
      EXPECT_EQ(response.hits[h].entry, expected[h].entry);
      EXPECT_EQ(response.hits[h].similarity, expected[h].similarity);
    }
  }
  server.Shutdown();
}

TEST_F(MappedServeTest, ReadOnlyServerRefusesRefresh) {
  auto snapshot = OpenSnapshot();
  ASSERT_NE(snapshot, nullptr);
  DirectoryServer server(snapshot, DirectoryServerOptions{});
  Status status = server.ScheduleRefresh({});
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  server.Shutdown();
}

TEST_F(MappedServeTest, StatsSurfaceStorageCounters) {
  auto probe = OpenSnapshot();
  ASSERT_NE(probe, nullptr);
  const uint64_t budget = probe->fixed_resident_bytes() + 8 * 1024;
  probe.reset();

  auto snapshot = OpenSnapshot(budget);
  ASSERT_NE(snapshot, nullptr);
  DirectoryServerOptions options;
  options.workers = 2;
  DirectoryServer server(snapshot, options);

  // A hot page interleaved with a sweep: hits and misses both happen.
  for (size_t i = 0; i < pages_->size(); ++i) {
    for (size_t ordinal : {size_t{0}, i}) {
      QueryRequest request;
      request.kind = QueryKind::kClassifyStored;
      request.page_ordinal = ordinal;
      QueryResponse response = server.Query(std::move(request));
      ASSERT_TRUE(response.status.ok());
    }
  }
  const ServerStats stats = server.Stats();
  EXPECT_TRUE(stats.mapped_storage);
  EXPECT_GT(stats.page_hits, 0u);
  EXPECT_GT(stats.page_misses, 0u);
  EXPECT_EQ(stats.memory_budget_bytes, budget);
  EXPECT_GT(stats.storage_fixed_bytes, 0u);
  EXPECT_GE(stats.storage_resident_bytes, stats.storage_fixed_bytes);
  EXPECT_LE(stats.storage_resident_bytes, budget);
  server.Shutdown();
}

TEST_F(MappedServeTest, BudgetedServingStaysUnderBudgetAndBitExact) {
  // A budget barely above the fixed footprint: a hot page interleaved
  // with a sweep must produce page-LRU hits, misses and evictions, the
  // resident bytes must never cross the budget, and every answer served
  // from spilled profiles must still equal the in-RAM directory's.
  auto probe = OpenSnapshot();
  ASSERT_NE(probe, nullptr);
  const uint64_t budget = probe->fixed_resident_bytes() + 8 * 1024;
  probe.reset();
  auto snapshot = OpenSnapshot(budget);
  ASSERT_NE(snapshot, nullptr);
  const cluster::CentroidIndex reference_index =
      directory_->BuildCentroidIndex();
  DirectoryServerOptions options;
  options.workers = 2;
  DirectoryServer server(snapshot, options);

  for (size_t i = 0; i < pages_->size(); ++i) {
    for (size_t ordinal : {size_t{0}, i}) {
      QueryRequest request;
      request.kind = QueryKind::kClassifyStored;
      request.page_ordinal = ordinal;
      QueryResponse response = server.Query(std::move(request));
      ASSERT_TRUE(response.status.ok()) << response.status.ToString();
      DatabaseDirectory::Classification expected = directory_->ClassifyPage(
          pages_->page(ordinal), ContentConfig::kFcPlusPc, reference_index);
      EXPECT_EQ(response.classification.entry, expected.entry) << ordinal;
      EXPECT_EQ(response.classification.similarity, expected.similarity)
          << ordinal;
      EXPECT_LE(snapshot->resident_bytes(), budget);
    }
  }
  server.Shutdown();
  const storage::PageStoreStats stats = snapshot->page_store_stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.misses, 0u);
  EXPECT_GT(stats.evictions, 0u);
}

TEST_F(MappedServeTest, StoredClassifyRejectsBadOrdinal) {
  auto snapshot = OpenSnapshot();
  ASSERT_NE(snapshot, nullptr);
  DirectoryServer server(snapshot, DirectoryServerOptions{});
  QueryRequest request;
  request.kind = QueryKind::kClassifyStored;
  request.page_ordinal = pages_->size() + 100;
  QueryResponse response = server.Query(std::move(request));
  EXPECT_EQ(response.status.code(), StatusCode::kOutOfRange);
  const ServerStats stats = server.Stats();
  EXPECT_GT(stats.failed, 0u);
  server.Shutdown();
}

}  // namespace
}  // namespace cafc
