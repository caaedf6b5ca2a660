// Concurrency contract of the serving layer, run under TSan in CI:
//  - responses from N concurrent clients are bit-identical to serial
//    library calls at the response's snapshot version, at every worker
//    count {1, 2, 4, 8};
//  - a refresh storm under query load never produces a torn epoch — every
//    response validates against the serial oracle of the exact snapshot
//    version it reports, and the final published version is the last one.

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/cafc.h"
#include "core/corpus.h"
#include "core/ingest.h"
#include "serve/server.h"
#include "util/rng.h"
#include "web/synthesizer.h"
#include "fixtures.h"

namespace cafc {
namespace {

using test::BuildDirectory;
using test::GrowCorpus;

using serve::DirectoryServer;
using serve::DirectoryServerOptions;
using serve::QueryKind;
using serve::QueryRequest;
using serve::QueryResponse;

constexpr uint32_t kBaseSeed = 21;
constexpr size_t kBasePages = 48;
constexpr size_t kRefreshRounds = 3;
constexpr size_t kBatchPages = 12;

const char* kQueries[] = {"job career employ", "hotel room",
                          "flight airline ticket", "music cd artist",
                          "book author"};

/// Serial oracle answers at one snapshot version: classification per probe
/// document, hits per canned query.
struct ExpectedAtVersion {
  std::vector<DatabaseDirectory::Classification> classify;
  std::vector<std::vector<DatabaseDirectory::SearchHit>> search;
};

ExpectedAtVersion Snapshot(const DatabaseDirectory& directory,
                           const std::vector<forms::FormPageDocument>& docs) {
  ExpectedAtVersion expected;
  for (const forms::FormPageDocument& doc : docs) {
    expected.classify.push_back(directory.ClassifyDocument(doc));
  }
  for (const char* q : kQueries) {
    expected.search.push_back(directory.Search(q, 5));
  }
  return expected;
}

/// Validates one OK response against the oracle of its reported version.
/// Returns an empty string on bit-exact match.
std::string Validate(const QueryResponse& response, size_t doc_index,
                     size_t query_index,
                     const std::map<uint64_t, ExpectedAtVersion>& oracle) {
  auto it = oracle.find(response.snapshot_version);
  if (it == oracle.end()) {
    return "unknown snapshot version " +
           std::to_string(response.snapshot_version);
  }
  std::ostringstream err;
  if (doc_index != static_cast<size_t>(-1)) {
    const DatabaseDirectory::Classification& want =
        it->second.classify[doc_index];
    if (response.classification.entry != want.entry ||
        response.classification.similarity != want.similarity) {
      err << "classify doc " << doc_index << " @v"
          << response.snapshot_version << ": got ("
          << response.classification.entry << ", "
          << response.classification.similarity << ") want (" << want.entry
          << ", " << want.similarity << ")";
      return err.str();
    }
  } else {
    const std::vector<DatabaseDirectory::SearchHit>& want =
        it->second.search[query_index];
    if (response.hits.size() != want.size()) {
      return "search size mismatch @v" +
             std::to_string(response.snapshot_version);
    }
    for (size_t i = 0; i < want.size(); ++i) {
      if (response.hits[i].entry != want[i].entry ||
          response.hits[i].similarity != want[i].similarity) {
        err << "search " << query_index << " hit " << i << " @v"
            << response.snapshot_version << " differs";
        return err.str();
      }
    }
  }
  return "";
}

class ServeEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Probe documents: the base collection, frozen before any refresh.
    Corpus oracle_corpus = GrowCorpus(kBaseSeed, kBasePages);
    DatabaseDirectory oracle = BuildDirectory(oracle_corpus);
    docs_ = new std::vector<forms::FormPageDocument>();
    for (const DatasetEntry& e : oracle_corpus.entries()) {
      docs_->push_back(e.doc);
    }
    // Oracle table: serial answers at version 1, then after each refresh
    // batch (versions 2 .. kRefreshRounds+1). The server replays the same
    // batches; the determinism contract makes the replica bit-identical.
    oracle_ = new std::map<uint64_t, ExpectedAtVersion>();
    (*oracle_)[1] = Snapshot(oracle, *docs_);
    for (size_t r = 0; r < kRefreshRounds; ++r) {
      Corpus batch = GrowCorpus(BatchSeed(r), kBatchPages);
      ASSERT_TRUE(oracle_corpus.AddPages(batch.TakeEntries()).ok());
      ASSERT_TRUE(oracle.Refresh(oracle_corpus).ok());
      (*oracle_)[2 + r] = Snapshot(oracle, *docs_);
    }
  }
  static void TearDownTestSuite() {
    delete docs_;
    delete oracle_;
    docs_ = nullptr;
    oracle_ = nullptr;
  }

  static uint32_t BatchSeed(size_t round) {
    return 100 + static_cast<uint32_t>(round);
  }

  static std::vector<forms::FormPageDocument>* docs_;
  static std::map<uint64_t, ExpectedAtVersion>* oracle_;
};

std::vector<forms::FormPageDocument>* ServeEquivalenceTest::docs_ = nullptr;
std::map<uint64_t, ExpectedAtVersion>* ServeEquivalenceTest::oracle_ =
    nullptr;

TEST_F(ServeEquivalenceTest, EveryWorkerCountMatchesSerialBitExactly) {
  for (size_t workers : {1u, 2u, 4u, 8u}) {
    Corpus corpus = GrowCorpus(kBaseSeed, kBasePages);
    DatabaseDirectory directory = BuildDirectory(corpus);
    DirectoryServerOptions options;
    options.workers = workers;
    options.queue_capacity = 1024;
    DirectoryServer server(std::move(directory), std::move(corpus), options);

    constexpr size_t kClients = 4;
    constexpr size_t kPerClient = 24;
    std::mutex failures_mutex;
    std::vector<std::string> failures;
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (size_t i = 0; i < kPerClient; ++i) {
          const size_t pick = (c * kPerClient + i * 7) % (docs_->size() + 5);
          QueryRequest request;
          size_t doc_index = static_cast<size_t>(-1);
          size_t query_index = 0;
          if (pick < docs_->size()) {
            request.kind = QueryKind::kClassify;
            request.doc = (*docs_)[pick];
            doc_index = pick;
          } else {
            request.kind = QueryKind::kSearch;
            query_index = pick - docs_->size();
            request.query = kQueries[query_index];
          }
          QueryResponse response = server.Query(std::move(request));
          if (!response.status.ok()) {
            std::lock_guard<std::mutex> lock(failures_mutex);
            failures.push_back(response.status.ToString());
            continue;
          }
          std::string err =
              Validate(response, doc_index, query_index, *oracle_);
          if (!err.empty()) {
            std::lock_guard<std::mutex> lock(failures_mutex);
            failures.push_back("workers=" + std::to_string(workers) + ": " +
                               err);
          }
        }
      });
    }
    for (std::thread& t : clients) t.join();
    EXPECT_TRUE(failures.empty())
        << failures.size() << " mismatches at workers=" << workers
        << ", first: " << failures.front();
    EXPECT_EQ(server.Stats().completed, kClients * kPerClient);
  }
}

TEST_F(ServeEquivalenceTest, RefreshStormUnderLoadHasNoTornEpoch) {
  Corpus corpus = GrowCorpus(kBaseSeed, kBasePages);
  DatabaseDirectory directory = BuildDirectory(corpus);
  DirectoryServerOptions options;
  options.workers = 4;
  options.queue_capacity = 4096;
  DirectoryServer server(std::move(directory), std::move(corpus), options);

  std::atomic<bool> stop{false};
  std::mutex failures_mutex;
  std::vector<std::string> failures;
  std::atomic<uint64_t> versions_seen_mask{0};

  constexpr size_t kClients = 4;
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      size_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const size_t pick = (c + i * 13) % (docs_->size() + 5);
        QueryRequest request;
        size_t doc_index = static_cast<size_t>(-1);
        size_t query_index = 0;
        if (pick < docs_->size()) {
          request.kind = QueryKind::kClassify;
          request.doc = (*docs_)[pick];
          doc_index = pick;
        } else {
          request.kind = QueryKind::kSearch;
          query_index = pick - docs_->size();
          request.query = kQueries[query_index];
        }
        QueryResponse response = server.Query(std::move(request));
        ++i;
        if (!response.status.ok()) continue;  // shed under storm: fine
        versions_seen_mask.fetch_or(uint64_t{1}
                                        << response.snapshot_version,
                                    std::memory_order_relaxed);
        // A torn epoch — any field computed against a different snapshot
        // than the one the response claims — fails this bit-exact check.
        std::string err = Validate(response, doc_index, query_index, *oracle_);
        if (!err.empty()) {
          std::lock_guard<std::mutex> lock(failures_mutex);
          failures.push_back(err);
        }
      }
    });
  }

  // The storm: all refresh batches scheduled while clients hammer away.
  for (size_t r = 0; r < kRefreshRounds; ++r) {
    Corpus batch = GrowCorpus(BatchSeed(r), kBatchPages);
    ASSERT_TRUE(server.ScheduleRefresh(batch.TakeEntries()).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  server.WaitForRefreshes();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stop.store(true);
  for (std::thread& t : clients) t.join();

  EXPECT_TRUE(failures.empty())
      << failures.size() << " torn/mismatched responses, first: "
      << failures.front();
  EXPECT_EQ(server.snapshot()->version(), 1 + kRefreshRounds);
  EXPECT_EQ(server.Stats().refreshes, kRefreshRounds);
  EXPECT_EQ(server.Stats().refresh_failures, 0u);
  // The final epoch is always observed by the post-storm queries; earlier
  // epochs may or may not be, depending on scheduling.
  EXPECT_NE(versions_seen_mask.load() &
                (uint64_t{1} << (1 + kRefreshRounds)),
            0u);

  // After the storm settles, serial and served answers agree at the final
  // version for every probe document.
  for (size_t i = 0; i < docs_->size(); ++i) {
    QueryRequest request;
    request.kind = QueryKind::kClassify;
    request.doc = (*docs_)[i];
    QueryResponse response = server.Query(std::move(request));
    ASSERT_TRUE(response.status.ok());
    EXPECT_EQ(response.snapshot_version, 1 + kRefreshRounds);
    std::string err = Validate(response, i, 0, *oracle_);
    EXPECT_TRUE(err.empty()) << err;
  }
}

}  // namespace
}  // namespace cafc
