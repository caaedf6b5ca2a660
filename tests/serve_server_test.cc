// Unit tests of the DirectoryServer: serial-equivalent answers, admission
// control (queue-full backpressure), deadline expiry in the queue, padded
// service overlapping across workers, idempotent draining shutdown, and
// refresh hot-swap publication.

#include "serve/server.h"

#include <future>
#include <memory>
#include <string>
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

using serve::DirectoryServer;
using serve::DirectoryServerOptions;
using serve::QueryKind;
using serve::QueryRequest;
using serve::QueryResponse;
using serve::ServerStats;

QueryRequest ClassifyRequest(const forms::FormPageDocument& doc) {
  QueryRequest request;
  request.kind = QueryKind::kClassify;
  request.doc = doc;
  return request;
}

QueryRequest SearchRequest(std::string query, size_t top_k = 5) {
  QueryRequest request;
  request.kind = QueryKind::kSearch;
  request.query = std::move(query);
  request.top_k = top_k;
  return request;
}

TEST(DirectoryServerTest, AnswersMatchSerialLibraryCallsBitExactly) {
  Corpus corpus = GrowCorpus(21, 48);
  DatabaseDirectory directory = BuildDirectory(corpus);
  // Replica: same seeds, same build — bit-identical by the determinism
  // contract. Serves as the serial oracle while the server owns its copy.
  Corpus oracle_corpus = GrowCorpus(21, 48);
  DatabaseDirectory oracle = BuildDirectory(oracle_corpus);

  std::vector<forms::FormPageDocument> docs;
  for (const DatasetEntry& e : oracle_corpus.entries()) docs.push_back(e.doc);

  DirectoryServerOptions options;
  options.workers = 3;
  DirectoryServer server(std::move(directory), std::move(corpus), options);

  ASSERT_EQ(server.snapshot()->version(), 1u);

  std::vector<std::future<QueryResponse>> futures;
  for (const forms::FormPageDocument& doc : docs) {
    futures.push_back(server.Submit(ClassifyRequest(doc)));
  }
  for (size_t i = 0; i < docs.size(); ++i) {
    QueryResponse response = futures[i].get();
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_EQ(response.snapshot_version, 1u);
    DatabaseDirectory::Classification expected =
        oracle.ClassifyDocument(docs[i]);
    EXPECT_EQ(response.classification.entry, expected.entry) << "doc " << i;
    EXPECT_EQ(response.classification.similarity, expected.similarity)
        << "doc " << i;  // exact doubles, not NEAR
    EXPECT_GE(response.queue_ms, 0.0);
    EXPECT_GE(response.service_ms, 0.0);
  }

  for (const char* q : {"job career", "hotel room flight", "music cd"}) {
    QueryResponse response = server.Query(SearchRequest(q));
    ASSERT_TRUE(response.status.ok());
    auto expected = oracle.Search(q, 5);
    ASSERT_EQ(response.hits.size(), expected.size()) << q;
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(response.hits[i].entry, expected[i].entry) << q;
      EXPECT_EQ(response.hits[i].similarity, expected[i].similarity) << q;
    }
  }

  ServerStats stats = server.Stats();
  EXPECT_EQ(stats.submitted, docs.size() + 3);
  EXPECT_EQ(stats.accepted, docs.size() + 3);
  EXPECT_EQ(stats.completed, docs.size() + 3);
  EXPECT_EQ(stats.rejected_queue_full, 0u);
  EXPECT_EQ(stats.total_us.count(), docs.size() + 3);
}

TEST(DirectoryServerTest, FullQueueRejectsWithUnavailable) {
  Corpus corpus = GrowCorpus(21, 24);
  DatabaseDirectory directory = BuildDirectory(corpus, 4);
  DirectoryServerOptions options;
  options.workers = 1;
  options.queue_capacity = 1;
  options.service_pad_ms = 100.0;  // each request holds the worker ~100 ms
  DirectoryServer server(std::move(directory), std::move(corpus), options);

  // Three instant submissions against one slow worker and a queue of one:
  // at most one executes immediately and one waits; the rest MUST bounce.
  std::vector<std::future<QueryResponse>> futures;
  for (int i = 0; i < 3; ++i) {
    futures.push_back(server.Submit(SearchRequest("job")));
  }
  size_t ok = 0;
  size_t unavailable = 0;
  for (auto& f : futures) {
    QueryResponse response = f.get();
    if (response.status.ok()) {
      ++ok;
    } else {
      EXPECT_EQ(response.status.code(), StatusCode::kUnavailable);
      ++unavailable;
    }
  }
  EXPECT_GE(unavailable, 1u);
  EXPECT_GE(ok, 1u);

  ServerStats stats = server.Stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.accepted + stats.rejected_queue_full, 3u);
  EXPECT_EQ(stats.rejected_queue_full, unavailable);
  // Rejected submissions never reach a worker, so no latency is recorded
  // for them.
  EXPECT_EQ(stats.total_us.count(), stats.accepted);
}

TEST(DirectoryServerTest, DeadlineBurnedInQueueIsDeadlineExceeded) {
  Corpus corpus = GrowCorpus(21, 24);
  DatabaseDirectory directory = BuildDirectory(corpus, 4);
  DirectoryServerOptions options;
  options.workers = 1;
  options.queue_capacity = 8;
  options.service_pad_ms = 150.0;
  DirectoryServer server(std::move(directory), std::move(corpus), options);

  // First request occupies the single worker for ~150 ms; the second has a
  // 1 ms budget and must expire while queued.
  std::future<QueryResponse> slow = server.Submit(SearchRequest("job"));
  QueryRequest doomed = SearchRequest("hotel");
  doomed.deadline_ms = 1.0;
  QueryResponse response = server.Submit(std::move(doomed)).get();
  EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_GT(response.queue_ms, 1.0);
  EXPECT_TRUE(slow.get().status.ok());

  ServerStats stats = server.Stats();
  EXPECT_EQ(stats.deadline_exceeded, 1u);
  EXPECT_EQ(stats.completed, 1u);
}

TEST(DirectoryServerTest, PaddedRequestsOverlapAcrossWorkers) {
  // The service pad stands in for per-request downstream I/O inside the
  // worker, so padded requests must run side by side on separate workers
  // and in line on one. Checked on each request's queue wait, not on a
  // throughput ratio. With one worker per request, no request waits for
  // a pad to end: all of them are in service at once. With one worker,
  // the i-th request waits behind i whole pads.
  constexpr double kPadMs = 150.0;
  constexpr size_t kRequests = 4;
  for (size_t workers : {kRequests, size_t{1}}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    Corpus corpus = GrowCorpus(21, 24);
    DatabaseDirectory directory = BuildDirectory(corpus, 4);
    DirectoryServerOptions options;
    options.workers = workers;
    options.service_pad_ms = kPadMs;
    DirectoryServer server(std::move(directory), std::move(corpus), options);

    std::vector<std::future<QueryResponse>> futures;
    for (size_t i = 0; i < kRequests; ++i) {
      futures.push_back(server.Submit(SearchRequest("job")));
    }
    for (size_t i = 0; i < kRequests; ++i) {
      QueryResponse response = futures[i].get();
      ASSERT_TRUE(response.status.ok()) << response.status.ToString();
      EXPECT_GE(response.service_ms, kPadMs);
      if (workers == kRequests) {
        EXPECT_LT(response.queue_ms, kPadMs / 2) << "request " << i;
      } else {
        EXPECT_GE(response.queue_ms, (static_cast<double>(i) - 0.5) * kPadMs)
            << "request " << i;
      }
    }
  }
}

TEST(DirectoryServerTest, ShutdownDrainsThenRejectsAndIsIdempotent) {
  Corpus corpus = GrowCorpus(21, 24);
  DatabaseDirectory directory = BuildDirectory(corpus, 4);
  DirectoryServerOptions options;
  options.workers = 2;
  options.service_pad_ms = 20.0;
  DirectoryServer server(std::move(directory), std::move(corpus), options);

  std::vector<std::future<QueryResponse>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(server.Submit(SearchRequest("flight")));
  }
  server.Shutdown();
  // Every admitted request was answered before Shutdown returned — the
  // queue drains, it is not dropped.
  for (auto& f : futures) {
    EXPECT_TRUE(f.get().status.ok());
  }
  EXPECT_EQ(server.Stats().completed, 6u);

  QueryResponse late = server.Query(SearchRequest("job"));
  EXPECT_EQ(late.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(server.Stats().rejected_stopped, 1u);
  EXPECT_EQ(server.ScheduleRefresh({}).code(), StatusCode::kUnavailable);

  server.Shutdown();  // second call: no deadlock, no crash
  EXPECT_EQ(server.Stats().completed, 6u);
}

TEST(DirectoryServerTest, RefreshPublishesNewEpochMatchingSerialRefresh) {
  Corpus corpus = GrowCorpus(21, 48);
  DatabaseDirectory directory = BuildDirectory(corpus);
  // Serial oracle replica, advanced through the same refresh.
  Corpus oracle_corpus = GrowCorpus(21, 48);
  DatabaseDirectory oracle = BuildDirectory(oracle_corpus);

  DirectoryServerOptions options;
  options.workers = 2;
  DirectoryServer server(std::move(directory), std::move(corpus), options);
  const uint64_t epoch_before = server.snapshot()->corpus_epoch();

  Corpus incoming = GrowCorpus(22, 16);
  Corpus incoming_replica = GrowCorpus(22, 16);
  ASSERT_TRUE(server.ScheduleRefresh(incoming.TakeEntries()).ok());
  server.WaitForRefreshes();

  ASSERT_TRUE(oracle_corpus.AddPages(incoming_replica.TakeEntries()).ok());
  ASSERT_TRUE(oracle.Refresh(oracle_corpus).ok());

  serve::SnapshotPtr snap = server.snapshot();
  EXPECT_EQ(snap->version(), 2u);
  EXPECT_GT(snap->corpus_epoch(), epoch_before);
  EXPECT_EQ(snap->corpus_epoch(), oracle_corpus.epoch());

  // Post-refresh answers are bit-identical to the serial refresh path.
  for (const DatasetEntry& e : oracle_corpus.entries()) {
    QueryResponse response = server.Query(ClassifyRequest(e.doc));
    ASSERT_TRUE(response.status.ok());
    EXPECT_EQ(response.snapshot_version, 2u);
    DatabaseDirectory::Classification expected = oracle.ClassifyDocument(e.doc);
    EXPECT_EQ(response.classification.entry, expected.entry);
    EXPECT_EQ(response.classification.similarity, expected.similarity);
  }

  ServerStats stats = server.Stats();
  EXPECT_EQ(stats.refreshes, 1u);
  EXPECT_EQ(stats.epochs_published, 1u);
  EXPECT_EQ(stats.refresh_failures, 0u);
}

TEST(DirectoryServerTest, RefreshFailureKeepsServingOldSnapshot) {
  // An empty directory makes Refresh fail its precondition; the server
  // must count the failure and keep the published snapshot untouched.
  DatabaseDirectory empty;
  Corpus corpus;
  DirectoryServerOptions options;
  options.workers = 1;
  DirectoryServer server(std::move(empty), std::move(corpus), options);

  Corpus incoming = GrowCorpus(22, 8);
  ASSERT_TRUE(server.ScheduleRefresh(incoming.TakeEntries()).ok());
  server.WaitForRefreshes();

  EXPECT_EQ(server.snapshot()->version(), 1u);
  ServerStats stats = server.Stats();
  EXPECT_EQ(stats.refreshes, 0u);
  EXPECT_EQ(stats.refresh_failures, 1u);

  // Still serving: an empty directory classifies to entry -1, OK status.
  QueryResponse response =
      server.Query(ClassifyRequest(forms::FormPageDocument{}));
  EXPECT_TRUE(response.status.ok());
  EXPECT_EQ(response.classification.entry, -1);
}

TEST(DirectoryServerTest, SupersededSnapshotsAreFreedAfterRefresh) {
  // Bounded retention: once no request pins it, a superseded snapshot is
  // freed, so a server that refreshes forever holds one directory clone,
  // not one per refresh.
  Corpus corpus = GrowCorpus(21, 48);
  DatabaseDirectory directory = BuildDirectory(corpus);
  DirectoryServerOptions options;
  options.workers = 2;
  DirectoryServer server(std::move(directory), std::move(corpus), options);
  ASSERT_TRUE(server.Query(SearchRequest("hotel rooms")).status.ok());

  std::vector<std::weak_ptr<const serve::DirectorySnapshot>> superseded;
  for (uint32_t seed : {22u, 23u, 24u}) {
    superseded.push_back(server.snapshot());
    Corpus incoming = GrowCorpus(seed, 16);
    ASSERT_TRUE(server.ScheduleRefresh(incoming.TakeEntries()).ok());
    server.WaitForRefreshes();
  }

  EXPECT_EQ(server.Stats().refreshes, 3u);
  EXPECT_EQ(server.snapshot()->version(), 4u);
  for (size_t v = 0; v < superseded.size(); ++v) {
    EXPECT_TRUE(superseded[v].expired()) << "version " << v + 1;
  }
}

}  // namespace
}  // namespace cafc
