// Tests of the epoch-keyed result cache: exact-version freshness, LRU
// byte budgeting, the stale LookupAny degradation path, and — through a
// live DirectoryServer driven by seeded workloads — the serving
// invariants: a Zipfian mix answers bit-identically with the cache on and
// off and reaches the hit-rate floor its skew predicts, and across a
// refresh storm with degradation on, no answer computed at snapshot N is
// ever served after N+1 published without the stale flag.

#include "serve/result_cache.h"

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/cafc.h"
#include "core/corpus.h"
#include "core/ingest.h"
#include "serve/server.h"
#include "util/rng.h"
#include "web/synthesizer.h"
#include "workload/workload.h"
#include "fixtures.h"

namespace cafc {
namespace {

using test::BuildDirectory;
using test::GrowCorpus;

using serve::CachedAnswer;
using serve::ResultCache;
using serve::ResultCacheStats;

CachedAnswer SearchAnswer(uint64_t version, size_t num_hits) {
  CachedAnswer answer;
  answer.is_search = true;
  answer.snapshot_version = version;
  answer.corpus_epoch = version;
  for (size_t i = 0; i < num_hits; ++i) {
    DatabaseDirectory::SearchHit hit;
    hit.entry = static_cast<int>(i);
    hit.similarity = 1.0 / static_cast<double>(i + 1);
    answer.hits.push_back(hit);
  }
  return answer;
}

TEST(ResultCacheTest, FreshHitRequiresExactSnapshotVersion) {
  ResultCache cache(1 << 20);
  cache.Insert("key", SearchAnswer(3, 2));

  CachedAnswer out;
  ASSERT_TRUE(cache.Lookup("key", 3, &out));
  EXPECT_EQ(out.snapshot_version, 3u);
  ASSERT_EQ(out.hits.size(), 2u);
  EXPECT_EQ(out.hits[0].entry, 0);
  EXPECT_EQ(out.hits[1].similarity, 0.5);  // exact doubles

  // A version bump invalidates wholesale: the same key misses fresh...
  EXPECT_FALSE(cache.Lookup("key", 4, &out));
  EXPECT_FALSE(cache.Lookup("key", 2, &out));
  // ...but stays reachable through the degradation path.
  ASSERT_TRUE(cache.LookupAny("key", &out));
  EXPECT_EQ(out.snapshot_version, 3u);

  ResultCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.stale_hits, 1u);
}

TEST(ResultCacheTest, MissOnAbsentKey) {
  ResultCache cache(1 << 20);
  CachedAnswer out;
  EXPECT_FALSE(cache.Lookup("absent", 1, &out));
  EXPECT_FALSE(cache.LookupAny("absent", &out));
  EXPECT_EQ(cache.Stats().misses, 1u);
}

TEST(ResultCacheTest, InsertReplacesSameKey) {
  ResultCache cache(1 << 20);
  cache.Insert("key", SearchAnswer(1, 1));
  cache.Insert("key", SearchAnswer(2, 3));
  EXPECT_EQ(cache.Stats().entries, 1u);
  CachedAnswer out;
  EXPECT_FALSE(cache.Lookup("key", 1, &out));  // superseded
  ASSERT_TRUE(cache.Lookup("key", 2, &out));
  EXPECT_EQ(out.hits.size(), 3u);
}

TEST(ResultCacheTest, LruEvictionHoldsByteBudget) {
  // Budget sized for only a few entries; a steady stream must evict.
  ResultCache cache(600);
  for (int i = 0; i < 64; ++i) {
    cache.Insert("key-" + std::to_string(i), SearchAnswer(1, 2));
  }
  ResultCacheStats stats = cache.Stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.bytes, 600u);
  EXPECT_LT(stats.entries, 64u);
  // The newest entry always survives its own insert.
  CachedAnswer out;
  EXPECT_TRUE(cache.Lookup("key-63", 1, &out));
  EXPECT_FALSE(cache.Lookup("key-0", 1, &out));
}

TEST(ResultCacheTest, FreshLookupRefreshesLruStaleLookupDoesNot) {
  // Budget fits exactly two of these entries (each ~ key + 2 hits + 128).
  const size_t entry_bytes = 5 + 2 * sizeof(DatabaseDirectory::SearchHit) +
                             128;
  ResultCache cache(2 * entry_bytes);
  CachedAnswer out;

  cache.Insert("old-a", SearchAnswer(1, 2));
  cache.Insert("old-b", SearchAnswer(1, 2));
  ASSERT_TRUE(cache.Lookup("old-a", 1, &out));  // refreshes a to MRU
  cache.Insert("new-c", SearchAnswer(1, 2));    // evicts b, not a
  EXPECT_TRUE(cache.Lookup("old-a", 1, &out));
  EXPECT_FALSE(cache.Lookup("old-b", 1, &out));

  cache.Clear();
  cache.Insert("old-a", SearchAnswer(1, 2));
  cache.Insert("old-b", SearchAnswer(1, 2));
  ASSERT_TRUE(cache.LookupAny("old-a", &out));  // no LRU refresh
  cache.Insert("new-c", SearchAnswer(1, 2));    // evicts a (still LRU tail)
  EXPECT_FALSE(cache.Lookup("old-a", 1, &out));
  EXPECT_TRUE(cache.Lookup("old-b", 1, &out));
}

TEST(ResultCacheTest, ZeroBudgetDisablesAndOversizeIsDropped) {
  ResultCache off(0);
  off.Insert("key", SearchAnswer(1, 1));
  CachedAnswer out;
  EXPECT_FALSE(off.Lookup("key", 1, &out));
  EXPECT_EQ(off.Stats().entries, 0u);

  ResultCache tiny(64);  // smaller than any single entry's estimate
  tiny.Insert("key", SearchAnswer(1, 8));
  EXPECT_FALSE(tiny.LookupAny("key", &out));
  EXPECT_EQ(tiny.Stats().entries, 0u);
}

TEST(ResultCacheTest, ClearDropsEntriesKeepsCounters) {
  ResultCache cache(1 << 20);
  cache.Insert("key", SearchAnswer(1, 1));
  CachedAnswer out;
  ASSERT_TRUE(cache.Lookup("key", 1, &out));
  cache.Clear();
  EXPECT_FALSE(cache.Lookup("key", 1, &out));
  ResultCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(stats.hits, 1u);  // lifetime counters survive Clear
  EXPECT_EQ(stats.inserts, 1u);
}

// ---------------------------------------------------------------------
// Refresh-storm invariant through the full server.

/// submitted must equal the sum of every admission outcome: the ledger
/// that catches a response path forgetting to account itself.
bool AccountingCloses(const serve::ServerStats& stats) {
  return stats.submitted == stats.accepted + stats.rejected_queue_full +
                                stats.rejected_stopped + stats.cache_hits +
                                stats.stale_served;
}

serve::QueryRequest SearchRequest(std::string query) {
  serve::QueryRequest request;
  request.kind = serve::QueryKind::kSearch;
  request.query = std::move(query);
  request.top_k = 5;
  return request;
}

TEST(ResultCacheStormTest, NoSupersededAnswerServedUnflaggedAcrossSwaps) {
  Corpus corpus = GrowCorpus(21, 48);
  DatabaseDirectory directory = BuildDirectory(corpus);

  serve::DirectoryServerOptions options;
  options.workers = 2;
  options.cache_bytes = 1 << 20;
  serve::DirectoryServer server(std::move(directory), std::move(corpus),
                                options);

  const std::vector<std::string> queries = {
      "job career", "hotel room flight", "music cd", "book author",
      "car rental"};
  constexpr int kSwaps = 5;

  uint64_t fresh_hits = 0;
  for (int round = 0; round <= kSwaps; ++round) {
    if (round > 0) {
      // One refresh batch per round: the 5-swap storm.
      Corpus incoming = GrowCorpus(100 + static_cast<uint32_t>(round), 24);
      ASSERT_TRUE(server.ScheduleRefresh(incoming.TakeEntries()).ok());
      server.WaitForRefreshes();
    }
    const uint64_t version = server.snapshot()->version();
    ASSERT_EQ(version, static_cast<uint64_t>(round) + 1);

    for (int pass = 0; pass < 2; ++pass) {
      for (const std::string& q : queries) {
        serve::QueryResponse response = server.Query(SearchRequest(q));
        ASSERT_TRUE(response.status.ok()) << response.status.ToString();
        // The invariant: without the stale flag, the answer must carry
        // the currently published snapshot version — a cached epoch-N
        // answer must never leak through after N+1 published. (No
        // refresh is in flight here, so the published version is
        // stable across the Query call.)
        EXPECT_FALSE(response.stale);
        EXPECT_EQ(response.snapshot_version, version)
            << "round " << round << " query " << q;
        if (response.cache_hit) ++fresh_hits;
      }
    }
  }

  // The second pass of every round ran at an unchanged version, so the
  // cache must have produced fresh hits (warm-pass hit rate).
  EXPECT_GE(fresh_hits, static_cast<uint64_t>(kSwaps + 1) * queries.size());

  serve::ServerStats stats = server.Stats();
  EXPECT_EQ(stats.refreshes, static_cast<uint64_t>(kSwaps));
  EXPECT_EQ(stats.stale_served, 0u);  // never overloaded here
  // Accounting identity across the storm.
  EXPECT_EQ(stats.submitted, stats.accepted + stats.rejected_queue_full +
                                 stats.rejected_stopped + stats.cache_hits +
                                 stats.stale_served);
  server.Shutdown();
}

TEST(ResultCacheStormTest, CachedAnswerIsBitIdenticalToRecompute) {
  Corpus corpus = GrowCorpus(21, 48);
  DatabaseDirectory directory = BuildDirectory(corpus);
  Corpus oracle_corpus = GrowCorpus(21, 48);
  DatabaseDirectory oracle = BuildDirectory(oracle_corpus);

  serve::DirectoryServerOptions options;
  options.workers = 2;
  options.cache_bytes = 1 << 20;
  serve::DirectoryServer server(std::move(directory), std::move(corpus),
                                options);

  for (const char* q : {"job career", "hotel room flight"}) {
    serve::QueryResponse cold = server.Query(SearchRequest(q));
    ASSERT_TRUE(cold.status.ok());
    EXPECT_FALSE(cold.cache_hit);
    serve::QueryResponse warm = server.Query(SearchRequest(q));
    ASSERT_TRUE(warm.status.ok());
    EXPECT_TRUE(warm.cache_hit);

    auto expected = oracle.Search(q, 5);
    ASSERT_EQ(warm.hits.size(), expected.size()) << q;
    ASSERT_EQ(warm.hits.size(), cold.hits.size()) << q;
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(warm.hits[i].entry, expected[i].entry) << q;
      EXPECT_EQ(warm.hits[i].similarity, expected[i].similarity) << q;
      EXPECT_EQ(warm.hits[i].entry, cold.hits[i].entry) << q;
      EXPECT_EQ(warm.hits[i].similarity, cold.hits[i].similarity) << q;
    }
  }
  server.Shutdown();
}

// ---------------------------------------------------------------------
// Seeded workloads through the full server.

/// A corpus, its directory, and the probe material a workload indexes:
/// one document per corpus page and the directory labels as the search
/// pool (popularity-rank order).
struct WorkloadBench {
  Corpus corpus = GrowCorpus(21, 48);
  DatabaseDirectory directory = BuildDirectory(corpus);
  std::vector<forms::FormPageDocument> docs;
  std::vector<std::string> search_pool;

  WorkloadBench() {
    for (const DatasetEntry& e : corpus.entries()) docs.push_back(e.doc);
    for (const auto& entry : directory.entries()) {
      search_pool.push_back(entry.label);
    }
  }

  serve::QueryRequest RequestFor(const workload::WorkloadEvent& event) const {
    serve::QueryRequest request;
    request.priority = event.priority;
    request.deadline_ms = event.deadline_ms;
    if (event.is_classify) {
      request.kind = serve::QueryKind::kClassify;
      request.doc = docs[event.page_index % docs.size()];
    } else {
      request.kind = serve::QueryKind::kSearch;
      request.query = event.query;
      request.top_k = event.top_k;
    }
    return request;
  }
};

TEST(WorkloadCacheTest, ZipfMixMatchesCacheOffAndReachesHitRateFloor) {
  constexpr double kHitRateFloor = 0.50;
  WorkloadBench bench;
  workload::WorkloadOptions mix;
  mix.seed = 11;
  mix.num_events = 800;
  mix.zipf_s = 1.1;
  mix.closed_loop_clients = 4;
  const workload::Workload schedule =
      workload::GenerateWorkload(mix, bench.docs.size(), bench.search_pool);

  // Closed loop: each virtual client walks its own events in order, so
  // every event index is written by exactly one thread.
  auto run = [&](size_t cache_bytes, serve::ServerStats* stats) {
    Corpus corpus = GrowCorpus(21, 48);
    DatabaseDirectory directory = BuildDirectory(corpus);
    serve::DirectoryServerOptions options;
    options.workers = 4;
    options.queue_capacity = 4096;
    options.cache_bytes = cache_bytes;
    serve::DirectoryServer server(std::move(directory), std::move(corpus),
                                  options);
    std::vector<serve::QueryResponse> responses(schedule.events.size());
    std::vector<std::thread> clients;
    for (size_t c = 0; c < mix.closed_loop_clients; ++c) {
      clients.emplace_back([&, c] {
        for (size_t i = 0; i < schedule.events.size(); ++i) {
          if (schedule.events[i].client != c) continue;
          responses[i] = server.Query(bench.RequestFor(schedule.events[i]));
        }
      });
    }
    for (std::thread& t : clients) t.join();
    *stats = server.Stats();
    server.Shutdown();
    return responses;
  };
  serve::ServerStats off_stats;
  serve::ServerStats on_stats;
  const std::vector<serve::QueryResponse> off = run(0, &off_stats);
  const std::vector<serve::QueryResponse> on = run(16u << 20, &on_stats);

  for (size_t i = 0; i < schedule.events.size(); ++i) {
    ASSERT_TRUE(off[i].status.ok()) << i;
    ASSERT_TRUE(on[i].status.ok()) << i;
    EXPECT_EQ(on[i].snapshot_version, off[i].snapshot_version) << i;
    EXPECT_EQ(on[i].classification.entry, off[i].classification.entry) << i;
    EXPECT_EQ(on[i].classification.similarity,
              off[i].classification.similarity)
        << i;
    ASSERT_EQ(on[i].hits.size(), off[i].hits.size()) << i;
    for (size_t h = 0; h < on[i].hits.size(); ++h) {
      EXPECT_EQ(on[i].hits[h].entry, off[i].hits[h].entry) << i;
      EXPECT_EQ(on[i].hits[h].similarity, off[i].hits[h].similarity) << i;
    }
  }
  const uint64_t lookups = on_stats.cache_hits + on_stats.cache_misses;
  ASSERT_GT(lookups, 0u);
  EXPECT_GE(static_cast<double>(on_stats.cache_hits) /
                static_cast<double>(lookups),
            kHitRateFloor);
  EXPECT_TRUE(AccountingCloses(on_stats));
  EXPECT_TRUE(AccountingCloses(off_stats));
}

TEST(WorkloadCacheTest, DegradedRefreshStormNeverServesStaleUnflagged) {
  // Small queue, priority scheduling, cache and every degradation mode on,
  // five snapshot swaps under open-loop bursts. Every OK answer must be
  // flagged stale if it predates the snapshot published when it was
  // submitted, must equal the serial oracle of the version it claims (a
  // degraded search: an exact prefix of it), and the ledger must close.
  constexpr size_t kSwaps = 5;
  WorkloadBench bench;
  auto round_batch = [](size_t round) {
    return GrowCorpus(100 + static_cast<uint32_t>(round), 24);
  };

  // Serial oracle per snapshot version: a replica advanced through the
  // same batches (bit-identical by the determinism contract).
  struct Expected {
    std::vector<DatabaseDirectory::Classification> classify;
    std::vector<std::vector<DatabaseDirectory::SearchHit>> search;
  };
  std::map<uint64_t, Expected> oracle;
  {
    Corpus replica_corpus = GrowCorpus(21, 48);
    DatabaseDirectory replica = BuildDirectory(replica_corpus);
    for (size_t version = 1; version <= 1 + kSwaps; ++version) {
      if (version > 1) {
        ASSERT_TRUE(replica_corpus
                        .AddPages(round_batch(version - 1).TakeEntries())
                        .ok());
        ASSERT_TRUE(replica.Refresh(replica_corpus).ok());
      }
      Expected& want = oracle[version];
      for (const forms::FormPageDocument& doc : bench.docs) {
        want.classify.push_back(replica.ClassifyDocument(doc));
      }
      for (const std::string& q : bench.search_pool) {
        want.search.push_back(replica.Search(q, 5));
      }
    }
  }
  std::unordered_map<std::string, size_t> search_index;
  for (size_t i = 0; i < bench.search_pool.size(); ++i) {
    search_index.emplace(bench.search_pool[i], i);
  }
  auto matches = [&](const serve::QueryResponse& response,
                     const workload::WorkloadEvent& event) {
    auto it = oracle.find(response.snapshot_version);
    if (it == oracle.end()) return false;
    if (event.is_classify) {
      const DatabaseDirectory::Classification& want =
          it->second.classify[event.page_index % bench.docs.size()];
      return response.classification.entry == want.entry &&
             response.classification.similarity == want.similarity;
    }
    const auto& want = it->second.search[search_index.at(event.query)];
    if (response.degraded ? response.hits.size() > want.size()
                          : response.hits.size() != want.size()) {
      return false;
    }
    for (size_t h = 0; h < response.hits.size(); ++h) {
      if (response.hits[h].entry != want[h].entry ||
          response.hits[h].similarity != want[h].similarity) {
        return false;
      }
    }
    return true;
  };

  workload::WorkloadOptions storm_mix;
  storm_mix.seed = 23;
  storm_mix.num_events = 512;
  storm_mix.arrival.shape = workload::ArrivalShape::kDiurnal;
  storm_mix.classes = {
      {"interactive", serve::QueryPriority::kInteractive, 0.3, 0.5, 40.0},
      {"standard", serve::QueryPriority::kStandard, 0.7, 0.5, 0.0},
  };
  const workload::Workload schedule = workload::GenerateWorkload(
      storm_mix, bench.docs.size(), bench.search_pool);

  Corpus corpus = GrowCorpus(21, 48);
  DatabaseDirectory directory = BuildDirectory(corpus);
  serve::DirectoryServerOptions options;
  options.workers = 2;
  options.queue_capacity = 48;  // small: overload windows are the point
  options.service_pad_ms = 0.2;
  options.scheduling = serve::SchedulingPolicy::kPriorityDeadline;
  options.cache_bytes = 4u << 20;
  options.degrade.enabled = true;
  options.degrade.queue_high_water = 0.5;
  options.degrade.truncated_top_k = 1;
  options.degrade.serve_stale = true;
  serve::DirectoryServer server(std::move(directory), std::move(corpus),
                                options);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> responses{0};
  std::atomic<uint64_t> torn{0};
  std::atomic<uint64_t> stale_unflagged{0};
  constexpr size_t kClients = 4;
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      // Open-loop bursts: each round fires a batch of Submits before
      // draining any, so the clients together overrun the queue and the
      // stale-serve and truncation paths trigger during the storm.
      constexpr size_t kBatch = 24;
      size_t next = c;
      while (!stop.load(std::memory_order_relaxed)) {
        std::vector<std::pair<size_t, uint64_t>> issued;  // event, version
        std::vector<std::future<serve::QueryResponse>> inflight;
        for (size_t b = 0; b < kBatch; ++b) {
          const size_t event = next % schedule.events.size();
          next += kClients;
          // Versions only grow, so an OK answer older than the version
          // published before its Submit is stale and must say so.
          issued.emplace_back(event, server.snapshot()->version());
          inflight.push_back(
              server.Submit(bench.RequestFor(schedule.events[event])));
        }
        for (size_t b = 0; b < inflight.size(); ++b) {
          serve::QueryResponse response = inflight[b].get();
          if (!response.status.ok()) continue;
          responses.fetch_add(1, std::memory_order_relaxed);
          if (response.snapshot_version < issued[b].second &&
              !response.stale) {
            stale_unflagged.fetch_add(1, std::memory_order_relaxed);
          }
          if (!matches(response, schedule.events[issued[b].first])) {
            torn.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (size_t round = 1; round <= kSwaps; ++round) {
    EXPECT_TRUE(server.ScheduleRefresh(round_batch(round).TakeEntries()).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  server.WaitForRefreshes();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stop.store(true);
  for (std::thread& t : clients) t.join();

  const serve::ServerStats stats = server.Stats();
  EXPECT_EQ(stale_unflagged.load(), 0u);
  EXPECT_EQ(torn.load(), 0u);
  EXPECT_GT(responses.load(), 0u);
  EXPECT_EQ(stats.refreshes, kSwaps);
  EXPECT_EQ(server.snapshot()->version(), 1 + kSwaps);
  EXPECT_TRUE(AccountingCloses(stats));
  server.Shutdown();
}

}  // namespace
}  // namespace cafc
