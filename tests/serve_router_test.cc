// Tests of the scatter-gather ShardRouter over in-process RPC fleets:
// merged answers bit-identical to the unsharded directory at every shard
// and worker count, per-shard epoch echoes (never torn across a refresh
// storm), explicit and lossless partial results when a shard dies, stats
// aggregation, and the no-shards edge case.

#include "serve/shard_router.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/cafc.h"
#include "core/corpus.h"
#include "core/directory.h"
#include "core/ingest.h"
#include "core/partition.h"
#include "ipc/pipe.h"
#include "ipc/shard_rpc.h"
#include "serve/server.h"
#include "serve/shard_service.h"
#include "util/rng.h"
#include "web/synthesizer.h"
#include "fixtures.h"

namespace cafc {
namespace {

using test::BuildDirectory;
using test::BuildSiteDirectory;
using test::CorpusOf;
using test::Fleet;
using test::MakeGrowthWeb;

using serve::DirectoryServer;
using serve::DirectoryServerOptions;
using serve::DirectoryShardService;
using serve::RouterResponse;
using serve::ShardRouter;
using serve::ShardServiceHost;

TEST(ShardRouterTest, MergedAnswersBitIdenticalToUnshardedDirectory) {
  Corpus corpus = CorpusOf(MakeGrowthWeb(21, 48));
  DatabaseDirectory global = BuildDirectory(corpus);
  for (size_t num_shards : {1u, 2u, 3u, 4u, 8u}) {
    for (size_t workers : {1u, 8u}) {
      SCOPED_TRACE(std::to_string(num_shards) + " shards x " +
                   std::to_string(workers) + " workers");
      Fleet fleet = Fleet::Make(global, corpus, num_shards, {}, workers);
      for (const DatasetEntry& entry : corpus.entries()) {
        RouterResponse response = fleet.router->Classify(entry.doc);
        ASSERT_TRUE(response.status.ok()) << response.status.ToString();
        EXPECT_FALSE(response.partial);
        ASSERT_EQ(response.shards.size(), num_shards);
        for (const serve::ShardEcho& echo : response.shards) {
          EXPECT_TRUE(echo.status.ok());
          EXPECT_GE(echo.snapshot_version, 1u);
        }
        DatabaseDirectory::Classification want =
            global.ClassifyDocument(entry.doc);
        EXPECT_EQ(response.classification.entry, want.entry)
            << entry.doc.url;
        EXPECT_EQ(response.classification.similarity, want.similarity)
            << entry.doc.url;  // exact doubles
      }
      for (const char* query : {"job career", "hotel room", "music cd"}) {
        for (size_t top_k : {size_t{3}, global.size()}) {
          RouterResponse response = fleet.router->Search(query, top_k);
          ASSERT_TRUE(response.status.ok());
          auto want = global.Search(query, top_k);
          ASSERT_EQ(response.hits.size(), want.size())
              << query << " k=" << top_k;
          for (size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(response.hits[i].entry, want[i].entry) << query;
            EXPECT_EQ(response.hits[i].similarity, want[i].similarity)
                << query;
          }
        }
      }
    }
  }
}

TEST(ShardRouterTest, ClassifyFastPathBitIdenticalToScatter) {
  Corpus corpus = CorpusOf(MakeGrowthWeb(21, 48));
  DatabaseDirectory global = BuildDirectory(corpus);
  serve::RouterOptions fast_options;
  fast_options.classify_fast_path = true;
  for (size_t num_shards : {1u, 3u}) {
    Fleet scatter = Fleet::Make(global, corpus, num_shards);
    Fleet fast = Fleet::Make(global, corpus, num_shards, fast_options);
    for (const DatasetEntry& entry : corpus.entries()) {
      RouterResponse want = scatter.router->Classify(entry.doc);
      ASSERT_TRUE(want.status.ok()) << want.status.ToString();
      EXPECT_FALSE(want.fast_path);
      ASSERT_EQ(want.shards.size(), num_shards);

      RouterResponse got = fast.router->Classify(entry.doc);
      ASSERT_TRUE(got.status.ok()) << got.status.ToString();
      // One RPC instead of a scatter: a single (owning) shard echo.
      EXPECT_TRUE(got.fast_path);
      ASSERT_EQ(got.shards.size(), 1u);
      EXPECT_TRUE(got.shards[0].status.ok());
      // Bit-identity against both the scatter merge and the unsharded
      // oracle — the site partition puts every corpus page's winning
      // section on its own shard.
      EXPECT_EQ(got.classification.entry, want.classification.entry)
          << entry.doc.url;
      EXPECT_EQ(got.classification.similarity,
                want.classification.similarity)
          << entry.doc.url;  // exact doubles
      DatabaseDirectory::Classification oracle =
          global.ClassifyDocument(entry.doc);
      EXPECT_EQ(got.classification.entry, oracle.entry) << entry.doc.url;
      EXPECT_EQ(got.classification.similarity, oracle.similarity)
          << entry.doc.url;
    }
  }
}

TEST(ShardRouterTest, FastPathFallsBackToScatterForUrllessDocs) {
  Corpus corpus = CorpusOf(MakeGrowthWeb(21, 48));
  DatabaseDirectory global = BuildDirectory(corpus);
  serve::RouterOptions fast_options;
  fast_options.classify_fast_path = true;
  Fleet fleet = Fleet::Make(global, corpus, 3, fast_options);

  forms::FormPageDocument doc = corpus.entries().front().doc;
  doc.url.clear();  // no site to route by — must scatter
  RouterResponse response = fleet.router->Classify(doc);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_FALSE(response.fast_path);
  EXPECT_EQ(response.shards.size(), 3u);
  DatabaseDirectory::Classification oracle = global.ClassifyDocument(doc);
  EXPECT_EQ(response.classification.entry, oracle.entry);
  EXPECT_EQ(response.classification.similarity, oracle.similarity);

  // Search is never fast-pathed — it must merge every shard's hits.
  RouterResponse search = fleet.router->Search("job career", 5);
  ASSERT_TRUE(search.status.ok());
  EXPECT_FALSE(search.fast_path);
  EXPECT_EQ(search.shards.size(), 3u);
}

/// Serial scatter-gather over the live shards' replicas, merged by the
/// router's rules: the oracle for "no silent result loss" when one shard
/// is down. Entries are global section ids.
struct LiveShardsOracle {
  std::vector<ShardBundle> bundles;
  size_t dead = 0;

  DatabaseDirectory::Classification Classify(
      const forms::FormPageDocument& doc) const {
    DatabaseDirectory::Classification best;
    for (size_t s = 0; s < bundles.size(); ++s) {
      if (s == dead) continue;
      DatabaseDirectory::Classification local =
          bundles[s].directory.ClassifyDocument(doc);
      if (local.entry < 0) continue;
      const int global_entry = static_cast<int>(
          bundles[s].global_sections[static_cast<size_t>(local.entry)]);
      if (best.entry < 0 || local.similarity > best.similarity ||
          (local.similarity == best.similarity &&
           global_entry < best.entry)) {
        best.entry = global_entry;
        best.similarity = local.similarity;
      }
    }
    return best;
  }

  std::vector<DatabaseDirectory::SearchHit> Search(const char* query,
                                                   size_t top_k) const {
    std::vector<DatabaseDirectory::SearchHit> merged;
    std::set<int> seen;
    for (size_t s = 0; s < bundles.size(); ++s) {
      if (s == dead) continue;
      for (const DatabaseDirectory::SearchHit& hit :
           bundles[s].directory.Search(query, top_k)) {
        const int global_entry = static_cast<int>(
            bundles[s].global_sections[static_cast<size_t>(hit.entry)]);
        if (seen.insert(global_entry).second) {
          merged.push_back({global_entry, hit.similarity});
        }
      }
    }
    std::sort(merged.begin(), merged.end(),
              [](const DatabaseDirectory::SearchHit& a,
                 const DatabaseDirectory::SearchHit& b) {
                if (a.similarity != b.similarity) {
                  return a.similarity > b.similarity;
                }
                return a.entry < b.entry;
              });
    if (merged.size() > top_k) merged.resize(top_k);
    return merged;
  }
};

TEST(ShardRouterTest, DeadShardYieldsExplicitPartialResult) {
  Corpus corpus = CorpusOf(MakeGrowthWeb(21, 48));
  DatabaseDirectory global = BuildDirectory(corpus);
  Fleet fleet = Fleet::Make(global, corpus, 3);
  fleet.hosts[1]->Shutdown();  // kill the middle shard's transport
  Result<std::vector<ShardBundle>> replicas =
      PartitionDirectory(global, corpus, 3);
  ASSERT_TRUE(replicas.ok()) << replicas.status().ToString();
  const LiveShardsOracle live{std::move(*replicas), /*dead=*/1};

  RouterResponse response =
      fleet.router->Classify(corpus.entries().front().doc);
  // Still answers from the live shards...
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  // ...but the degradation is explicit, never silent.
  EXPECT_TRUE(response.partial);
  ASSERT_EQ(response.shards.size(), 3u);
  EXPECT_TRUE(response.shards[0].status.ok());
  EXPECT_EQ(response.shards[1].status.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(response.shards[2].status.ok());

  RouterResponse search = fleet.router->Search("job career", 5);
  ASSERT_TRUE(search.status.ok());
  EXPECT_TRUE(search.partial);

  // The partial answers are exactly the merge of the live shards' answers:
  // nothing the live shards know is lost.
  for (const DatasetEntry& entry : corpus.entries()) {
    RouterResponse routed = fleet.router->Classify(entry.doc);
    ASSERT_TRUE(routed.status.ok());
    EXPECT_TRUE(routed.partial);
    DatabaseDirectory::Classification want = live.Classify(entry.doc);
    EXPECT_EQ(routed.classification.entry, want.entry) << entry.doc.url;
    EXPECT_EQ(routed.classification.similarity, want.similarity)
        << entry.doc.url;
  }
  for (const char* query : {"job career", "hotel room", "music cd"}) {
    RouterResponse routed = fleet.router->Search(query, global.size());
    ASSERT_TRUE(routed.status.ok());
    EXPECT_TRUE(routed.partial);
    const auto want = live.Search(query, global.size());
    ASSERT_EQ(routed.hits.size(), want.size()) << query;
    for (size_t h = 0; h < want.size(); ++h) {
      EXPECT_EQ(routed.hits[h].entry, want[h].entry) << query;
      EXPECT_EQ(routed.hits[h].similarity, want[h].similarity) << query;
    }
  }
}

TEST(ShardRouterTest, PerShardRefreshStormHasNoTornEpoch) {
  // Every shard of a site-clustered fleet refreshes twice while clients
  // route through it. Each response must echo every shard, no shard may
  // ever echo one snapshot version with two corpus epochs, and every
  // scheduled refresh must publish.
  constexpr size_t kShards = 4;
  constexpr size_t kRounds = 2;
  Corpus corpus = CorpusOf(MakeGrowthWeb(21, 48));
  DatabaseDirectory global = BuildSiteDirectory(corpus);
  Fleet fleet = Fleet::Make(global, corpus, kShards);
  std::vector<forms::FormPageDocument> docs;
  for (const DatasetEntry& e : corpus.entries()) docs.push_back(e.doc);
  const char* kQueries[] = {"job career", "hotel room", "music cd"};

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> responses{0};
  std::atomic<uint64_t> torn{0};
  std::atomic<uint64_t> echo_failures{0};
  std::mutex seen_mutex;
  std::vector<std::map<uint64_t, uint64_t>> seen(kShards);  // version->epoch
  std::vector<std::thread> clients;
  for (size_t c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      for (size_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        const size_t pick = (c * 7919 + i * 13) % (docs.size() + 1);
        RouterResponse response =
            pick < docs.size() ? fleet.router->Classify(docs[pick])
                               : fleet.router->Search(kQueries[i % 3], 5);
        if (!response.status.ok()) continue;
        responses.fetch_add(1, std::memory_order_relaxed);
        if (response.partial || response.shards.size() != kShards) {
          echo_failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        std::lock_guard<std::mutex> lock(seen_mutex);
        for (size_t s = 0; s < kShards; ++s) {
          const serve::ShardEcho& echo = response.shards[s];
          if (!echo.status.ok()) continue;
          auto [it, fresh] =
              seen[s].emplace(echo.snapshot_version, echo.corpus_epoch);
          if (!fresh && it->second != echo.corpus_epoch) {
            torn.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (size_t round = 0; round < kRounds; ++round) {
    for (size_t s = 0; s < kShards; ++s) {
      Corpus batch = CorpusOf(
          MakeGrowthWeb(300 + static_cast<uint32_t>(round * kShards + s), 12));
      EXPECT_TRUE(fleet.servers[s]->ScheduleRefresh(batch.TakeEntries()).ok());
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  for (auto& server : fleet.servers) server->WaitForRefreshes();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stop.store(true);
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(echo_failures.load(), 0u);
  EXPECT_GT(responses.load(), 0u);
  std::vector<Result<ipc::EpochResponse>> epochs = fleet.router->Epochs();
  for (size_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(fleet.servers[s]->Stats().refreshes, kRounds) << "shard " << s;
    ASSERT_TRUE(epochs[s].ok());
    EXPECT_EQ((*epochs[s]).snapshot_version, 1 + kRounds) << "shard " << s;
  }
}

TEST(ShardRouterTest, AllShardsDeadFailsWithFirstShardError) {
  Corpus corpus = CorpusOf(MakeGrowthWeb(21, 24));
  DatabaseDirectory global = BuildDirectory(corpus, 4);
  Fleet fleet = Fleet::Make(global, corpus, 2);
  for (auto& host : fleet.hosts) host->Shutdown();
  RouterResponse response =
      fleet.router->Classify(corpus.entries().front().doc);
  EXPECT_EQ(response.status.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(response.partial);
}

TEST(ShardRouterTest, NoShardsIsUnavailable) {
  ShardRouter router({});
  EXPECT_EQ(router.num_shards(), 0u);
  RouterResponse response = router.Search("anything", 5);
  EXPECT_EQ(response.status.code(), StatusCode::kUnavailable);
}

TEST(ShardRouterTest, EpochsAndStatsAggregateAcrossShards) {
  Corpus corpus = CorpusOf(MakeGrowthWeb(21, 48));
  DatabaseDirectory global = BuildDirectory(corpus);
  Fleet fleet = Fleet::Make(global, corpus, 3);

  // Generate some traffic so the merged counters are non-trivial.
  for (size_t i = 0; i < 12 && i < corpus.entries().size(); ++i) {
    ASSERT_TRUE(fleet.router->Classify(corpus.entries()[i].doc).status.ok());
  }

  std::vector<Result<ipc::EpochResponse>> epochs = fleet.router->Epochs();
  ASSERT_EQ(epochs.size(), 3u);
  size_t hosted = 0;
  for (size_t s = 0; s < epochs.size(); ++s) {
    ASSERT_TRUE(epochs[s].ok());
    EXPECT_EQ((*epochs[s]).shard_id, s);
    EXPECT_EQ((*epochs[s]).num_shards, 3u);
    EXPECT_EQ((*epochs[s]).snapshot_version, 1u);
    hosted += (*epochs[s]).sections;
  }
  EXPECT_GE(hosted, global.size());  // duplicates possible, holes not

  Result<serve::ServerStats> merged = fleet.router->Stats();
  ASSERT_TRUE(merged.ok());
  uint64_t per_shard_completed = 0;
  for (const Result<serve::ServerStats>& stats :
       fleet.router->PerShardStats()) {
    ASSERT_TRUE(stats.ok());
    per_shard_completed += stats->completed;
  }
  EXPECT_EQ(merged->completed, per_shard_completed);
  EXPECT_GT(merged->completed, 0u);
  EXPECT_EQ(merged->service_cpu_us.count(), merged->completed);
}

TEST(ShardRouterTest, RouterStatsEqualMergeOfLocalShardStats) {
  // The Stats RPC carries the one ServerStats schema, so the router's
  // fleet view is exactly the Merge of what each shard reports locally —
  // every field, storage gauges included.
  Corpus corpus = CorpusOf(MakeGrowthWeb(21, 48));
  DatabaseDirectory global = BuildDirectory(corpus);
  Fleet fleet = Fleet::Make(global, corpus, 3);
  for (size_t i = 0; i < 12 && i < corpus.entries().size(); ++i) {
    ASSERT_TRUE(fleet.router->Classify(corpus.entries()[i].doc).status.ok());
  }
  ASSERT_TRUE(fleet.router->Search("hotel rooms", 3).status.ok());

  serve::ServerStats local;
  for (const auto& server : fleet.servers) local.Merge(server->Stats());
  Result<serve::ServerStats> routed = fleet.router->Stats();
  ASSERT_TRUE(routed.ok());
  std::string want;
  local.EncodeTo(&want);
  std::string got;
  routed->EncodeTo(&got);
  EXPECT_EQ(got, want);
  EXPECT_GT(routed->completed, 0u);
}

}  // namespace
}  // namespace cafc
