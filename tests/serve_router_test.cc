// Tests of the scatter-gather ShardRouter over in-process RPC fleets:
// merged answers bit-identical to the unsharded directory, per-shard
// epoch echoes, explicit partial results when a shard dies, stats
// aggregation, and the no-shards edge case.

#include "serve/shard_router.h"

#include <memory>
#include <string>
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

namespace cafc {
namespace {

using serve::DirectoryServer;
using serve::DirectoryServerOptions;
using serve::DirectoryShardService;
using serve::RouterResponse;
using serve::ShardRouter;
using serve::ShardServiceHost;

Corpus GrowCorpus(uint32_t seed, size_t form_pages) {
  web::SynthesizerConfig config;
  config.seed = seed;
  config.form_pages_total = form_pages;
  config.single_attribute_forms = form_pages / 8;
  config.homogeneous_hubs_per_domain = 20;
  config.mixed_hubs = 30;
  config.directory_hubs = 2;
  config.large_air_hotel_hubs = 2;
  web::SyntheticWeb web = web::Synthesizer(config).Generate();
  Result<CorpusBuild> build = BuildCorpus(web);
  EXPECT_TRUE(build.ok()) << build.status().ToString();
  return std::move(build->corpus);
}

DatabaseDirectory BuildDirectory(Corpus& corpus, int k = 6) {
  Rng rng(1234);
  cluster::Clustering clustering =
      CafcC(corpus.Weighted(), k, CafcOptions{}, &rng);
  return DatabaseDirectory::Build(
      corpus.Weighted(), clustering,
      DatabaseDirectory::AutoLabels(corpus.Weighted(), clustering));
}

/// An in-process shard fleet wired through the real RPC stack.
struct Fleet {
  Fleet() = default;
  Fleet(Fleet&&) = default;
  Fleet& operator=(Fleet&&) = default;

  std::vector<std::unique_ptr<DirectoryServer>> servers;
  std::vector<std::unique_ptr<DirectoryShardService>> services;
  std::vector<std::unique_ptr<ShardServiceHost>> hosts;
  std::unique_ptr<ShardRouter> router;

  static Fleet Make(const DatabaseDirectory& global, const Corpus& corpus,
                    size_t num_shards,
                    serve::RouterOptions router_options = {}) {
    Result<std::vector<ShardBundle>> bundles =
        PartitionDirectory(global, corpus, num_shards);
    EXPECT_TRUE(bundles.ok()) << bundles.status().ToString();
    Fleet fleet;
    std::vector<std::unique_ptr<ipc::ShardClient>> clients;
    for (ShardBundle& bundle : *bundles) {
      DirectoryServerOptions options;
      options.workers = 2;
      fleet.servers.push_back(std::make_unique<DirectoryServer>(
          std::move(bundle.directory), std::move(bundle.corpus), options));
      fleet.services.push_back(std::make_unique<DirectoryShardService>(
          fleet.servers.back().get(), bundle.global_sections,
          static_cast<uint32_t>(bundle.shard_id),
          static_cast<uint32_t>(bundle.num_shards)));
      auto [service_end, client_end] = ipc::CreateInProcessPipePair();
      fleet.hosts.push_back(std::make_unique<ShardServiceHost>(
          std::move(service_end), fleet.services.back().get(), 2));
      clients.push_back(
          std::make_unique<ipc::ShardClient>(std::move(client_end)));
    }
    fleet.router =
        std::make_unique<ShardRouter>(std::move(clients), router_options);
    return fleet;
  }

  ~Fleet() {
    if (router) router->Close();
    for (auto& host : hosts) host->Shutdown();
    for (auto& server : servers) server->Shutdown();
  }
};

TEST(ShardRouterTest, MergedAnswersBitIdenticalToUnshardedDirectory) {
  Corpus corpus = GrowCorpus(21, 48);
  DatabaseDirectory global = BuildDirectory(corpus);
  for (size_t num_shards : {1u, 3u}) {
    Fleet fleet = Fleet::Make(global, corpus, num_shards);
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

TEST(ShardRouterTest, ClassifyFastPathBitIdenticalToScatter) {
  Corpus corpus = GrowCorpus(21, 48);
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
  Corpus corpus = GrowCorpus(21, 48);
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

TEST(ShardRouterTest, DeadShardYieldsExplicitPartialResult) {
  Corpus corpus = GrowCorpus(21, 48);
  DatabaseDirectory global = BuildDirectory(corpus);
  Fleet fleet = Fleet::Make(global, corpus, 3);
  fleet.hosts[1]->Shutdown();  // kill the middle shard's transport

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
}

TEST(ShardRouterTest, AllShardsDeadFailsWithFirstShardError) {
  Corpus corpus = GrowCorpus(21, 24);
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
  Corpus corpus = GrowCorpus(21, 48);
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
  Corpus corpus = GrowCorpus(21, 48);
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
