#ifndef CAFC_TESTS_FIXTURES_H_
#define CAFC_TESTS_FIXTURES_H_

// Shared corpus, directory and shard-fleet builders for the tests and the
// residual timing harness (bench/timing_gates.cc). The builders are pure
// functions of their arguments, so two calls with the same seed and size
// build bit-identical corpora and directories: the replica trick the
// serving tests use to get a serial oracle next to a server that owns its
// own copy. No gtest dependency, so bench binaries can include it too.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/cafc.h"
#include "core/corpus.h"
#include "core/directory.h"
#include "core/ingest.h"
#include "core/partition.h"
#include "ipc/pipe.h"
#include "ipc/shard_rpc.h"
#include "serve/server.h"
#include "serve/shard_router.h"
#include "serve/shard_service.h"
#include "util/rng.h"
#include "web/synthesizer.h"

namespace cafc::test {

/// The §4.1-shaped substrate (seed 42), with its hub structure scaled to
/// `form_pages`; 0 keeps the paper's 454 form pages.
inline web::SyntheticWeb MakeSubstrate(int form_pages) {
  web::SynthesizerConfig config;
  config.seed = 42;
  if (form_pages > 0) {
    config.form_pages_total = form_pages;
    config.single_attribute_forms = form_pages / 8;
    double scale = static_cast<double>(form_pages) / 454.0;
    config.homogeneous_hubs_per_domain = static_cast<int>(360 * scale);
    config.mixed_hubs = static_cast<int>(1100 * scale);
    config.directory_hubs = static_cast<int>(24 * scale) + 1;
    config.large_air_hotel_hubs = static_cast<int>(30 * scale) + 1;
    config.outlier_pages = static_cast<int>(10 * scale);
  }
  return web::Synthesizer(config).Generate();
}

/// A small web whose form pages feed one refresh batch; also the corpus
/// shape of the partition and router tests.
inline web::SyntheticWeb MakeGrowthWeb(uint32_t seed, int form_pages) {
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

/// The serving tests' small web: a little non-searchable and noise
/// traffic, no outliers.
inline web::SynthesizerConfig GrowConfig(uint32_t seed, size_t form_pages) {
  web::SynthesizerConfig config;
  config.seed = seed;
  config.form_pages_total = form_pages;
  config.single_attribute_forms = form_pages / 8;
  config.homogeneous_hubs_per_domain = 20;
  config.mixed_hubs = 30;
  config.directory_hubs = 3;
  config.large_air_hotel_hubs = 3;
  config.non_searchable_form_pages = 2;
  config.noise_pages = 2;
  config.outlier_pages = 0;
  return config;
}

/// Streams `web` through the ingest pipeline; a pipeline failure aborts,
/// since every caller's web is synthetic and must ingest.
inline Corpus CorpusOf(const web::SyntheticWeb& web) {
  Result<CorpusBuild> build = BuildCorpus(web);
  if (!build.ok()) {
    std::fprintf(stderr, "pipeline failed: %s\n",
                 build.status().ToString().c_str());
    std::abort();
  }
  return std::move(build->corpus);
}

inline Corpus GrowCorpus(uint32_t seed, size_t form_pages) {
  return CorpusOf(web::Synthesizer(GrowConfig(seed, form_pages)).Generate());
}

inline Corpus BuildSubstrateCorpus(int form_pages) {
  return CorpusOf(MakeSubstrate(form_pages));
}

/// Cold-seeded CAFC-C directory over the corpus's current epoch.
inline DatabaseDirectory BuildDirectory(Corpus& corpus, int k = 6,
                                        cluster::KMeansStats* stats = nullptr) {
  Rng rng(1234);
  cluster::Clustering clustering =
      CafcC(corpus.Weighted(), k, CafcOptions{}, &rng, stats);
  return DatabaseDirectory::Build(
      corpus.Weighted(), clustering,
      DatabaseDirectory::AutoLabels(corpus.Weighted(), clustering));
}

/// One section per site: the clustering is the site identity itself, so
/// site-hash partitioning puts every section's members on exactly one
/// shard and scatter-gather genuinely splits the scoring work.
inline cluster::Clustering SiteClustering(const Corpus& corpus) {
  cluster::Clustering clustering;
  std::unordered_map<std::string, int> site_ids;
  for (const DatasetEntry& entry : corpus.entries()) {
    auto it =
        site_ids.emplace(entry.site, static_cast<int>(site_ids.size())).first;
    clustering.assignment.push_back(it->second);
  }
  clustering.num_clusters = static_cast<int>(site_ids.size());
  return clustering;
}

inline DatabaseDirectory BuildSiteDirectory(Corpus& corpus) {
  cluster::Clustering clustering = SiteClustering(corpus);
  return DatabaseDirectory::Build(
      corpus.Weighted(), clustering,
      DatabaseDirectory::AutoLabels(corpus.Weighted(), clustering));
}

/// An in-process shard fleet wired through the real RPC stack: one
/// DirectoryServer, shard service and pipe host per partition bundle, and
/// a router over their clients. Users link cafc_serve.
struct Fleet {
  Fleet() = default;
  Fleet(Fleet&&) = default;
  Fleet& operator=(Fleet&&) = default;

  std::vector<std::unique_ptr<serve::DirectoryServer>> servers;
  std::vector<std::unique_ptr<serve::DirectoryShardService>> services;
  std::vector<std::unique_ptr<serve::ShardServiceHost>> hosts;
  std::unique_ptr<serve::ShardRouter> router;

  static Fleet Make(const DatabaseDirectory& global, const Corpus& corpus,
                    size_t num_shards,
                    serve::RouterOptions router_options = {},
                    size_t workers = 2) {
    Result<std::vector<ShardBundle>> bundles =
        PartitionDirectory(global, corpus, num_shards);
    if (!bundles.ok()) {
      std::fprintf(stderr, "partition failed: %s\n",
                   bundles.status().ToString().c_str());
      std::abort();
    }
    Fleet fleet;
    std::vector<std::unique_ptr<ipc::ShardClient>> clients;
    for (ShardBundle& bundle : *bundles) {
      serve::DirectoryServerOptions options;
      options.workers = workers;
      fleet.servers.push_back(std::make_unique<serve::DirectoryServer>(
          std::move(bundle.directory), std::move(bundle.corpus), options));
      fleet.services.push_back(std::make_unique<serve::DirectoryShardService>(
          fleet.servers.back().get(), bundle.global_sections,
          static_cast<uint32_t>(bundle.shard_id),
          static_cast<uint32_t>(bundle.num_shards)));
      auto [service_end, client_end] = ipc::CreateInProcessPipePair();
      fleet.hosts.push_back(std::make_unique<serve::ShardServiceHost>(
          std::move(service_end), fleet.services.back().get(), workers));
      clients.push_back(
          std::make_unique<ipc::ShardClient>(std::move(client_end)));
    }
    fleet.router = std::make_unique<serve::ShardRouter>(std::move(clients),
                                                        router_options);
    return fleet;
  }

  ~Fleet() {
    if (router) router->Close();
    for (auto& host : hosts) host->Shutdown();
    for (auto& server : servers) server->Shutdown();
  }
};

}  // namespace cafc::test

#endif  // CAFC_TESTS_FIXTURES_H_
