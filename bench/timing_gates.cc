// Residual timing gates: the speedup and capacity claims that neither a
// tier-1 test nor a perfbench workload measures. The correctness each
// claim rests on is a tier-1 test; here every timed pair also checks that
// both sides gave the same answers, so a speedup over different work
// cannot pass.
//
// Floors (enforced in full runs, informational under --smoke):
//   sublinear.assignment_speedup >= 5: pruned vs exact k-means kernel,
//     CPU time, 10^5 streamed pages, k = 64, run to exact convergence
//   sublinear.classify_speedup >= 10: indexed vs full-scan ClassifyPage,
//     CPU time, a 512-section directory
//   storage.compression >= 3: text directory bytes / v3 directory bytes
//   storage.load_speedup >= 5: text parse + index build vs one
//     MappedSnapshot::Open, CPU time
//   shard.search_capacity_4s_over_1s >= 2: search requests per CPU-second
//     of the bottleneck shard, 4 shards vs 1
//   incremental.single_add_speedup > 1: a one-page add + derive vs a
//     from-scratch rebuild, wall time
//
// Flags: --smoke shrinks every size (the CI run); --pages=N sets the
// streamed corpus of the sublinear and storage sections. Results land in
// BENCH_timing.json (format in bench/harness.h).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/harness.h"
#include "core/cafc.h"
#include "core/stream_ingest.h"
#include "serve/server.h"
#include "serve/shard_router.h"
#include "storage/reader.h"
#include "storage/writer.h"
#include "tests/fixtures.h"
#include "util/flags.h"
#include "web/stream_synthesizer.h"

namespace {

using namespace cafc;  // NOLINT
using bench::CpuMs;
using bench::GateReport;
using Clock = std::chrono::steady_clock;

Corpus StreamedCorpus(uint64_t seed, size_t sites) {
  web::StreamingWebConfig config;
  config.seed = seed;
  config.sites = sites;
  Result<StreamedCorpusBuild> build =
      BuildStreamedCorpus(web::StreamingWeb(config));
  if (!build.ok()) {
    std::fprintf(stderr, "streamed ingest failed: %s\n",
                 build.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(build->corpus);
}

DatabaseDirectory ClusterDirectory(const FormPageSet& pages, int k,
                                   uint64_t seed) {
  Rng rng(seed);
  cluster::Clustering clustering = CafcC(pages, k, CafcOptions{}, &rng);
  return DatabaseDirectory::Build(
      pages, clustering, DatabaseDirectory::AutoLabels(pages, clustering));
}

/// The same clustering under the exact and the pruned assignment kernel,
/// at exact-convergence settings (the paper's 10% movement stop quits
/// before the bounds have anything to prune).
void AssignmentKernels(const FormPageSet& pages, int k, GateReport* report) {
  Rng seed_rng(2000);
  const std::vector<std::vector<size_t>> seeds =
      cluster::RandomSingletonSeeds(pages.size(), k, &seed_rng);
  CafcOptions options;
  options.kmeans.movement_stop_fraction = 0.001;
  options.kmeans.kernel = cluster::AssignmentKernel::kExact;
  double start = CpuMs();
  cluster::KMeansStats exact_stats;
  const cluster::Clustering exact =
      CafcCWithSeeds(pages, seeds, options, &exact_stats);
  const double exact_ms = CpuMs() - start;

  options.kmeans.kernel = cluster::AssignmentKernel::kPruned;
  start = CpuMs();
  cluster::KMeansStats pruned_stats;
  const cluster::Clustering pruned =
      CafcCWithSeeds(pages, seeds, options, &pruned_stats);
  const double pruned_ms = CpuMs() - start;

  report->Measure("sublinear.pages", static_cast<double>(pages.size()));
  report->Measure("sublinear.exact_ms", exact_ms);
  report->Measure("sublinear.pruned_ms", pruned_ms);
  report->Measure("sublinear.exact_evals",
                  static_cast<double>(exact_stats.similarity_evals));
  report->Measure("sublinear.pruned_evals",
                  static_cast<double>(pruned_stats.similarity_evals));
  report->Measure("sublinear.bound_skips",
                  static_cast<double>(pruned_stats.bound_skips));
  report->Require("sublinear.assignment_identical",
                  exact.assignment == pruned.assignment &&
                      exact_stats.iterations == pruned_stats.iterations);
  report->Floor("sublinear.assignment_speedup",
                exact_ms / std::max(pruned_ms, 1e-6), 5.0);
}

/// Full-scan against indexed ClassifyPage over the first `queries` pages
/// of a k-section directory.
void ClassifyPaths(const FormPageSet& pages, int k, size_t queries,
                   GateReport* report) {
  const DatabaseDirectory directory = ClusterDirectory(pages, k, 3000);
  const cluster::CentroidIndex index = directory.BuildCentroidIndex();
  queries = std::min(queries, pages.size());

  std::vector<DatabaseDirectory::Classification> scan;
  double start = CpuMs();
  for (size_t i = 0; i < queries; ++i) {
    scan.push_back(directory.ClassifyPage(pages.page(i)));
  }
  const double scan_ms = CpuMs() - start;

  bool identical = true;
  uint64_t centroids = 0;
  start = CpuMs();
  for (size_t i = 0; i < queries; ++i) {
    DirectoryQueryCost cost;
    const DatabaseDirectory::Classification verdict = directory.ClassifyPage(
        pages.page(i), ContentConfig::kFcPlusPc, index, &cost);
    centroids += cost.centroids_scored;
    identical = identical && verdict.entry == scan[i].entry &&
                verdict.similarity == scan[i].similarity;
  }
  const double indexed_ms = CpuMs() - start;

  report->Measure("sublinear.classify_sections",
                  static_cast<double>(directory.size()));
  report->Measure("sublinear.scan_ms", scan_ms);
  report->Measure("sublinear.indexed_ms", indexed_ms);
  report->Measure("sublinear.centroids_per_query",
                  static_cast<double>(centroids) /
                      static_cast<double>(std::max<size_t>(1, queries)));
  report->Require("sublinear.classify_identical", identical);
  report->Floor("sublinear.classify_speedup",
                scan_ms / std::max(indexed_ms, 1e-6), 10.0);
}

uint64_t FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in ? static_cast<uint64_t>(in.tellg()) : 0;
}

/// The text directory format against the v3 snapshot carrying the same
/// directory: bytes on disk and what a server pays before its first query.
void StorageFormats(const FormPageSet& pages, int k, int iterations,
                    GateReport* report) {
  const DatabaseDirectory directory = ClusterDirectory(pages, k, 4000);
  const std::string text_path = "bench_timing_dir.cafc";
  const std::string v3_path = "bench_timing_dir.cafc3";
  if (!directory.SaveToFile(text_path).ok() ||
      !storage::WriteSnapshotV3(directory, nullptr, v3_path).ok()) {
    std::fprintf(stderr, "snapshot writes failed\n");
    std::exit(1);
  }
  const uint64_t text_bytes = FileBytes(text_path);
  const uint64_t v3_bytes = FileBytes(v3_path);

  bool loaded = true;
  double start = CpuMs();
  for (int i = 0; i < iterations; ++i) {
    Result<DatabaseDirectory> text = DatabaseDirectory::LoadFromFile(text_path);
    loaded = loaded && text.ok();
    if (text.ok()) (void)text->BuildCentroidIndex();
  }
  const double text_ms = (CpuMs() - start) / iterations;
  start = CpuMs();
  for (int i = 0; i < iterations; ++i) {
    loaded = loaded && storage::MappedSnapshot::Open(v3_path).ok();
  }
  const double open_ms = (CpuMs() - start) / iterations;

  // The two loaders must agree bit for bit before either time counts.
  Result<DatabaseDirectory> from_text =
      DatabaseDirectory::LoadFromFile(text_path);
  Result<DatabaseDirectory> from_v3 = storage::LoadDirectoryAuto(v3_path);
  bool identical = loaded && from_text.ok() && from_v3.ok() &&
                   from_text->size() == from_v3->size() &&
                   from_text->epoch() == from_v3->epoch();
  for (size_t i = 0; identical && i < from_text->size(); ++i) {
    const DirectoryEntry& x = from_text->entries()[i];
    const DirectoryEntry& y = from_v3->entries()[i];
    identical = x.label == y.label && x.member_urls == y.member_urls &&
                x.centroid.pc == y.centroid.pc &&
                x.centroid.fc == y.centroid.fc;
  }
  std::remove(text_path.c_str());
  std::remove(v3_path.c_str());

  report->Measure("storage.text_bytes", static_cast<double>(text_bytes));
  report->Measure("storage.v3_bytes", static_cast<double>(v3_bytes));
  report->Measure("storage.text_load_ms", text_ms);
  report->Measure("storage.mmap_open_ms", open_ms);
  report->Require("storage.loaders_identical", identical);
  report->Floor("storage.compression",
                static_cast<double>(text_bytes) /
                    static_cast<double>(std::max<uint64_t>(1, v3_bytes)),
                3.0);
  report->Floor("storage.load_speedup", text_ms / std::max(open_ms, 1e-6),
                5.0);
}

/// Closed-loop search load from four clients: requests routed per
/// CPU-second of the bottleneck shard, which wall-clock noise on a shared
/// machine cannot move. Search is the operation sharding splits; classify
/// re-weighs the whole document on every shard, so its ratio is measured
/// for the record only.
double SearchCapacity(const DatabaseDirectory& global, const Corpus& corpus,
                      size_t num_shards, size_t rounds,
                      double* classify_capacity) {
  const char* kQueries[] = {"job career employ", "hotel room reserv",
                            "flight airline", "music cd artist",
                            "book author novel"};
  std::vector<forms::FormPageDocument> docs;
  for (const DatasetEntry& e : corpus.entries()) docs.push_back(e.doc);
  test::Fleet fleet = test::Fleet::Make(global, corpus, num_shards);
  // Service CPU seconds of the busiest shard so far.
  auto bottleneck_cpu_s = [&fleet] {
    double cpu = 0.0;
    for (const Result<serve::ServerStats>& stats :
         fleet.router->PerShardStats()) {
      if (stats.ok()) cpu = std::max(cpu, stats->service_cpu_us.sum() / 1e6);
    }
    return cpu;
  };
  auto load = [&](bool classify) {
    std::atomic<uint64_t> routed{0};
    std::vector<std::thread> clients;
    for (size_t c = 0; c < 4; ++c) {
      clients.emplace_back([&, c] {
        for (size_t r = 0; r < rounds; ++r) {
          const size_t pick = c * 7919 + r * 13;
          const serve::RouterResponse response =
              classify ? fleet.router->Classify(docs[pick % docs.size()])
                       : fleet.router->Search(kQueries[pick % 5], 10);
          if (response.status.ok()) routed.fetch_add(1);
        }
      });
    }
    for (std::thread& t : clients) t.join();
    return static_cast<double>(routed.load());
  };
  const double searches = load(false);
  const double search_cpu_s = bottleneck_cpu_s();
  const double classifies = load(true);
  *classify_capacity =
      classifies / std::max(bottleneck_cpu_s() - search_cpu_s, 1e-9);
  return searches / std::max(search_cpu_s, 1e-9);
}

void ShardCapacity(int substrate_pages, size_t rounds, GateReport* report) {
  Corpus corpus = test::BuildSubstrateCorpus(substrate_pages);
  const DatabaseDirectory global = test::BuildSiteDirectory(corpus);
  double classify_one = 0.0;
  double classify_four = 0.0;
  const double one = SearchCapacity(global, corpus, 1, rounds, &classify_one);
  const double four =
      SearchCapacity(global, corpus, 4, rounds, &classify_four);
  report->Measure("shard.search_per_cpu_s_1s", one);
  report->Measure("shard.search_per_cpu_s_4s", four);
  report->Measure("shard.classify_capacity_4s_over_1s",
                  classify_four / std::max(classify_one, 1e-9));
  report->Floor("shard.search_capacity_4s_over_1s",
                four / std::max(one, 1e-9), 2.0);
}

/// Re-adding one page to the full corpus and deriving the epoch, against
/// rebuilding the whole weighted set; best of three each.
void SingleAdd(int substrate_pages, GateReport* report) {
  Corpus corpus = test::BuildSubstrateCorpus(substrate_pages);
  (void)corpus.Weighted();
  const DatasetEntry page = corpus.entries().back();
  double incremental_ms = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    corpus.RemovePages({page.doc.url});
    (void)corpus.Weighted();  // settle at n - 1
    const Clock::time_point start = Clock::now();
    (void)corpus.AddPages({page});
    (void)corpus.Weighted();
    incremental_ms = std::min(incremental_ms, bench::MsSince(start));
  }
  const Dataset snapshot = corpus.SnapshotDataset();
  double rebuild_ms = 1e300;
  FormPageSet rebuilt;
  for (int rep = 0; rep < 3; ++rep) {
    const Clock::time_point start = Clock::now();
    rebuilt = BuildFormPageSet(snapshot);
    rebuild_ms = std::min(rebuild_ms, bench::MsSince(start));
  }
  const FormPageSet& derived = corpus.Weighted();
  bool identical = derived.size() == rebuilt.size();
  for (size_t i = 0; identical && i < derived.size(); ++i) {
    identical = derived.page(i).url == rebuilt.page(i).url &&
                derived.page(i).pc == rebuilt.page(i).pc &&
                derived.page(i).fc == rebuilt.page(i).fc;
  }
  report->Measure("incremental.pages", static_cast<double>(derived.size()));
  report->Measure("incremental.single_add_ms", incremental_ms);
  report->Measure("incremental.rebuild_ms", rebuild_ms);
  report->Require("incremental.derive_identical", identical);
  report->Floor("incremental.single_add_speedup",
                rebuild_ms / std::max(incremental_ms, 1e-6), 1.0,
                /*strict=*/true);
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  const bool smoke = flags.GetBool("smoke", false);
  // The streaming generator keeps ~97% of its sites, so `sites` is within
  // a few percent of the corpus page count.
  const size_t sites = static_cast<size_t>(std::max<int64_t>(
      256, flags.GetInt("pages", smoke ? 2000 : 100000)));
  const int substrate_pages = smoke ? 113 : 0;  // 0 = the paper's 454
  GateReport report("timing", smoke);

  {
    Corpus corpus = StreamedCorpus(42, sites);
    AssignmentKernels(corpus.Weighted(), smoke ? 16 : 64, &report);
    StorageFormats(corpus.Weighted(), smoke ? 16 : 64, smoke ? 1 : 3,
                   &report);
  }
  {
    // 512 sections: the indexed path's margin over the scan widens with
    // k, keeping the 10x floor well away from run-to-run noise.
    Corpus corpus = StreamedCorpus(43, smoke ? 1500 : 20000);
    ClassifyPaths(corpus.Weighted(), smoke ? 32 : 512, smoke ? 300 : 2000,
                  &report);
  }
  ShardCapacity(substrate_pages, smoke ? 60 : 200, &report);
  SingleAdd(substrate_pages, &report);
  return report.Finish();
}
