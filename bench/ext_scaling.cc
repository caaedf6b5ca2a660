// Scalability check for the paper's claim that CAFC "is scalable [and]
// requires no manual pre-processing": sweep the corpus size and, at each
// size, the thread count, measuring per-stage wall time (crawl+extract,
// hub-cluster generation, seed selection, k-means) plus CAFC-CH quality.
//
// Besides the human-readable table, every stage time and quality figure is
// a measurement in BENCH_scaling.json (bench/harness.h), named
// `scaling.<form pages>p.<threads>t.<stage>`. Clustering output is
// bit-identical across thread counts, so the entropy / f-measure columns
// must not vary with threads: one correctness gate, enforced.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "bench/harness.h"
#include "util/flags.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "web/stream_synthesizer.h"

namespace {

using namespace cafc;         // NOLINT
using namespace cafc::bench;  // NOLINT
using Clock = std::chrono::steady_clock;

struct ThreadRun {
  int threads = 1;
  double hub_ms = 0.0;     // hub-cluster generation + cardinality filter
  double select_ms = 0.0;  // Algorithm 3 seed selection
  double kmeans_ms = 0.0;  // content k-means from the hub seeds
  double total_ms = 0.0;
  Quality quality;
};

struct CorpusPoint {
  size_t form_pages = 0;
  size_t web_pages = 0;
  double extract_ms = 0.0;  // crawl + classify + model build (serial stage)
  std::vector<ThreadRun> runs;
};

/// The thread counts to sweep: {1, 2, 4, hardware}, deduplicated and
/// capped at hardware concurrency (running 4 lanes on a 2-core box would
/// only measure oversubscription noise).
std::vector<int> ThreadSweep() {
  int hw = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  std::vector<int> sweep;
  for (int t : {1, 2, 4, hw}) {
    if (t <= hw && std::find(sweep.begin(), sweep.end(), t) == sweep.end()) {
      sweep.push_back(t);
    }
  }
  std::sort(sweep.begin(), sweep.end());
  return sweep;
}

/// CAFC-CH staged so each phase can be timed separately; mirrors CafcCh().
/// The resulting clustering lands in `*clustering`.
ThreadRun TimedCafcCh(const FormPageSet& pages, int k,
                      const CafcChOptions& options, int threads,
                      cluster::Clustering* clustering) {
  ThreadRun run;
  run.threads = threads;
  CafcOptions cafc = options.cafc;
  cafc.threads = threads;

  Clock::time_point start = Clock::now();
  std::vector<HubCluster> hubs = FilterByCardinality(
      GenerateHubClusters(pages), options.min_hub_cardinality);
  run.hub_ms = MsSince(start);

  start = Clock::now();
  SelectHubClustersOptions select_options;
  select_options.content = cafc.content;
  select_options.weights = cafc.weights;
  select_options.threads = threads;
  std::vector<HubCluster> seeds = SelectHubClusters(pages, hubs, k,
                                                    select_options);
  run.select_ms = MsSince(start);

  std::vector<std::vector<size_t>> seed_members;
  seed_members.reserve(seeds.size());
  for (const HubCluster& s : seeds) seed_members.push_back(s.members);

  start = Clock::now();
  *clustering = CafcCWithSeeds(pages, seed_members, cafc);
  run.kmeans_ms = MsSince(start);

  run.total_ms = run.hub_ms + run.select_ms + run.kmeans_ms;
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  // `--pages=N` swaps the eager sweep for a single N-site corpus from the
  // streaming generator, which parameterizes far beyond the eager
  // synthesizer's hand-shaped configurations.
  FlagParser flags(argc, argv);
  const bool streamed = flags.Has("pages");
  std::vector<int> corpora = {113, 227, 454, 908, 1816};
  if (streamed) {
    corpora = {static_cast<int>(
        std::max<int64_t>(16, flags.GetInt("pages", 1000)))};
  }

  const std::vector<int> sweep = ThreadSweep();
  GateReport report("scaling", /*smoke=*/false);
  bool quality_consistent = true;

  Table table({"form pages", "web pages", "threads", "crawl+extract (ms)",
               "hub (ms)", "select (ms)", "kmeans (ms)", "cluster (ms)",
               "entropy", "f-measure"});

  for (int form_pages : corpora) {
    web::SyntheticWeb web;
    if (streamed) {
      web::StreamingWebConfig config;
      config.seed = 42;
      config.sites = static_cast<size_t>(form_pages);
      web = web::StreamingWeb(config).Materialize();
    } else {
      web::SynthesizerConfig config;
      config.seed = 42;
      config.form_pages_total = form_pages;
      config.single_attribute_forms = form_pages / 8;
      // Scale the hub structure with the corpus.
      double scale = static_cast<double>(form_pages) / 454.0;
      config.homogeneous_hubs_per_domain =
          static_cast<int>(360 * scale);
      config.mixed_hubs = static_cast<int>(1100 * scale);
      config.directory_hubs = static_cast<int>(24 * scale) + 1;
      config.large_air_hotel_hubs = static_cast<int>(30 * scale) + 1;
      config.outlier_pages = static_cast<int>(10 * scale);
      web = web::Synthesizer(config).Generate();
    }

    Clock::time_point start = Clock::now();
    Result<Dataset> dataset = BuildDataset(web);
    if (!dataset.ok()) {
      std::fprintf(stderr, "pipeline failed at %d pages: %s\n", form_pages,
                   dataset.status().ToString().c_str());
      return 1;
    }
    FormPageSet pages = BuildFormPageSet(*dataset);

    CorpusPoint point;
    point.form_pages = dataset->entries.size();
    point.web_pages = web.pages().size();
    point.extract_ms = MsSince(start);

    for (int threads : sweep) {
      CafcChOptions options;
      cluster::Clustering clustering;
      ThreadRun run = TimedCafcCh(pages, web::kNumDomains, options, threads,
                                  &clustering);
      eval::ContingencyTable t(dataset->GoldLabels(), dataset->num_classes,
                               clustering);
      run.quality = Quality{eval::TotalEntropy(t), eval::OverallFMeasure(t)};
      if (!point.runs.empty() &&
          (point.runs.front().quality.entropy != run.quality.entropy ||
           point.runs.front().quality.f_measure != run.quality.f_measure)) {
        quality_consistent = false;
      }
      table.AddRow({std::to_string(point.form_pages),
                    std::to_string(point.web_pages),
                    std::to_string(threads), Fmt(point.extract_ms, 0),
                    Fmt(run.hub_ms, 0), Fmt(run.select_ms, 0),
                    Fmt(run.kmeans_ms, 0), Fmt(run.total_ms, 0),
                    Fmt(run.quality.entropy), Fmt(run.quality.f_measure)});
      const std::string prefix = "scaling." +
                                 std::to_string(point.form_pages) + "p." +
                                 std::to_string(threads) + "t.";
      report.Measure(prefix + "extract_ms", point.extract_ms);
      report.Measure(prefix + "hub_ms", run.hub_ms);
      report.Measure(prefix + "select_ms", run.select_ms);
      report.Measure(prefix + "kmeans_ms", run.kmeans_ms);
      report.Measure(prefix + "entropy", run.quality.entropy);
      report.Measure(prefix + "f_measure", run.quality.f_measure);
      point.runs.push_back(run);
    }
  }

  std::printf("=== Scaling: corpus size x thread count sweep ===\n%s",
              table.ToString().c_str());
  std::printf(
      "expected shape: near-linear crawl/extract cost, cluster (ms) "
      "shrinking with threads at fixed quality (entropy / f-measure are "
      "thread-count invariant by construction)\n");

  report.Require("scaling.quality_thread_invariant", quality_consistent);
  return report.Finish();
}
