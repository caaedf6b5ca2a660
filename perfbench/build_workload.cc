// Workload `build`: turn a synthetic web at 4x the paper's scale into a
// servable directory, offline. One operation is the whole path — crawl,
// ingest, weigh, hub clusters, Algorithm 3, k-means, Build, v3 write and
// mmap open — repeated on the same web for the measured time.

#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/cafc.h"
#include "core/hub_clusters.h"
#include "core/select_hub_clusters.h"
#include "eval/metrics.h"
#include "perfbench.h"
#include "probes.h"
#include "storage/reader.h"
#include "storage/writer.h"
#include "substrate.h"

namespace cafc::perfbench {
namespace {

constexpr int kBuildPages = 4 * kPaperPages;

/// One directory built from the web, with every counter the stage
/// functions return.
struct BuildOutcome {
  double wall_us = 0.0;
  double cpu_us = 0.0;
  IngestTimings timings;
  DatasetStats stats;
  CorpusDeriveStats derive;
  size_t hubs_kept = 0;
  cluster::KMeansStats kmeans;
  storage::SnapshotWriteReport write;
  uint64_t fixed_bytes = 0;
  size_t index_postings = 0;
  double f_measure = 0.0;
  uint64_t digest = 0;
  uint64_t mapped_digest = 0;
};

BuildOutcome BuildOnce(const web::SyntheticWeb& web, const std::string& path,
                       SpanRecorder* recorder, uint64_t request,
                       bool check_mapped) {
  BuildOutcome out;
  const int64_t start = NowNs();
  const double cpu_start = ProcessCpuSeconds();
  std::optional<CorpusBuild> built;
  DatabaseDirectory directory;
  cluster::Clustering clustering;
  std::unique_ptr<storage::MappedSnapshot> mapped;
  {
    ScopedSpan op(recorder, "build", request);
    {
      ScopedSpan span(recorder, "ingest");
      built.emplace(Ingest(web));
    }
    Corpus& corpus = built->corpus;
    const FormPageSet* pages = nullptr;
    {
      ScopedSpan span(recorder, "corpus.derive");
      pages = &corpus.Weighted();
    }
    std::vector<HubCluster> kept;
    {
      ScopedSpan span(recorder, "hub.generate");
      kept = FilterByCardinality(GenerateHubClusters(*pages),
                                 kMinHubCardinality);
    }
    std::vector<std::vector<size_t>> seeds;
    {
      ScopedSpan span(recorder, "select");
      for (HubCluster& hub : SelectHubClusters(*pages, kept, kSections)) {
        seeds.push_back(std::move(hub.members));
      }
    }
    {
      ScopedSpan span(recorder, "kmeans");
      clustering = CafcCWithSeeds(*pages, seeds, CafcOptions{}, &out.kmeans);
    }
    {
      ScopedSpan span(recorder, "directory.build");
      directory = DatabaseDirectory::Build(
          *pages, clustering,
          DatabaseDirectory::AutoLabels(*pages, clustering));
    }
    {
      ScopedSpan span(recorder, "storage.write");
      Status written =
          storage::WriteSnapshotV3(directory, pages, path, &out.write);
      if (!written.ok()) {
        throw std::runtime_error("snapshot write failed: " +
                                 written.ToString());
      }
    }
    {
      ScopedSpan span(recorder, "storage.open");
      auto opened = storage::MappedSnapshot::Open(path);
      if (!opened.ok()) {
        throw std::runtime_error("snapshot open failed: " +
                                 opened.status().ToString());
      }
      mapped = std::move(opened).value();
    }
    out.hubs_kept = kept.size();
  }
  out.wall_us = static_cast<double>(NowNs() - start) / 1e3;
  out.cpu_us = (ProcessCpuSeconds() - cpu_start) * 1e6;
  if (recorder != nullptr) {
    // Not on the build path (Open streams the index out of the file); the
    // in-RAM rebuild is what every refresh pays.
    ScopedSpan span(recorder, "index.build", request);
    out.index_postings = directory.BuildCentroidIndex().num_postings();
  }

  out.timings = built->timings;
  out.stats = built->stats;
  out.derive = built->corpus.last_derive();
  out.fixed_bytes = mapped->fixed_resident_bytes();
  eval::ContingencyTable table(built->corpus.GoldLabels(), web::kNumDomains,
                               clustering);
  out.f_measure = eval::OverallFMeasure(table);
  out.digest = DirectoryDigest(directory);
  if (check_mapped) {
    Result<DatabaseDirectory> materialized = mapped->MaterializeDirectory();
    out.mapped_digest =
        materialized.ok() ? DirectoryDigest(*materialized) : ~out.digest;
  }
  return out;
}

/// Builds until `seconds` of wall time have passed (at least twice).
std::vector<BuildOutcome> BuildLoop(const web::SyntheticWeb& web,
                                    const std::string& path, double seconds,
                                    SpanRecorder* recorder) {
  std::vector<BuildOutcome> outcomes;
  const int64_t start = NowNs();
  while (outcomes.size() < 2 ||
         static_cast<double>(NowNs() - start) / 1e9 < seconds) {
    outcomes.push_back(BuildOnce(web, path, recorder, outcomes.size() + 1,
                                 /*check_mapped=*/false));
  }
  return outcomes;
}

template <typename Fn>
std::vector<double> Collect(const std::vector<BuildOutcome>& outcomes,
                            Fn&& field) {
  std::vector<double> values;
  for (const BuildOutcome& o : outcomes) values.push_back(field(o));
  return values;
}

}  // namespace

void RunBuild(const RunOptions& options, Report* report) {
  report->Env("form_pages", std::to_string(kBuildPages));
  report->Env("sections", std::to_string(kSections));
  web::SyntheticWeb web;
  const double setup_s = TimeSetup(
      kSetupRepeats, [&] { web = web::SyntheticWeb(); },
      [&] {
        web = MakeWeb(SubSeed(options.seed, /*stream=*/0, 0), kBuildPages);
      });
  report->Env("web_pages", std::to_string(web.pages().size()));
  const std::string path = options.work_dir + "/build.cafc3";

  std::vector<BuildOutcome> outcomes;
  double overhead = 0.0;
  SpanRecorder recorder;
  if (!options.trace) {
    outcomes = BuildLoop(web, path, options.seconds, nullptr);
  } else {
    const std::vector<BuildOutcome> plain =
        BuildLoop(web, path, options.seconds / 2, nullptr);
    outcomes = BuildLoop(web, path, options.seconds / 2, &recorder);
    overhead = Median(Collect(outcomes, [](auto& o) { return o.wall_us; })) /
                   Median(Collect(plain, [](auto& o) { return o.wall_us; })) -
               1.0;
  }
  const MemoryStatus memory = ReadMemoryStatus();

  // Oracle: one more build that also materializes the mapped snapshot,
  // which must equal the in-RAM directory; every build must equal it too.
  const BuildOutcome reference =
      BuildOnce(web, path, nullptr, 0, /*check_mapped=*/true);
  report->Check(reference.mapped_digest == reference.digest);
  if (reference.mapped_digest != reference.digest) {
    report->Fail("mmap-opened snapshot differs from the in-RAM directory");
  }
  for (const BuildOutcome& o : outcomes) {
    report->Check(o.digest == reference.digest);
  }
  std::remove(path.c_str());

  const std::vector<double> wall =
      Collect(outcomes, [](auto& o) { return o.wall_us; });
  const std::vector<double> cpu =
      Collect(outcomes, [](auto& o) { return o.cpu_us; });
  if (!options.trace) {
    report->Add("setup_s", setup_s, "s", kSetupRepeats);
    report->AddMedian("latency_p50_us", wall, "us");
    report->AddMedian("cpu_us_per_op", cpu, "us");
    double total_s = 0.0;
    for (double us : wall) total_s += us / 1e6;
    report->Add("ops_per_s", static_cast<double>(wall.size()) / total_s,
                "1/s", wall.size());
    report->Add("peak_rss_mb", memory.hwm_kb / 1024.0, "MB");
    std::vector<double> wall_s, cpu_s;
    for (double us : wall) wall_s.push_back(us / 1e6);
    for (double us : cpu) cpu_s.push_back(us / 1e6);
    report->AddMedian("build_s", wall_s, "s");
    report->AddMedian("build_cpu_s", cpu_s, "s");
    report->Add("f_measure", reference.f_measure, "ratio");
    return;
  }

  const auto spans = recorder.Summarize();
  const auto span_ms = [&](const std::string& name) {
    std::vector<double> ms;
    for (double us : SpanSamplesUs(spans, name)) ms.push_back(us / 1e3);
    return ms;
  };
  report->AddMedian("ingest.wall_ms", span_ms("ingest"), "ms");
  const struct {
    const char* name;
    double IngestTimings::*field;
  } kStages[] = {{"ingest.crawl_ms", &IngestTimings::crawl_ms},
                 {"ingest.parse_ms", &IngestTimings::parse_ms},
                 {"ingest.model_ms", &IngestTimings::model_ms},
                 {"ingest.anchor_ms", &IngestTimings::anchor_ms},
                 {"ingest.merge_ms", &IngestTimings::merge_ms}};
  for (const auto& stage : kStages) {
    report->AddMedian(
        stage.name,
        Collect(outcomes, [&](auto& o) { return o.timings.*stage.field; }),
        "ms");
  }
  report->Add("ingest.html_parses",
              static_cast<double>(reference.stats.html_parses), "count");
  report->Add("ingest.term_occurrences",
              static_cast<double>(reference.stats.term_occurrences), "count");
  report->AddMedian("corpus.derive_ms", span_ms("corpus.derive"), "ms");
  report->Add("corpus.vectors_recomputed",
              static_cast<double>(reference.derive.vectors_recomputed),
              "count");
  report->AddMedian("hub.generate_ms", span_ms("hub.generate"), "ms");
  report->Add("hub.clusters_kept", static_cast<double>(reference.hubs_kept),
              "count");
  report->AddMedian("select.ms", span_ms("select"), "ms");
  report->AddMedian("kmeans.ms", span_ms("kmeans"), "ms");
  report->Add("kmeans.iterations",
              static_cast<double>(reference.kmeans.iterations), "count");
  report->Add("kmeans.similarity_evals",
              static_cast<double>(reference.kmeans.similarity_evals), "count");
  report->Add("kmeans.bound_skips",
              static_cast<double>(reference.kmeans.bound_skips), "count");
  report->AddMedian("directory.build_ms", span_ms("directory.build"), "ms");
  report->AddMedian("storage.write_ms", span_ms("storage.write"), "ms");
  report->AddMedian("storage.open_ms", span_ms("storage.open"), "ms");
  report->Add("storage.bytes", static_cast<double>(reference.write.total_bytes),
              "bytes");
  report->Add("storage.fixed_bytes",
              static_cast<double>(reference.fixed_bytes), "bytes");
  report->AddMedian("index.build_ms", span_ms("index.build"), "ms");
  report->Add("index.postings",
              static_cast<double>(outcomes.back().index_postings), "count");
  report->Add("trace.overhead_frac", overhead, "ratio");
  ReportSpans(options, recorder, report);
}

}  // namespace cafc::perfbench
