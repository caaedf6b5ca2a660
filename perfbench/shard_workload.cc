// Workload `shard`: the paper-scale corpus clustered one section per site,
// partitioned by site hash across kShards in-process shard servers (one
// worker each, cache off) behind a ShardRouter. A closed loop of kClients
// clients sends 80% Classify of unseen form pages (scatter-gathered to
// every shard) and 20% Zipf-ranked Search. The only workload that goes
// through ipc framing/RPC and the scatter-gather merge.

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "client_log.h"
#include "core/partition.h"
#include "ipc/pipe.h"
#include "ipc/shard_rpc.h"
#include "perfbench.h"
#include "probes.h"
#include "serve/server.h"
#include "serve/shard_router.h"
#include "serve/shard_service.h"
#include "substrate.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/workload.h"

namespace cafc::perfbench {
namespace {

constexpr size_t kTopK = 5;
constexpr double kClassifyShare = 0.8;
constexpr double kZipfS = 1.1;
constexpr int kHeldOutWebs = 1;
constexpr double kWarmupS = 1.0;
constexpr size_t kReplaySample = 400;

/// An in-process shard fleet whose router client ends are wrapped in
/// counting pipes.
struct Fleet {
  std::vector<std::unique_ptr<serve::DirectoryServer>> servers;
  std::vector<std::unique_ptr<serve::DirectoryShardService>> services;
  std::vector<std::unique_ptr<serve::ShardServiceHost>> hosts;
  std::unique_ptr<serve::ShardRouter> router;

  ~Fleet() {
    if (router) router->Close();
    for (auto& host : hosts) host->Shutdown();
    for (auto& server : servers) server->Shutdown();
  }
};

std::unique_ptr<Fleet> StartFleet(const web::SyntheticWeb& web,
                                  PipeCounters* counters) {
  CorpusBuild built = Ingest(web);
  DatabaseDirectory global = BuildSiteDirectory(built.corpus);
  Result<std::vector<ShardBundle>> bundles =
      PartitionDirectory(global, built.corpus, kShards);
  if (!bundles.ok()) {
    throw std::runtime_error("partition failed: " +
                             bundles.status().ToString());
  }
  auto fleet = std::make_unique<Fleet>();
  std::vector<std::unique_ptr<ipc::ShardClient>> clients;
  for (ShardBundle& bundle : *bundles) {
    serve::DirectoryServerOptions options;
    options.workers = kWorkersPerShard;
    options.queue_capacity = 4096;
    fleet->servers.push_back(std::make_unique<serve::DirectoryServer>(
        std::move(bundle.directory), std::move(bundle.corpus), options));
    fleet->services.push_back(std::make_unique<serve::DirectoryShardService>(
        fleet->servers.back().get(), bundle.global_sections,
        static_cast<uint32_t>(bundle.shard_id),
        static_cast<uint32_t>(bundle.num_shards)));
    auto [service_end, client_end] = ipc::CreateInProcessPipePair();
    fleet->hosts.push_back(std::make_unique<serve::ShardServiceHost>(
        std::move(service_end), fleet->services.back().get(),
        kWorkersPerShard));
    clients.push_back(std::make_unique<ipc::ShardClient>(
        std::make_unique<CountingPipe>(std::move(client_end), counters)));
  }
  fleet->router = std::make_unique<serve::ShardRouter>(std::move(clients));
  return fleet;
}

/// Routes one request; `shards` receives how many shards answered.
Outcome Route(serve::ShardRouter& router, bool search, uint32_t item,
              const std::vector<forms::FormPageDocument>& docs,
              const std::vector<std::string>& queries, SpanRecorder* recorder,
              uint64_t request_id, size_t* shards = nullptr) {
  Outcome o;
  o.item = item;
  o.search = search;
  ScopedSpan span(recorder, search ? "router.search" : "router.classify",
                  request_id);
  const int64_t start = NowNs();
  serve::RouterResponse response = search
                                       ? router.Search(queries[item], kTopK)
                                       : router.Classify(docs[item]);
  o.done_ns = NowNs();
  o.latency_us = static_cast<double>(o.done_ns - start) / 1e3;
  // Version 1 unless a shard echoes otherwise; nothing refreshes here.
  o.version = 1;
  o.ok = response.status.ok() && !response.partial;
  for (const serve::ShardEcho& echo : response.shards) {
    o.ok = o.ok && echo.status.ok();
    if (echo.snapshot_version != 1) o.version = echo.snapshot_version;
  }
  if (shards != nullptr) *shards = response.shards.size();
  o.answer = search ? Answer{-1, 0.0, HitsDigest(response.hits)}
                    : Answer{response.classification.entry,
                             response.classification.similarity, 0};
  return o;
}

std::vector<double> ShardCpuUs(serve::ShardRouter& router) {
  std::vector<double> cpu;
  for (const Result<serve::ServerStats>& stats : router.PerShardStats()) {
    cpu.push_back(stats.ok() ? stats->service_cpu_us.sum() : 0.0);
  }
  return cpu;
}

}  // namespace

void RunShard(const RunOptions& options, Report* report) {
  const web::SyntheticWeb web =
      MakeWeb(SubSeed(options.seed, /*stream=*/0, 0), kPaperPages);
  const std::vector<forms::FormPageDocument> docs =
      HeldOutDocs(options.seed, kHeldOutWebs, kPaperPages);
  PipeCounters counters;
  std::unique_ptr<Fleet> fleet;
  const double setup_s = TimeSetup(
      kSetupRepeats, [&] { fleet.reset(); },
      [&] { fleet = StartFleet(web, &counters); });
  // Queries from the unsharded directory's labels (shards share them).
  std::vector<std::string> queries;
  DatabaseDirectory oracle_directory;
  {
    util::ScopedThreads serial(1);
    CorpusBuild built = Ingest(web);
    oracle_directory = BuildSiteDirectory(built.corpus);
  }
  queries = SearchPool(oracle_directory);
  report->Env("form_pages", std::to_string(kPaperPages));
  report->Env("sections", std::to_string(oracle_directory.size()));
  report->Env("shards", std::to_string(kShards));
  report->Env("workers_per_shard", std::to_string(kWorkersPerShard));
  report->Env("clients", std::to_string(kClients));
  report->Env("loop", "closed");
  report->Env("classify_pool", std::to_string(docs.size()));
  report->Env("search_pool", std::to_string(queries.size()));

  const workload::ZipfSampler zipf(queries.size(), kZipfS);
  std::vector<Rng> rngs;
  for (size_t c = 0; c < kClients; ++c) {
    rngs.emplace_back(SubSeed(options.seed, /*stream=*/5, c));
  }
  SpanRecorder recorder;
  SpanRecorder* active = nullptr;
  std::vector<ClientLog> logs = MakeLogs(kClients, options.seed, false);
  std::vector<uint64_t> next_id(kClients, 0);
  const auto step = [&](size_t c, bool record) {
    const bool search = !rngs[c].Bernoulli(kClassifyShare);
    const uint32_t item = static_cast<uint32_t>(
        search ? zipf.Sample(&rngs[c]) : rngs[c].Uniform(docs.size()));
    const uint64_t id = (++next_id[c] << 3) | c;
    const Outcome o = Route(*fleet->router, search, item, docs, queries,
                            record ? active : nullptr, id);
    if (record) logs[c].Add(o);
  };

  const double measure_s =
      options.trace ? options.seconds / 2 : options.seconds;
  const PhaseTime plain = RunClosedLoop(kClients, kWarmupS, measure_s, step);
  const MemoryStatus memory = ReadMemoryStatus();

  PhaseTime traced;
  std::vector<double> cpu_before, cpu_after;
  uint64_t messages = 0;
  if (options.trace) {
    logs = MakeLogs(kClients, options.seed, false);
    active = &recorder;
    cpu_before = ShardCpuUs(*fleet->router);
    const uint64_t messages_before = counters.messages();
    traced = RunClosedLoop(kClients, 0.0, measure_s, step);
    messages = counters.messages() - messages_before;
    cpu_after = ShardCpuUs(*fleet->router);
  }
  const uint64_t ops = Count(logs);

  // Oracle check: the unsharded, uncached, serial full scan.
  std::map<uint64_t, OracleAnswers> oracle;
  oracle[1] = ScanOracle(oracle_directory, docs, queries, kTopK);
  const uint64_t wrong = CheckAnswers(logs, oracle, report);

  if (!options.trace) {
    report->Add("setup_s", setup_s, "s", kSetupRepeats);
    report->AddPercentile("latency_p50_us",
                          Pool(logs, &ClientLog::classify_us), 50, "us");
    const size_t windows = plain.window_ops_per_s.size();
    report->Add("cpu_us_per_op", plain.cpu_us_per_op(), "us", windows);
    report->Add("ops_per_s", plain.ops_per_s(), "1/s", windows);
    report->Add("peak_rss_mb", memory.hwm_kb / 1024.0, "MB");
    report->Add("qps", plain.ops_per_s(), "queries/s", windows);
    report->Add("cpu_us_per_query", plain.cpu_us_per_op(), "us", windows);
    const std::vector<double> classify = Pool(logs, &ClientLog::classify_us);
    const std::vector<double> search = Pool(logs, &ClientLog::search_us);
    report->AddPercentile("classify_p50_us", classify, 50, "us");
    report->AddPercentile("classify_p99_us", classify, 99, "us");
    report->AddPercentile("search_p50_us", search, 50, "us");
    report->AddPercentile("search_p99_us", search, 99, "us");
    report->Add("failed_frac", static_cast<double>(wrong) / ops, "ratio", ops);
    return;
  }

  // Router and ipc layers: per-shard CPU over the traced phase, and wire
  // traffic per request kind from a serial replay (one call in flight, so
  // the counter delta is exactly that call's traffic).
  double max_cpu = 0.0, sum_cpu = 0.0;
  for (size_t s = 0; s < cpu_after.size(); ++s) {
    max_cpu = std::max(max_cpu, cpu_after[s] - cpu_before[s]);
    sum_cpu += cpu_after[s] - cpu_before[s];
  }
  report->Add("shard.bottleneck_cpu_us_per_query", max_cpu / ops, "us", ops);
  report->Add("shard.cpu_imbalance", max_cpu / (sum_cpu / cpu_after.size()),
              "ratio", cpu_after.size());
  report->Add("ipc.messages_per_query", static_cast<double>(messages) / ops,
              "count", ops);
  std::vector<double> classify_bytes, search_bytes;
  std::vector<serve::SnapshotPtr> snaps;
  for (const auto& server : fleet->servers) snaps.push_back(server->snapshot());
  std::vector<double> scored, postings, shards_per_query;
  for (size_t i = 0; i < kReplaySample; ++i) {
    const bool search = i % 5 == 4;  // the workload's 80/20 mix
    const uint32_t item = static_cast<uint32_t>(
        search ? (i / 5) % queries.size() : i % docs.size());
    const uint64_t before = counters.bytes();
    size_t shards = 0;
    const Outcome o = Route(*fleet->router, search, item, docs, queries,
                            nullptr, 0, &shards);
    const double bytes = static_cast<double>(counters.bytes() - before);
    (search ? search_bytes : classify_bytes).push_back(bytes);
    shards_per_query.push_back(static_cast<double>(shards));
    report->Check(o.ok && o.answer == (search ? oracle[1].search
                                              : oracle[1].classify)[item]);
    // The directory layer as each shard runs it, on its pinned snapshot.
    uint64_t query_scored = 0, query_postings = 0;
    for (const serve::SnapshotPtr& snap : snaps) {
      const DatabaseDirectory& directory = snap->directory();
      DirectoryQueryCost cost;
      ScopedSpan span(&recorder, search ? "replay.search" : "replay.classify",
                      i + 1);
      if (search) {
        ScopedSpan layer(&recorder, "directory.search");
        directory.Search(queries[item], kTopK, snap->index(), &cost);
      } else {
        FormPage page;
        {
          ScopedSpan layer(&recorder, "directory.weigh");
          page = WeighNewDocument(directory.collection(), docs[item]);
        }
        ScopedSpan layer(&recorder, "directory.walk");
        directory.ClassifyPage(page, ContentConfig::kFcPlusPc, snap->index(),
                               &cost);
      }
      query_scored += cost.centroids_scored;
      query_postings += cost.postings_visited;
    }
    scored.push_back(static_cast<double>(query_scored));
    postings.push_back(static_cast<double>(query_postings));
  }
  report->AddMedian("router.shards_per_query", shards_per_query, "count");
  report->AddMedian("ipc.bytes_per_classify", classify_bytes, "bytes");
  report->AddMedian("ipc.bytes_per_search", search_bytes, "bytes");
  const auto spans = recorder.Summarize();
  report->AddMedian("directory.weigh_us",
                    SpanSamplesUs(spans, "directory.weigh"), "us");
  report->AddMedian("directory.walk_us", SpanSamplesUs(spans, "directory.walk"),
                    "us");
  report->AddMedian("directory.search_us",
                    SpanSamplesUs(spans, "directory.search"), "us");
  report->AddMedian("directory.centroids_scored", scored, "count");
  report->AddMedian("directory.postings_visited", postings, "count");
  report->Add("trace.overhead_frac",
              traced.cpu_us_per_op() / plain.cpu_us_per_op() - 1, "ratio");
  ReportSpans(options, recorder, report);
}

}  // namespace cafc::perfbench
