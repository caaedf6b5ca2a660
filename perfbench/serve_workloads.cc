// Workloads `serve` and `refresh`: the paper-scale directory (454 pages,
// 8 CAFC-CH sections) behind one DirectoryServer with the result cache on.
//
//   serve:   closed loop, kClients clients, 50% Classify of unseen form
//            pages from held-out webs (a pool larger than the cache) and
//            50% Zipf-ranked Search (a hot set the cache holds).
//   refresh: open loop at kOpenLoopQps while growth batches arrive through
//            ScheduleRefresh every kRefreshIntervalS; freshness is the time
//            from ScheduleRefresh to the first answer at its version.
//
// Every answer is checked after the measured phase against a serial,
// uncached full-scan directory rebuilt from the same web (and, for
// refresh, stepped through the same batches).

#include <algorithm>
#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "client_log.h"
#include "perfbench.h"
#include "probes.h"
#include "serve/server.h"
#include "substrate.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/workload.h"

namespace cafc::perfbench {
namespace {

constexpr size_t kTopK = 5;
constexpr size_t kCacheBytes = 256u << 10;
constexpr double kZipfS = 1.1;
constexpr int kHeldOutWebs = 2;
constexpr double kWarmupS = 1.0;
constexpr double kOpenLoopQps = 2000.0;
constexpr double kRefreshIntervalS = 0.5;
constexpr int kBatchPages = 24;

struct Inputs {
  web::SyntheticWeb web;
  std::vector<forms::FormPageDocument> docs;
  std::vector<std::string> queries;
};

Inputs MakeInputs(uint64_t seed) {
  Inputs inputs;
  inputs.web = MakeWeb(SubSeed(seed, /*stream=*/0, 0), kPaperPages);
  inputs.docs = HeldOutDocs(seed, kHeldOutWebs, kPaperPages);
  return inputs;
}

std::unique_ptr<serve::DirectoryServer> StartServer(
    const web::SyntheticWeb& web) {
  CorpusBuild built = Ingest(web);
  DatabaseDirectory directory = BuildCafcChDirectory(built.corpus, kSections);
  serve::DirectoryServerOptions options;
  options.workers = kServerWorkers;
  options.queue_capacity = 4096;
  options.cache_bytes = kCacheBytes;
  // service_pad_ms stays 0: every number measures real work.
  return std::make_unique<serve::DirectoryServer>(
      std::move(directory), std::move(built.corpus), options);
}

void NoteEnv(Report* report, const Inputs& inputs) {
  report->Env("form_pages", std::to_string(kPaperPages));
  report->Env("sections", std::to_string(kSections));
  report->Env("server_workers", std::to_string(kServerWorkers));
  report->Env("cache_bytes", std::to_string(kCacheBytes));
  report->Env("classify_pool", std::to_string(inputs.docs.size()));
  report->Env("search_pool", std::to_string(inputs.queries.size()));
}

/// One client's deterministic request sequence: a fair coin picks the
/// kind, classify documents are uniform over the pool, queries Zipf-ranked.
class RequestStream {
 public:
  RequestStream(uint64_t seed, const Inputs* inputs,
                const workload::ZipfSampler* zipf)
      : rng_(seed), inputs_(inputs), zipf_(zipf) {}

  serve::QueryRequest Next(Outcome* outcome) {
    serve::QueryRequest request;
    outcome->search = rng_.Bernoulli(0.5);
    if (outcome->search) {
      outcome->item = static_cast<uint32_t>(zipf_->Sample(&rng_));
      request.kind = serve::QueryKind::kSearch;
      request.query = inputs_->queries[outcome->item];
      request.top_k = kTopK;
    } else {
      outcome->item =
          static_cast<uint32_t>(rng_.Uniform(inputs_->docs.size()));
      request.kind = serve::QueryKind::kClassify;
      request.doc = inputs_->docs[outcome->item];
    }
    return request;
  }

 private:
  Rng rng_;
  const Inputs* inputs_;
  const workload::ZipfSampler* zipf_;
};

/// Sends one request (Submit, then wait) and fills the outcome. Latency
/// runs from `start_ns` (send time, or the due time in the open loop).
void Issue(serve::DirectoryServer& server, serve::QueryRequest request,
           int64_t start_ns, SpanRecorder* recorder, uint64_t request_id,
           Outcome* o) {
  ScopedSpan span(recorder, o->search ? "serve.search" : "serve.classify",
                  request_id);
  const int64_t sent = NowNs();
  std::future<serve::QueryResponse> future;
  {
    ScopedSpan submit(recorder, "serve.submit");
    future = server.Submit(std::move(request));
  }
  const int64_t submitted = NowNs();
  serve::QueryResponse response;
  {
    ScopedSpan wait(recorder, "serve.wait");
    response = future.get();
  }
  o->done_ns = NowNs();
  o->latency_us = static_cast<double>(o->done_ns - start_ns) / 1e3;
  o->submit_us = static_cast<double>(submitted - sent) / 1e3;
  o->ok = response.status.ok();
  o->cache_hit = response.cache_hit;
  o->version = response.snapshot_version;
  o->queue_us = response.queue_ms * 1e3;
  o->service_us = response.service_ms * 1e3;
  o->answer = o->search ? Answer{-1, 0.0, HitsDigest(response.hits)}
                        : Answer{response.classification.entry,
                                 response.classification.similarity, 0};
}

/// The serial oracle: the same web ingested and clustered again on one
/// thread, queried by full scan.
struct Replica {
  Corpus corpus;
  DatabaseDirectory directory;
};
Replica SerialReplica(const web::SyntheticWeb& web) {
  util::ScopedThreads serial(1);
  CorpusBuild built = Ingest(web);
  DatabaseDirectory directory = BuildCafcChDirectory(built.corpus, kSections);
  return Replica{std::move(built.corpus), std::move(directory)};
}

void AddQueryLatencies(const std::vector<ClientLog>& logs, Report* report) {
  const std::vector<double> classify = Pool(logs, &ClientLog::classify_us);
  const std::vector<double> search = Pool(logs, &ClientLog::search_us);
  report->AddPercentile("classify_p50_us", classify, 50, "us");
  report->AddPercentile("classify_p99_us", classify, 99, "us");
  report->AddPercentile("search_p50_us", search, 50, "us");
  report->AddPercentile("search_p99_us", search, 99, "us");
}

void AddServeLayers(const std::vector<ClientLog>& logs,
                    const serve::ServerStats& stats, Report* report) {
  const struct {
    const char* name;
    Reservoir ClientLog::*series;
  } kSeries[] = {{"serve.submit_us", &ClientLog::submit_us},
                 {"serve.queue_us", &ClientLog::queue_us},
                 {"serve.service_us.classify", &ClientLog::service_classify_us},
                 {"serve.service_us.search", &ClientLog::service_search_us}};
  for (const auto& s : kSeries) {
    const std::vector<double> samples = Pool(logs, s.series);
    report->AddPercentile(std::string(s.name) + ".p50", samples, 50, "us");
    report->AddPercentile(std::string(s.name) + ".p99", samples, 99, "us");
  }
  report->Add("serve.service_cpu_us", stats.service_cpu_us.mean(), "us",
              stats.service_cpu_us.count());
  uint64_t n = 0, searches = 0, search_hits = 0, classify_hits = 0;
  for (const ClientLog& log : logs) {
    n += log.count;
    searches += log.searches;
    search_hits += log.search_hits;
    classify_hits += log.classify_hits;
  }
  report->Add("serve.cache_hit_rate.classify",
              static_cast<double>(classify_hits) / (n - searches), "ratio",
              n - searches);
  report->Add("serve.cache_hit_rate.search",
              static_cast<double>(search_hits) / searches, "ratio", searches);
  report->Add("serve.cache_evictions",
              static_cast<double>(stats.cache_evictions), "count");
  report->Add("serve.queue_peak", static_cast<double>(stats.queue_peak),
              "count");
}

/// Replays the logged head of every client serially through the directory
/// layer on the server's pinned snapshot — WeighNewDocument, then the
/// indexed ClassifyPage, or the indexed Search — under spans, checking
/// each answer against the served one.
void ReplayDirectoryLayer(const serve::DirectorySnapshot& snap,
                          const std::vector<ClientLog>& logs,
                          const Inputs& inputs, SpanRecorder* recorder,
                          Report* report) {
  const DatabaseDirectory& directory = snap.directory();
  std::vector<double> scored, postings;
  uint64_t id = 0;
  for (const ClientLog& log : logs) {
    for (const Outcome& o : log.head) {
      DirectoryQueryCost cost;
      Answer answer;
      if (o.search) {
        ScopedSpan span(recorder, "replay.search", ++id);
        ScopedSpan layer(recorder, "directory.search");
        answer = Answer{-1, 0.0,
                        HitsDigest(directory.Search(inputs.queries[o.item],
                                                    kTopK, snap.index(),
                                                    &cost))};
      } else {
        ScopedSpan span(recorder, "replay.classify", ++id);
        FormPage page;
        {
          ScopedSpan layer(recorder, "directory.weigh");
          page = WeighNewDocument(directory.collection(), inputs.docs[o.item]);
        }
        ScopedSpan layer(recorder, "directory.walk");
        const DatabaseDirectory::Classification c = directory.ClassifyPage(
            page, ContentConfig::kFcPlusPc, snap.index(), &cost);
        answer = Answer{c.entry, c.similarity, 0};
      }
      scored.push_back(static_cast<double>(cost.centroids_scored));
      postings.push_back(static_cast<double>(cost.postings_visited));
      report->Check(o.version != snap.version() || answer == o.answer);
    }
  }
  const auto spans = recorder->Summarize();
  report->AddMedian("directory.weigh_us",
                    SpanSamplesUs(spans, "directory.weigh"), "us");
  report->AddMedian("directory.walk_us",
                    SpanSamplesUs(spans, "directory.walk"), "us");
  report->AddMedian("directory.search_us",
                    SpanSamplesUs(spans, "directory.search"), "us");
  report->AddMedian("directory.centroids_scored", scored, "count");
  report->AddMedian("directory.postings_visited", postings, "count");
}

}  // namespace

void RunServe(const RunOptions& options, Report* report) {
  Inputs inputs = MakeInputs(options.seed);
  std::unique_ptr<serve::DirectoryServer> server;
  const double setup_s = TimeSetup(
      kSetupRepeats, [&] { server.reset(); },
      [&] { server = StartServer(inputs.web); });
  inputs.queries = SearchPool(server->snapshot()->directory());
  NoteEnv(report, inputs);
  report->Env("clients", std::to_string(kClients));
  report->Env("loop", "closed");

  const workload::ZipfSampler zipf(inputs.queries.size(), kZipfS);
  std::vector<RequestStream> streams;
  for (size_t c = 0; c < kClients; ++c) {
    streams.emplace_back(SubSeed(options.seed, /*stream=*/3, c), &inputs,
                         &zipf);
  }
  SpanRecorder recorder;
  SpanRecorder* active = nullptr;
  std::vector<ClientLog> logs = MakeLogs(kClients, options.seed, false);
  std::vector<uint64_t> next_id(kClients, 0);
  const auto step = [&](size_t c, bool record) {
    Outcome o;
    serve::QueryRequest request = streams[c].Next(&o);
    const uint64_t id = (++next_id[c] << 3) | c;
    Issue(*server, std::move(request), NowNs(), record ? active : nullptr, id,
          &o);
    if (record) logs[c].Add(o);
  };

  const double measure_s =
      options.trace ? options.seconds / 2 : options.seconds;
  const PhaseTime plain = RunClosedLoop(kClients, kWarmupS, measure_s, step);
  const MemoryStatus memory = ReadMemoryStatus();
  PhaseTime traced;
  if (options.trace) {
    logs = MakeLogs(kClients, options.seed, true);
    active = &recorder;
    traced = RunClosedLoop(kClients, 0.0, measure_s, step);
  }
  const serve::ServerStats stats = server->Stats();
  const serve::SnapshotPtr pinned = server->snapshot();

  // Oracle check, after the measured phase.
  std::map<uint64_t, OracleAnswers> oracle;
  {
    Replica replica = SerialReplica(inputs.web);
    oracle[1] =
        ScanOracle(replica.directory, inputs.docs, inputs.queries, kTopK);
  }
  const uint64_t wrong = CheckAnswers(logs, oracle, report);
  const uint64_t ops = Count(logs);

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
    AddQueryLatencies(logs, report);
    report->Add("failed_frac", static_cast<double>(wrong) / ops, "ratio",
                ops);
  } else {
    AddServeLayers(logs, stats, report);
    ReplayDirectoryLayer(*pinned, logs, inputs, &recorder, report);
    report->Add("trace.overhead_frac",
                traced.cpu_us_per_op() / plain.cpu_us_per_op() - 1, "ratio");
    ReportSpans(options, recorder, report);
  }
  server->Shutdown();
}

void RunRefresh(const RunOptions& options, Report* report) {
  Inputs inputs = MakeInputs(options.seed);
  std::unique_ptr<serve::DirectoryServer> server;
  const double setup_s = TimeSetup(
      kSetupRepeats, [&] { server.reset(); },
      [&] { server = StartServer(inputs.web); });
  inputs.queries = SearchPool(server->snapshot()->directory());
  // Growth batches, generated up front (after set-up, so set-up never runs
  // on a heap the batches churned): one per refresh interval, leaving the
  // last interval of each phase for the final publish to be seen.
  const int phases = options.trace ? 2 : 1;
  const double phase_s = options.seconds / phases;
  const int per_phase =
      std::max(1, static_cast<int>(phase_s / kRefreshIntervalS) - 1);
  std::vector<std::vector<DatasetEntry>> batches;
  for (int b = 0; b < per_phase * phases; ++b) {
    CorpusBuild built = Ingest(MakeGrowthWeb(
        SubSeed(options.seed, /*stream=*/2, static_cast<uint64_t>(b)),
        kBatchPages));
    batches.push_back(built.corpus.TakeEntries());
  }
  NoteEnv(report, inputs);
  report->Env("senders", std::to_string(kSenders));
  report->Env("loop", "open, " +
                          std::to_string(static_cast<int>(kOpenLoopQps)) +
                          " queries/s");
  report->Env("refreshes", std::to_string(batches.size()));

  const workload::ZipfSampler zipf(inputs.queries.size(), kZipfS);
  std::vector<RequestStream> streams;
  for (size_t s = 0; s < kSenders; ++s) {
    streams.emplace_back(SubSeed(options.seed, /*stream=*/4, s), &inputs,
                         &zipf);
  }
  std::vector<int64_t> scheduled_ns(batches.size(), 0);
  std::vector<std::vector<ClientLog>> phase_logs;
  double wall_s = 0.0, cpu_s = 0.0;  // summed over the phases
  SpanRecorder recorder;
  const MemoryStatus rss_before = ReadMemoryStatus();

  for (int p = 0; p < phases; ++p) {
    SpanRecorder* active = p == 1 ? &recorder : nullptr;
    phase_logs.push_back(MakeLogs(kSenders, options.seed + p, p == 1));
    std::vector<ClientLog>& logs = phase_logs.back();
    const int64_t start = NowNs() + 10'000'000;  // 10 ms to start senders
    const int64_t end = start + static_cast<int64_t>(phase_s * 1e9);
    const double cpu_start = ProcessCpuSeconds();
    std::vector<std::thread> senders;
    for (size_t s = 0; s < kSenders; ++s) {
      senders.emplace_back([&, s] {
        for (uint64_t i = s;; i += kSenders) {
          const int64_t due =
              start + static_cast<int64_t>(static_cast<double>(i) * 1e9 /
                                           kOpenLoopQps);
          if (due >= end) break;
          std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
              std::chrono::nanoseconds(due)));
          Outcome o;
          serve::QueryRequest request = streams[s].Next(&o);
          o.late_us = static_cast<double>(NowNs() - due) / 1e3;
          Issue(*server, std::move(request), due, active, i + 1, &o);
          logs[s].Add(o);
        }
      });
    }
    for (int k = 0; k < per_phase; ++k) {
      const size_t b = static_cast<size_t>(p * per_phase + k);
      const int64_t at =
          start + static_cast<int64_t>((k + 0.5) * kRefreshIntervalS * 1e9);
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(at)));
      ScopedSpan span(active, "serve.schedule_refresh", b + 1);
      scheduled_ns[b] = NowNs();
      const Status status = server->ScheduleRefresh(batches[b]);
      if (!status.ok()) report->Fail("ScheduleRefresh: " + status.ToString());
    }
    for (std::thread& t : senders) t.join();
    server->WaitForRefreshes();
    wall_s += static_cast<double>(NowNs() - start) / 1e9;
    cpu_s += ProcessCpuSeconds() - cpu_start;
  }
  const MemoryStatus memory = ReadMemoryStatus();
  const serve::ServerStats stats = server->Stats();
  report->Check(stats.refreshes == batches.size() &&
                stats.refresh_failures == 0);

  // Oracle: the serial replica steps through the same batches; version
  // b + 2 is the directory after batch b.
  SpanRecorder* traced = options.trace ? &recorder : nullptr;
  std::map<uint64_t, OracleAnswers> oracle;
  std::vector<double> recomputed, iterations, evals, skips, postings;
  {
    Replica replica = SerialReplica(inputs.web);
    oracle[1] =
        ScanOracle(replica.directory, inputs.docs, inputs.queries, kTopK);
    for (size_t b = 0; b < batches.size(); ++b) {
      ScopedSpan step(traced, "replica.refresh", b + 1);
      {
        ScopedSpan span(traced, "corpus.add");
        if (!replica.corpus.AddPages(batches[b]).ok()) {
          report->Fail("replica AddPages failed");
        }
      }
      {
        ScopedSpan span(traced, "corpus.derive");
        replica.corpus.Weighted();
      }
      std::optional<Result<DirectoryRefreshReport>> refreshed;
      {
        ScopedSpan span(traced, "directory.refresh");
        refreshed.emplace(replica.directory.Refresh(replica.corpus));
      }
      if (!refreshed->ok()) {
        report->Fail("replica Refresh failed");
        continue;
      }
      {
        ScopedSpan span(traced, "directory.clone");
        DatabaseDirectory clone = replica.directory.Clone();
      }
      {
        ScopedSpan span(traced, "index.build");
        postings.push_back(static_cast<double>(
            replica.directory.BuildCentroidIndex().num_postings()));
      }
      const cluster::KMeansStats& kmeans = (*refreshed)->kmeans;
      recomputed.push_back(static_cast<double>(
          replica.corpus.last_derive().vectors_recomputed));
      iterations.push_back(kmeans.iterations);
      evals.push_back(static_cast<double>(kmeans.similarity_evals));
      skips.push_back(static_cast<double>(kmeans.bound_skips));
      oracle[b + 2] =
          ScanOracle(replica.directory, inputs.docs, inputs.queries, kTopK);
    }
  }
  uint64_t wrong = 0;
  for (const std::vector<ClientLog>& logs : phase_logs) {
    wrong += CheckAnswers(logs, oracle, report);
  }

  // Freshness: ScheduleRefresh of batch b to the first answer at version
  // b + 2 or later.
  std::vector<double> freshness_us;
  for (size_t b = 0; b < batches.size(); ++b) {
    int64_t first = 0;
    for (const std::vector<ClientLog>& logs : phase_logs) {
      for (const ClientLog& log : logs) {
        for (auto it = log.first_done_ns.lower_bound(b + 2);
             it != log.first_done_ns.end(); ++it) {
          if (first == 0 || it->second < first) first = it->second;
        }
      }
    }
    if (first == 0) {
      report->Fail("version " + std::to_string(b + 2) + " never answered");
      continue;
    }
    freshness_us.push_back(static_cast<double>(first - scheduled_ns[b]) /
                           1e3);
  }

  uint64_t queries = 0;
  for (const std::vector<ClientLog>& logs : phase_logs) queries += Count(logs);
  const size_t refreshes = batches.size();
  if (!options.trace) {
    // The gated figures are per query, as in `serve`; the refresh work
    // shows in the CPU each answered query costs. Freshness is printed,
    // not gated: its median moved by a third between sets of runs on the
    // same code (see perfbench/README.md).
    std::vector<double> freshness_ms;
    for (double us : freshness_us) freshness_ms.push_back(us / 1e3);
    report->Add("setup_s", setup_s, "s", kSetupRepeats);
    report->AddPercentile("latency_p50_us",
                          Pool(phase_logs[0], &ClientLog::classify_us), 50,
                          "us");
    report->Add("cpu_us_per_op", cpu_s * 1e6 / queries, "us", queries);
    report->Add("ops_per_s", queries / wall_s, "1/s", queries);
    report->Add("peak_rss_mb", memory.hwm_kb / 1024.0, "MB");
    report->Add("refreshes_per_s", refreshes / wall_s, "1/s", refreshes);
    report->AddMedian("freshness_p50_ms", freshness_ms, "ms");
    AddQueryLatencies(phase_logs[0], report);
    report->Add("failed_frac", static_cast<double>(wrong) / queries, "ratio",
                queries);
    return;
  }
  const auto spans = recorder.Summarize();
  const auto span_ms = [&](const std::string& name) {
    std::vector<double> ms;
    for (double us : SpanSamplesUs(spans, name)) ms.push_back(us / 1e3);
    return ms;
  };
  report->AddMedian("corpus.add_ms", span_ms("corpus.add"), "ms");
  report->AddMedian("corpus.derive_ms", span_ms("corpus.derive"), "ms");
  report->AddMedian("corpus.vectors_recomputed", recomputed, "count");
  report->AddMedian("directory.refresh_ms", span_ms("directory.refresh"),
                    "ms");
  report->AddMedian("directory.clone_ms", span_ms("directory.clone"), "ms");
  report->AddMedian("index.build_ms", span_ms("index.build"), "ms");
  report->AddMedian("index.postings", postings, "count");
  report->AddMedian("kmeans.iterations", iterations, "count");
  report->AddMedian("kmeans.similarity_evals", evals, "count");
  report->AddMedian("kmeans.bound_skips", skips, "count");
  AddServeLayers(phase_logs[1], stats, report);
  report->Add("serve.rss_kb_per_refresh",
              (memory.rss_kb - rss_before.rss_kb) / refreshes, "kB",
              refreshes);
  report->AddPercentile("gen.late_p99_us",
                        Pool(phase_logs[1], &ClientLog::late_us), 99, "us");
  report->Add("trace.overhead_frac",
              Median(AllLatencies(phase_logs[1])) /
                      Median(AllLatencies(phase_logs[0])) -
                  1,
              "ratio");
  ReportSpans(options, recorder, report);
}

}  // namespace cafc::perfbench
