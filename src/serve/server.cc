#include "serve/server.h"

#include <time.h>

#include <algorithm>
#include <memory>
#include <utility>

#include "util/varint.h"

namespace cafc::serve {
namespace {

double MsSince(std::chrono::steady_clock::time_point start,
               std::chrono::steady_clock::time_point now) {
  return std::chrono::duration<double, std::milli>(now - start).count();
}

/// CPU time this thread has burned, in microseconds. Unlike the wall
/// clocks around it, this is unaffected by preemption or co-scheduled
/// workers — two requests doing the same scoring work cost the same here
/// whether the box is idle or saturated.
double ThreadCpuUs() {
  timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) / 1e3;
}

QueryResponse Rejected(Status status) {
  QueryResponse response;
  response.status = std::move(status);
  return response;
}

/// Absolute deadline of a request admitted `now` (max() when none).
std::chrono::steady_clock::time_point DeadlineFor(
    const QueryRequest& request,
    std::chrono::steady_clock::time_point now) {
  if (request.deadline_ms <= 0.0) {
    return std::chrono::steady_clock::time_point::max();
  }
  return now + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   std::chrono::duration<double, std::milli>(
                       request.deadline_ms));
}

}  // namespace

DirectoryServer::DirectoryServer(DatabaseDirectory directory, Corpus corpus,
                                 DirectoryServerOptions options)
    : options_(options),
      master_(std::move(directory)),
      corpus_(std::move(corpus)),
      queue_(options.scheduling) {
  options_.workers = std::max<size_t>(1, options_.workers);
  options_.queue_capacity = std::max<size_t>(1, options_.queue_capacity);
  if (options_.cache_bytes > 0) {
    cache_ = std::make_unique<ResultCache>(options_.cache_bytes);
  }
  // Version 1: the directory the server was handed, frozen. Published
  // before any thread starts, so the first dequeue already sees it.
  Publish(std::make_shared<const DirectorySnapshot>(
      master_.Clone(), publish_seq_, master_.epoch()));
  workers_.reserve(options_.workers);
  for (size_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  refresh_thread_ = std::thread([this] { RefreshLoop(); });
}

DirectoryServer::DirectoryServer(
    std::shared_ptr<const storage::MappedSnapshot> snapshot,
    DirectoryServerOptions options)
    : options_(options), read_only_(true), queue_(options.scheduling) {
  options_.workers = std::max<size_t>(1, options_.workers);
  options_.queue_capacity = std::max<size_t>(1, options_.queue_capacity);
  if (options_.cache_bytes > 0) {
    cache_ = std::make_unique<ResultCache>(options_.cache_bytes);
  }
  // The mapped snapshot is the directory: no clone, no re-index — the
  // centroid index was streamed out of the file at Open, and the page
  // profiles stay behind the mmap. There is no refresh master and no
  // refresh thread; the single published snapshot lives for the server's
  // whole lifetime.
  Publish(std::make_shared<const DirectorySnapshot>(std::move(snapshot),
                                                    publish_seq_));
  workers_.reserve(options_.workers);
  for (size_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

DirectoryServer::~DirectoryServer() { Shutdown(); }

SnapshotPtr DirectoryServer::snapshot() const {
  std::lock_guard<std::mutex> lock(queue_mutex_);
  return current_;
}

void DirectoryServer::Publish(SnapshotPtr next) {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    current_.swap(next);
  }
  // `next` now holds the superseded snapshot. Dropping it outside the lock
  // frees it here unless an in-flight request still pins it, in which case
  // that request's worker frees it when it finishes.
}

std::string DirectoryServer::CacheKey(const QueryRequest& request) {
  std::string key;
  switch (request.kind) {
    case QueryKind::kSearch:
      key.push_back('S');
      util::PutVarint64(&key, request.top_k);
      key.append(request.query);
      return key;
    case QueryKind::kClassify: {
      // Canonical content: everything ClassifyDocument can read, as
      // (location, term-string) occurrences resolved through the
      // document's dictionary — two documents with different interning
      // but identical text hash to the same key, and two different
      // documents never collide (the key is the content, not a digest).
      if (request.doc.dictionary == nullptr) return std::string();
      key.push_back('C');
      key.push_back(static_cast<char>(request.config));
      const auto append_terms =
          [&key, &request](const std::vector<vsm::InternedTerm>& terms) {
            util::PutVarint64(&key, terms.size());
            for (const vsm::InternedTerm& occurrence : terms) {
              const std::string& term = request.doc.Term(occurrence);
              key.push_back(static_cast<char>(occurrence.location));
              util::PutVarint64(&key, term.size());
              key.append(term);
            }
          };
      append_terms(request.doc.form_terms);
      append_terms(request.doc.page_terms);
      return key;
    }
    case QueryKind::kClassifyStored:
      // Ordinal-addressed: within one snapshot version the ordinal names
      // one page, and the version tag scopes the entry, so this is as
      // exact as the content keys above.
      key.push_back('P');
      key.push_back(static_cast<char>(request.config));
      util::PutVarint64(&key, request.page_ordinal);
      return key;
  }
  return std::string();
}

QueryResponse DirectoryServer::FromCache(const CachedAnswer& answer,
                                         bool stale) const {
  QueryResponse response;
  response.snapshot_version = answer.snapshot_version;
  response.corpus_epoch = answer.corpus_epoch;
  if (answer.is_search) {
    response.hits = answer.hits;
  } else {
    response.classification = answer.classification;
  }
  response.cache_hit = true;
  response.stale = stale;
  return response;
}

std::future<QueryResponse> DirectoryServer::Submit(QueryRequest request) {
  Pending pending;
  pending.request = std::move(request);
  pending.submitted = std::chrono::steady_clock::now();
  pending.deadline = DeadlineFor(pending.request, pending.submitted);
  if (cache_ != nullptr) pending.cache_key = CacheKey(pending.request);
  std::future<QueryResponse> future = pending.promise.get_future();
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    std::lock_guard<std::mutex> stats(stats_mutex_);
    ++stats_.submitted;
    if (stopping_) {
      ++stats_.rejected_stopped;
      pending.promise.set_value(
          Rejected(Status::Unavailable("server is shut down")));
      return future;
    }
    if (!pending.cache_key.empty()) {
      // Fresh-hit fast path: the entry must have been computed against
      // exactly the currently published snapshot, so the answer is
      // bit-identical to what a worker would produce — served inline,
      // never queued. A publish invalidates all older entries wholesale
      // because their version tags stop matching.
      CachedAnswer answer;
      if (cache_->Lookup(pending.cache_key, current_->version(), &answer)) {
        ++stats_.cache_hits;
        pending.promise.set_value(FromCache(answer, /*stale=*/false));
        return future;
      }
      ++stats_.cache_misses;
    }
    if (queue_.size() >= options_.queue_capacity) {
      // Overload. Degraded-but-useful beats kUnavailable when permitted:
      // a resident answer from a superseded snapshot, explicitly flagged
      // stale so the caller always knows it is not current.
      if (options_.degrade.enabled && options_.degrade.serve_stale &&
          !pending.cache_key.empty()) {
        CachedAnswer answer;
        if (cache_->LookupAny(pending.cache_key, &answer)) {
          ++stats_.stale_served;
          pending.promise.set_value(FromCache(answer, /*stale=*/true));
          return future;
        }
      }
      // Admission control: fail fast instead of blocking the caller. The
      // transient code tells retry policies this is back-pressure, not a
      // bad request.
      ++stats_.rejected_queue_full;
      pending.promise.set_value(Rejected(Status::Unavailable(
          "query queue at capacity (" +
          std::to_string(options_.queue_capacity) + ")")));
      return future;
    }
    if (options_.degrade.enabled &&
        pending.request.kind == QueryKind::kSearch &&
        pending.request.top_k > options_.degrade.truncated_top_k &&
        static_cast<double>(queue_.size()) >=
            options_.degrade.queue_high_water *
                static_cast<double>(options_.queue_capacity)) {
      // Above the high-water mark: admit, but serve a truncated ranking
      // (an exact prefix of the full one) and flag it degraded.
      pending.degrade_truncate = true;
      ++stats_.degraded_truncated;
    }
    ++stats_.accepted;
    const QueryPriority priority = pending.request.priority;
    const auto deadline = pending.deadline;
    queue_.Push(priority, deadline, std::move(pending));
    stats_.queue_peak = std::max<uint64_t>(stats_.queue_peak, queue_.size());
  }
  queue_cv_.notify_one();
  return future;
}

QueryResponse DirectoryServer::Query(QueryRequest request) {
  return Submit(std::move(request)).get();
}

QueryResponse DirectoryServer::Execute(const QueryRequest& request,
                                       const DirectorySnapshot& snap) const {
  QueryResponse response;
  response.snapshot_version = snap.version();
  response.corpus_epoch = snap.corpus_epoch();
  // Index-accelerated paths: score only the sections sharing a term with
  // the query (bit-identical to the full scan). The index was built once
  // at publish time; `response.cost` records how little of the directory
  // this query touched.
  switch (request.kind) {
    case QueryKind::kClassify:
      response.classification = snap.directory().ClassifyDocument(
          request.doc, request.config, snap.index(), &response.cost);
      break;
    case QueryKind::kSearch:
      response.hits = snap.directory().Search(request.query, request.top_k,
                                              snap.index(), &response.cost);
      break;
    case QueryKind::kClassifyStored: {
      const storage::MappedSnapshot* mapped = snap.mapped();
      if (mapped == nullptr) {
        response.status = Status::FailedPrecondition(
            "stored-page classification needs a snapshot-backed server");
        break;
      }
      // The profile comes off the mapped file through the budget-bounded
      // LRU; the shared_ptr keeps it alive past an eviction mid-request.
      Result<std::shared_ptr<const FormPage>> page =
          mapped->GetPage(request.page_ordinal);
      if (!page.ok()) {
        response.status = page.status();
        break;
      }
      response.classification = snap.directory().ClassifyPage(
          **page, request.config, snap.index(), &response.cost);
      break;
    }
  }
  if (options_.service_pad_ms > 0.0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(options_.service_pad_ms));
  }
  return response;
}

void DirectoryServer::WorkerLoop() {
  for (;;) {
    Pending pending;
    SnapshotPtr snap;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping, and fully drained
      queue_.Pop(&pending);
      // Pin the published snapshot in the same critical section as the
      // pop: the entire request runs against it even if a refresh
      // publishes mid-flight.
      snap = current_;
    }
    const auto dequeued = std::chrono::steady_clock::now();
    const double queue_ms = MsSince(pending.submitted, dequeued);
    QueryResponse response;
    double service_cpu_us = 0.0;
    bool executed = false;
    if (dequeued > pending.deadline) {
      // The budget burned while queued; executing now would hand the
      // caller an answer it already stopped waiting for.
      response = Rejected(Status::DeadlineExceeded(
          "request spent " + std::to_string(queue_ms) +
          " ms queued, budget " +
          std::to_string(pending.request.deadline_ms) + " ms"));
    } else {
      if (pending.degrade_truncate) {
        // Degraded admission: an exact prefix of the full ranking. The
        // truncated request must not populate the cache (its key still
        // names the caller's original top_k).
        pending.request.top_k =
            std::min(pending.request.top_k, options_.degrade.truncated_top_k);
        pending.cache_key.clear();
      }
      const double cpu_before = ThreadCpuUs();
      response = Execute(pending.request, *snap);
      service_cpu_us = ThreadCpuUs() - cpu_before;
      executed = true;
      response.degraded = pending.degrade_truncate;
    }
    const auto finished = std::chrono::steady_clock::now();
    response.queue_ms = queue_ms;
    response.service_ms = MsSince(dequeued, finished);
    if (executed && response.status.ok() && finished > pending.deadline) {
      // The deadline expired *during* service: the answer is complete,
      // but late — stamped so it is never mistaken for on-time.
      response.deadline_missed = true;
    }
    if (executed && response.status.ok() && !response.degraded &&
        cache_ != nullptr && !pending.cache_key.empty()) {
      CachedAnswer answer;
      answer.is_search = pending.request.kind == QueryKind::kSearch;
      answer.classification = response.classification;
      answer.hits = response.hits;
      answer.snapshot_version = response.snapshot_version;
      answer.corpus_epoch = response.corpus_epoch;
      cache_->Insert(pending.cache_key, std::move(answer));
    }
    {
      std::lock_guard<std::mutex> stats(stats_mutex_);
      if (response.status.ok()) {
        ++stats_.completed;
        if (response.deadline_missed) ++stats_.deadline_missed;
        stats_.distance_comps.Add(
            static_cast<double>(response.cost.centroids_scored));
      } else if (response.status.code() == StatusCode::kDeadlineExceeded) {
        ++stats_.deadline_exceeded;
      } else {
        ++stats_.failed;  // e.g. a bad stored-page ordinal
      }
      stats_.queue_us.Add(response.queue_ms * 1000.0);
      stats_.service_us.Add(response.service_ms * 1000.0);
      if (executed) stats_.service_cpu_us.Add(service_cpu_us);
      const double total_us =
          (response.queue_ms + response.service_ms) * 1000.0;
      stats_.total_us.Add(total_us);
      stats_.priority_total_us[static_cast<size_t>(pending.request.priority)]
          .Add(total_us);
    }
    // Unpin before answering, so a superseded snapshot is gone by the
    // time its last request's caller sees the response.
    snap.reset();
    pending.promise.set_value(std::move(response));
  }
}

Status DirectoryServer::ScheduleRefresh(std::vector<DatasetEntry> pages) {
  if (read_only_) {
    return Status::FailedPrecondition(
        "server is read-only: it serves an immutable mapped snapshot "
        "(rebuild the snapshot with `cafc compact` to update it)");
  }
  {
    std::lock_guard<std::mutex> lock(refresh_mutex_);
    if (refresh_stopping_) {
      return Status::Unavailable("server is shut down");
    }
    refresh_queue_.push_back(std::move(pages));
  }
  refresh_cv_.notify_one();
  return Status::OK();
}

void DirectoryServer::WaitForRefreshes() {
  std::unique_lock<std::mutex> lock(refresh_mutex_);
  refresh_idle_cv_.wait(
      lock, [this] { return refresh_queue_.empty() && !refresh_busy_; });
}

void DirectoryServer::RefreshLoop() {
  for (;;) {
    std::vector<DatasetEntry> batch;
    {
      std::unique_lock<std::mutex> lock(refresh_mutex_);
      refresh_cv_.wait(lock, [this] {
        return refresh_stopping_ || !refresh_queue_.empty();
      });
      if (refresh_queue_.empty()) return;  // stopping, and fully drained
      batch = std::move(refresh_queue_.front());
      refresh_queue_.pop_front();
      refresh_busy_ = true;
    }
    // Heavy lifting happens outside refresh_mutex_, so ScheduleRefresh
    // never blocks behind a running refresh.
    bool ok = true;
    Result<size_t> added = corpus_.AddPages(std::move(batch));
    if (!added.ok()) {
      ok = false;
    } else {
      Result<DirectoryRefreshReport> report =
          master_.Refresh(corpus_, options_.refresh);
      // On failure the master is untouched (Refresh's contract), so the
      // published snapshot simply stays at the previous epoch.
      ok = report.ok();
    }
    if (ok) {
      // Clone outside any lock (it is the refresh thread's private state),
      // then publish with one pointer swap. Readers that pinned the old
      // snapshot keep using it; new dequeues see the new epoch.
      ++publish_seq_;
      Publish(std::make_shared<const DirectorySnapshot>(
          master_.Clone(), publish_seq_, master_.epoch()));
    }
    {
      std::lock_guard<std::mutex> stats(stats_mutex_);
      if (ok) {
        ++stats_.refreshes;
        ++stats_.epochs_published;
      } else {
        ++stats_.refresh_failures;
      }
    }
    {
      std::lock_guard<std::mutex> lock(refresh_mutex_);
      refresh_busy_ = false;
    }
    refresh_idle_cv_.notify_all();
  }
}

ServerStats DirectoryServer::Stats() const {
  ServerStats out;
  {
    std::lock_guard<std::mutex> stats(stats_mutex_);
    out = stats_;
  }
  // Cache size gauges and evictions live inside the cache (they change on
  // worker inserts that never touch stats_mutex_); sampled here so one
  // Stats() call is a consistent point-in-time view.
  if (cache_ != nullptr) {
    const ResultCacheStats cache_stats = cache_->Stats();
    out.cache_evictions = cache_stats.evictions;
    out.cache_entries = cache_stats.entries;
    out.cache_bytes_used = cache_stats.bytes;
  }
  // Storage counters are sampled from the published snapshot's page store
  // after stats_mutex_ is released — snapshot() takes queue_mutex_, and
  // Submit orders queue_mutex_ before stats_mutex_.
  SnapshotPtr snap = snapshot();
  if (snap != nullptr && snap->mapped() != nullptr) {
    const storage::MappedSnapshot& mapped = *snap->mapped();
    const storage::PageStoreStats page_stats = mapped.page_store_stats();
    out.mapped_storage = true;
    out.page_hits = page_stats.hits;
    out.page_misses = page_stats.misses;
    out.page_evictions = page_stats.evictions;
    out.page_cached = page_stats.cached_pages;
    out.storage_fixed_bytes = mapped.fixed_resident_bytes();
    out.storage_resident_bytes = mapped.resident_bytes();
    out.memory_budget_bytes = mapped.memory_budget_bytes();
  }
  return out;
}

void DirectoryServer::Shutdown() {
  std::lock_guard<std::mutex> shutdown(shutdown_mutex_);
  if (shutdown_done_) return;
  shutdown_done_ = true;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    stopping_ = true;
  }
  {
    std::lock_guard<std::mutex> lock(refresh_mutex_);
    refresh_stopping_ = true;
  }
  // Wake everything: workers drain the query queue, the refresh thread
  // drains its batch queue, then both exit.
  queue_cv_.notify_all();
  refresh_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  if (refresh_thread_.joinable()) refresh_thread_.join();
}

}  // namespace cafc::serve
