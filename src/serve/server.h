#ifndef CAFC_SERVE_SERVER_H_
#define CAFC_SERVE_SERVER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/corpus.h"
#include "core/dataset.h"
#include "core/directory.h"
#include "core/form_page.h"
#include "ipc/server_stats.h"
#include "serve/result_cache.h"
#include "serve/scheduler.h"
#include "serve/snapshot.h"
#include "util/status.h"

namespace cafc::serve {

/// What a request asks of the directory.
enum class QueryKind {
  kClassify,  ///< file a raw form-page document into its best section
  kSearch,    ///< keyword search over the section centroids
  /// Classify a page already stored in the backing v3 snapshot, addressed
  /// by ordinal. Snapshot-backed servers only: the page profile is decoded
  /// on demand from the mapped file through the budget-bounded LRU, so the
  /// request costs no resident memory beyond the hot set.
  kClassifyStored,
};

/// One unit of work for the serving layer. Classify requests carry `doc`
/// (+ `config`); Search requests carry `query` (+ `top_k`); ClassifyStored
/// requests carry `page_ordinal` (+ `config`).
struct QueryRequest {
  QueryKind kind = QueryKind::kClassify;
  forms::FormPageDocument doc;
  ContentConfig config = ContentConfig::kFcPlusPc;
  std::string query;
  size_t top_k = 5;
  /// Ordinal of the stored page (kClassifyStored only), in the snapshot's
  /// page-section order.
  size_t page_ordinal = 0;
  /// Latency budget measured from Submit. A request still queued when the
  /// budget expires is answered kDeadlineExceeded instead of executed
  /// (checked at dequeue — admission is cheaper than cancellation). 0
  /// disables the deadline.
  double deadline_ms = 0.0;
  /// Scheduling class. Ignored under SchedulingPolicy::kFifo; under
  /// kPriorityDeadline a higher band is always drained first, and within
  /// a band the earliest deadline wins.
  QueryPriority priority = QueryPriority::kStandard;
};

/// The answer to one QueryRequest. Exactly one of
/// `classification` / `hits` is meaningful, per `kind`.
struct QueryResponse {
  /// OK, or why the request was not served: kUnavailable (queue full or
  /// server stopped — retryable elsewhere/later), kDeadlineExceeded
  /// (budget burned in the queue).
  Status status;
  /// Snapshot publish sequence this response was computed against. All
  /// fields of one response come from this single snapshot.
  uint64_t snapshot_version = 0;
  /// Corpus epoch of that snapshot.
  uint64_t corpus_epoch = 0;
  DatabaseDirectory::Classification classification;
  std::vector<DatabaseDirectory::SearchHit> hits;
  double queue_ms = 0.0;    ///< Submit -> dequeue
  double service_ms = 0.0;  ///< dequeue -> response ready
  /// How much of the snapshot's directory this query actually touched
  /// (centroid-index pruning effectiveness; see ServerStats).
  DirectoryQueryCost cost;
  /// Answered out of the result cache (fresh or stale) — no directory
  /// work happened and the request never queued.
  bool cache_hit = false;
  /// Degradation marker: this answer was computed against a snapshot
  /// older than the one published when it was served (an overload-path
  /// cache answer). Never set on the normal path — the "zero
  /// stale-unflagged responses" invariant the workload bench gates.
  bool stale = false;
  /// Degradation marker: a Search admitted above the overload high-water
  /// mark and served with top_k truncated to DegradePolicy::
  /// truncated_top_k. The hits are an exact prefix of the full ranking.
  bool degraded = false;
  /// The deadline expired *during* service: the answer is complete and
  /// correct, but late. Stamped so a late answer is never silently
  /// on-time (callers that already gave up can discard it).
  bool deadline_missed = false;
};

/// Serving-layer knobs.
struct DirectoryServerOptions {
  size_t workers = 4;          ///< query worker threads (min 1)
  size_t queue_capacity = 256; ///< admission bound; full queue => reject
  /// Artificial per-request service time (sleep inside the worker),
  /// emulating the downstream I/O a production deployment would do per
  /// query (fetching the candidate page, RPC hops). Lets load benchmarks
  /// exercise worker-scaling and admission control independently of how
  /// fast the in-memory directory math happens to be. 0 in production use.
  double service_pad_ms = 0.0;
  /// Passed through to DatabaseDirectory::Refresh on every hot refresh.
  DirectoryRefreshOptions refresh;
  /// Backlog ordering (kFifo reproduces the pre-workload-engine server).
  SchedulingPolicy scheduling = SchedulingPolicy::kFifo;
  /// Result-cache byte budget; 0 disables the cache entirely. Cached
  /// answers are keyed by the request's exact content and the snapshot
  /// version, so a hit is bit-identical to recomputing and a snapshot
  /// swap invalidates wholesale.
  size_t cache_bytes = 0;
  /// Overload behavior: truncated top-k admissions and flagged stale
  /// cache answers instead of pure kUnavailable shedding.
  DegradePolicy degrade;
};

/// Lifetime counters, gauges and latency histograms of one server — the
/// one stats schema (`ipc/server_stats.h`), shared with the Stats RPC so a
/// shard's stats cross the wire without a translation layer.
using ServerStats = ipc::ServerStats;
static_assert(ipc::kStatsPriorityBands == kNumQueryPriorities,
              "ServerStats::priority_total_us needs one histogram per "
              "QueryPriority band");

/// \brief Concurrent query engine over an epoch-snapshot directory: a
/// bounded MPMC request queue drained by a worker pool, with hot refresh.
///
/// Ownership: the server owns the *refresh master* directory and the
/// epoch-versioned corpus it grows from. Queries never touch the master —
/// they run against the current immutable DirectorySnapshot. The single
/// background refresh thread absorbs scheduled page batches
/// (Corpus::AddPages), re-fits the master (DatabaseDirectory::Refresh),
/// clones it into a fresh snapshot, and swaps the published SnapshotPtr
/// under the queue lock. A worker copies that SnapshotPtr in the same
/// critical section where it dequeues, so each response observes exactly
/// one epoch and a swap can never pull a snapshot out from under an
/// in-flight request. A superseded snapshot is freed when its last
/// in-flight request finishes: a server holds at most one snapshot per
/// busy worker plus the published one, however many refreshes it applies.
///
/// Admission control: Submit on a full queue fails fast with kUnavailable
/// (backpressure — the caller sheds load or retries elsewhere) instead of
/// blocking; a request whose deadline expired while queued is answered
/// kDeadlineExceeded at dequeue. Both reuse the crawl layer's transient
/// status taxonomy, so retry policies compose.
///
/// Thread-safe: Submit/Query/ScheduleRefresh/snapshot/Stats may be called
/// from any thread. Shutdown is idempotent; the destructor calls it.
class DirectoryServer {
 public:
  /// Takes ownership of the serving directory and its corpus. The initial
  /// snapshot (version 1) is a clone of `directory`, published before the
  /// constructor returns, so queries can be submitted immediately.
  DirectoryServer(DatabaseDirectory directory, Corpus corpus,
                  DirectoryServerOptions options = {});

  /// \brief Read-only server over an mmapped binary v3 snapshot.
  ///
  /// The initial (and only) snapshot wraps `snapshot` directly — nothing
  /// is cloned or re-indexed; the centroid index was streamed out of the
  /// mapped file at Open, and per-page profiles stay on disk behind the
  /// budget-bounded LRU. ScheduleRefresh fails with kFailedPrecondition
  /// (the backing file is immutable); everything else behaves as in the
  /// in-RAM mode, including kClassifyStored requests addressed by page
  /// ordinal. Memory budgeting is configured at MappedSnapshot::Open via
  /// SnapshotOpenOptions::memory_budget_bytes.
  explicit DirectoryServer(
      std::shared_ptr<const storage::MappedSnapshot> snapshot,
      DirectoryServerOptions options = {});

  /// Shuts down (drains the queues, joins all threads).
  ~DirectoryServer();

  DirectoryServer(const DirectoryServer&) = delete;
  DirectoryServer& operator=(const DirectoryServer&) = delete;

  /// Non-blocking admission: enqueues the request and returns a future
  /// that yields the response. On rejection (queue full / server stopped)
  /// the future is already satisfied with a kUnavailable response — Submit
  /// itself never blocks on capacity.
  std::future<QueryResponse> Submit(QueryRequest request);

  /// Blocking convenience wrapper: Submit + wait.
  QueryResponse Query(QueryRequest request);

  /// Queues a page batch for the refresh thread: AddPages + Refresh +
  /// snapshot swap, asynchronously. Returns kUnavailable after Shutdown,
  /// kFailedPrecondition on a read-only snapshot-backed server.
  /// Refresh failures (e.g. a vocabulary precondition) are counted in
  /// Stats and leave the published snapshot untouched.
  Status ScheduleRefresh(std::vector<DatasetEntry> pages);

  /// Blocks until every refresh scheduled so far has been applied (or
  /// counted as failed) and its snapshot published.
  void WaitForRefreshes();

  /// The currently published snapshot. Callers may hold it as long as
  /// they like; it stays valid (and immutable) after any number of swaps.
  SnapshotPtr snapshot() const;

  /// A consistent copy of the lifetime counters and latency histograms.
  ServerStats Stats() const;

  /// Stops admission, drains both queues (pending queries are answered,
  /// pending refreshes applied), joins all threads. Safe to call twice;
  /// Submit/ScheduleRefresh after Shutdown fail with kUnavailable.
  void Shutdown();

 private:
  struct Pending {
    QueryRequest request;
    std::promise<QueryResponse> promise;
    std::chrono::steady_clock::time_point submitted;
    /// Absolute deadline (max() = none); precomputed at Submit so the
    /// scheduler and the dequeue/service checks agree on one instant.
    std::chrono::steady_clock::time_point deadline;
    /// Canonical cache key (empty when the cache is off or the request
    /// kind is uncacheable), computed once at Submit.
    std::string cache_key;
    /// Admitted above the overload high-water mark: serve with top_k
    /// truncated to DegradePolicy::truncated_top_k and flag degraded.
    bool degrade_truncate = false;
  };

  void WorkerLoop();
  void RefreshLoop();
  /// Canonical content key for the result cache: a byte-exact encoding of
  /// everything Execute reads from the request (never a lossy hash, so
  /// equal keys imply identical answers). Empty for uncacheable kinds.
  static std::string CacheKey(const QueryRequest& request);
  /// Builds the response for a cache answer found at Submit time.
  QueryResponse FromCache(const CachedAnswer& answer, bool stale) const;
  /// Executes one admitted request against a pinned snapshot.
  QueryResponse Execute(const QueryRequest& request,
                        const DirectorySnapshot& snap) const;
  /// Makes `next` the published snapshot (a pointer swap under
  /// queue_mutex_). Ctor + refresh thread only.
  void Publish(SnapshotPtr next);

  DirectoryServerOptions options_;

  // Refresh master state: owned by the refresh thread after construction.
  // Empty (and the refresh thread never started) in read-only mapped mode.
  DatabaseDirectory master_;
  Corpus corpus_;
  bool read_only_ = false;  // set in the mapped ctor, immutable after

  uint64_t publish_seq_ = 1;  // refresh thread only (after construction)

  mutable std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  RequestScheduler<Pending> queue_;  // guarded by queue_mutex_
  /// The published snapshot. Submit's cache check and the worker's
  /// dequeue read it under the same lock they already hold.
  SnapshotPtr current_;              // guarded by queue_mutex_
  bool stopping_ = false;            // guarded by queue_mutex_

  /// Epoch-keyed result cache (null when options_.cache_bytes == 0).
  /// Thread-safe on its own mutex; Submit consults it under queue_mutex_
  /// (queue -> cache lock order), workers insert without queue_mutex_.
  std::unique_ptr<ResultCache> cache_;

  std::mutex refresh_mutex_;
  std::condition_variable refresh_cv_;
  std::condition_variable refresh_idle_cv_;
  std::deque<std::vector<DatasetEntry>> refresh_queue_;
  bool refresh_busy_ = false;      // guarded by refresh_mutex_
  bool refresh_stopping_ = false;  // guarded by refresh_mutex_

  mutable std::mutex stats_mutex_;
  ServerStats stats_;

  std::vector<std::thread> workers_;
  std::thread refresh_thread_;
  std::mutex shutdown_mutex_;
  bool shutdown_done_ = false;  // guarded by shutdown_mutex_
};

}  // namespace cafc::serve

#endif  // CAFC_SERVE_SERVER_H_
