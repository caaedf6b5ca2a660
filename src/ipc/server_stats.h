#ifndef CAFC_IPC_SERVER_STATS_H_
#define CAFC_IPC_SERVER_STATS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "util/histogram.h"
#include "util/status.h"
#include "util/varint.h"

/// \brief The serving counters, declared once.
///
/// Every field of ServerStats is one row of this X-macro:
///
///   X(Kind, name)
///
/// The kind fixes both the member's type and how two servers' values
/// combine in Merge:
///
///   Counter     uint64_t            adds
///   Peak        uint64_t            takes the max
///   Flag        bool                ORs
///   Gauge       uint64_t            adds (a fleet view: "what is held now")
///   Histogram   util::Histogram     merges element-wise
///   Histograms  array of Histogram  merges element-wise, per scheduling band
///
/// The table is the single source of truth: it expands into the struct's
/// members, Merge, and the Stats RPC wire codec (fields travel in table
/// order). Adding a counter means adding a row; a kind with no merge or
/// wire rule fails to compile. The row order is the wire order — append
/// rows, never reorder.
#define CAFC_IPC_SERVER_STATS(X)                                            \
  X(Counter, submitted)           /* every Submit call */                   \
  X(Counter, accepted)            /* admitted to the queue */               \
  X(Counter, rejected_queue_full) /* kUnavailable: queue at capacity */     \
  X(Counter, rejected_stopped)    /* kUnavailable: after Shutdown */        \
  X(Counter, deadline_exceeded)   /* kDeadlineExceeded at dequeue */        \
  X(Counter, failed)              /* executed but answered non-OK */        \
  X(Counter, completed)           /* served OK by a worker */               \
  /* Deadlines that expired *during* service: the response was still */    \
  /* delivered, stamped deadline_missed (completed counts it too). */       \
  X(Counter, deadline_missed)                                               \
  /* Result-cache accounting. Hits are answered at Submit without */       \
  /* queueing, so they are counted here and not in accepted/completed: */  \
  /* submitted == accepted + rejections + cache_hits + stale_served. */     \
  X(Counter, cache_hits)                                                    \
  X(Counter, cache_misses)     /* lookups that fell through to a worker */  \
  X(Counter, cache_evictions)  /* entries dropped to hold cache_bytes */    \
  X(Gauge, cache_entries)      /* entries resident now */                   \
  X(Gauge, cache_bytes_used)   /* estimated resident bytes now */           \
  /* Degradation accounting: overload answers served from an older */      \
  /* snapshot's cache entry (response.stale) and Search admissions */       \
  /* truncated above the high-water mark (response.degraded). */            \
  X(Counter, stale_served)                                                  \
  X(Counter, degraded_truncated)                                            \
  X(Counter, refreshes)           /* hot refreshes applied */               \
  X(Counter, refresh_failures)    /* refreshes rejected by the library */   \
  X(Counter, epochs_published)    /* snapshot swaps (excludes initial) */   \
  X(Peak, queue_peak)             /* high-water mark of the queue depth */  \
  /* Microseconds; cover only requests that reached a worker. */           \
  X(Histogram, queue_us)                                                    \
  X(Histogram, service_us)                                                  \
  /* Thread CPU microseconds actually burned executing each served */      \
  /* request (CLOCK_THREAD_CPUTIME_ID around Execute — excludes queueing */ \
  /* and the artificial service pad). sum() over one shard is the */        \
  /* shard's total scoring work: the capacity measure the sharding bench */ \
  /* gates on, immune to wall-clock noise from co-scheduled workers. */     \
  X(Histogram, service_cpu_us)                                              \
  X(Histogram, total_us)                                                    \
  /* Submit -> response-ready microseconds, split by scheduling class */   \
  /* (indexed by serve::QueryPriority; worker-served requests only). */     \
  X(Histograms, priority_total_us)                                          \
  /* Distance computations (exact centroid similarity evaluations) per */  \
  /* served query — the count the inverted centroid index keeps */          \
  /* sublinear in the number of sections, surfaced in `cafc serve`. */      \
  X(Histogram, distance_comps)                                              \
  /* Storage layer of snapshot-backed servers (all zero in RAM). */         \
  /* Sampled from the published snapshot's page store at Stats() time, */  \
  /* so they reflect the moment of the call. */                             \
  X(Flag, mapped_storage)          /* serving a v3 snapshot */              \
  X(Counter, page_hits)            /* stored-page LRU hits */               \
  X(Counter, page_misses)          /* stored-page decodes from the map */   \
  X(Counter, page_evictions)       /* pages evicted to hold the budget */   \
  X(Gauge, page_cached)            /* pages resident in the LRU now */      \
  X(Gauge, storage_fixed_bytes)    /* dictionary+stats+index+labels */      \
  X(Gauge, storage_resident_bytes) /* fixed + cached pages, now */          \
  X(Gauge, memory_budget_bytes)    /* configured cap (0 = unlimited) */

namespace cafc::ipc {

/// Width of the per-band histogram array. The serving layer
/// static_asserts this against serve::kNumQueryPriorities (ipc sits below
/// serve and does not include its headers).
inline constexpr size_t kStatsPriorityBands = 3;

/// Member type of each row kind of CAFC_IPC_SERVER_STATS.
namespace stats_kind {
using Counter = uint64_t;
using Peak = uint64_t;
using Flag = bool;
using Gauge = uint64_t;
using Histogram = util::Histogram;
using Histograms = std::array<util::Histogram, kStatsPriorityBands>;
}  // namespace stats_kind

/// \brief Monotonic counters, gauges and latency histograms of one
/// server's lifetime — and the payload of the Stats RPC, so a shard's
/// stats reach the router bit-exactly (histogram doubles travel as
/// IEEE-754 bit patterns). The serving layer names this type
/// `serve::ServerStats`; the fields are the rows of CAFC_IPC_SERVER_STATS.
struct ServerStats {
#define CAFC_IPC_STATS_MEMBER(Kind, name) stats_kind::Kind name{};
  CAFC_IPC_SERVER_STATS(CAFC_IPC_STATS_MEMBER)
#undef CAFC_IPC_STATS_MEMBER

  /// \brief Folds another server's stats into this one — the aggregation
  /// the scatter-gather router reports across its shards.
  ///
  /// Each field combines by its kind: counters and gauges add, the peak
  /// takes the max (peaks do not add across independent queues), the
  /// flag ORs, histograms merge element-wise (same compiled-in bucket
  /// layout). The merged gauges answer "what is the fleet holding now",
  /// not "what is one process holding".
  void Merge(const ServerStats& other);

  void EncodeTo(std::string* out) const;
  Status DecodeFrom(util::ByteReader* reader);
};

}  // namespace cafc::ipc

#endif  // CAFC_IPC_SERVER_STATS_H_
