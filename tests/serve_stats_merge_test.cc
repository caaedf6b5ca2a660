// Tests of the one ServerStats schema: ServerStats::Merge (the router's
// fleet aggregation) and the Stats RPC wire codec, both generated from
// the CAFC_IPC_SERVER_STATS table. The table-driven tests expand that same
// table, so a row whose kind has no fill, merge or wire rule fails to
// compile here.

#include "serve/server.h"

#include <algorithm>
#include <string>

#include <gtest/gtest.h>

#include "ipc/server_stats.h"
#include "util/histogram.h"
#include "util/varint.h"

namespace cafc::serve {
namespace {

using ipc::stats_kind::Histograms;

// ---- Table-driven helpers, one overload per member type -----------------

/// Gives the field a value no other field of the same fill shares: `next`
/// counts fields, `seed` separates two fills.
void Fill(uint64_t* value, uint64_t seed, uint64_t* next) {
  *value = seed * 1000 + ++*next;
}
void Fill(bool* flag, uint64_t /*seed*/, uint64_t* next) {
  ++*next;
  *flag = true;
}
void Fill(util::Histogram* histogram, uint64_t seed, uint64_t* next) {
  const uint64_t field = ++*next;
  for (uint64_t i = 0; i <= field % 5; ++i) {
    histogram->Add(static_cast<double>(seed * 7919 + field * 37 + i * 13) +
                   0.25);
  }
}
void Fill(Histograms* histograms, uint64_t seed, uint64_t* next) {
  for (util::Histogram& histogram : *histograms) {
    Fill(&histogram, seed, next);
  }
}

/// Every field distinct and non-zero.
ServerStats DistinctStats(uint64_t seed) {
  ServerStats stats;
  uint64_t next = 0;
#define CAFC_TEST_FILL(Kind, name) Fill(&stats.name, seed, &next);
  CAFC_IPC_SERVER_STATS(CAFC_TEST_FILL)
#undef CAFC_TEST_FILL
  return stats;
}

std::string Encoded(const util::Histogram& histogram) {
  std::string bytes;
  histogram.EncodeTo(&bytes);
  return bytes;
}

void ExpectNonZero(const char* name, uint64_t value) {
  EXPECT_NE(value, 0u) << name;
}
void ExpectNonZero(const char* name, bool flag) { EXPECT_TRUE(flag) << name; }
void ExpectNonZero(const char* name, const util::Histogram& histogram) {
  EXPECT_GT(histogram.count(), 0u) << name;
}
void ExpectNonZero(const char* name, const Histograms& histograms) {
  for (const util::Histogram& histogram : histograms) {
    ExpectNonZero(name, histogram);
  }
}

void ExpectSame(const char* name, uint64_t got, uint64_t want) {
  EXPECT_EQ(got, want) << name;
}
void ExpectSame(const char* name, bool got, bool want) {
  EXPECT_EQ(got, want) << name;
}
void ExpectSame(const char* name, const util::Histogram& got,
                const util::Histogram& want) {
  EXPECT_EQ(got.count(), want.count()) << name;
  EXPECT_EQ(got.sum(), want.sum()) << name;  // bit-exact
  EXPECT_EQ(got.min(), want.min()) << name;
  EXPECT_EQ(got.max(), want.max()) << name;
  EXPECT_EQ(Encoded(got), Encoded(want)) << name;  // every bucket
}
void ExpectSame(const char* name, const Histograms& got,
                const Histograms& want) {
  for (size_t band = 0; band < got.size(); ++band) {
    ExpectSame(name, got[band], want[band]);
  }
}

/// Every field of `got` equals the same field of `want`.
void ExpectAllFieldsSame(const ServerStats& got, const ServerStats& want) {
#define CAFC_TEST_SAME(Kind, name) ExpectSame(#name, got.name, want.name);
  CAFC_IPC_SERVER_STATS(CAFC_TEST_SAME)
#undef CAFC_TEST_SAME
}

// The expected merge of one field, by row kind — restated here from the
// schema's contract, independently of the library's merge rules.
void ExpectMergedCounter(const char* name, uint64_t merged, uint64_t a,
                         uint64_t b) {
  EXPECT_EQ(merged, a + b) << name;
}
void ExpectMergedPeak(const char* name, uint64_t merged, uint64_t a,
                      uint64_t b) {
  EXPECT_EQ(merged, std::max(a, b)) << name;
}
void ExpectMergedFlag(const char* name, bool merged, bool a, bool b) {
  EXPECT_EQ(merged, a || b) << name;
}
void ExpectMergedGauge(const char* name, uint64_t merged, uint64_t a,
                       uint64_t b) {
  EXPECT_EQ(merged, a + b) << name;
}
void ExpectMergedHistogram(const char* name, const util::Histogram& merged,
                           const util::Histogram& a,
                           const util::Histogram& b) {
  EXPECT_EQ(merged.count(), a.count() + b.count()) << name;
  EXPECT_EQ(merged.sum(), a.sum() + b.sum()) << name;
  EXPECT_EQ(merged.min(), std::min(a.min(), b.min())) << name;
  EXPECT_EQ(merged.max(), std::max(a.max(), b.max())) << name;
  util::Histogram element_wise = a;
  element_wise.Merge(b);
  EXPECT_EQ(Encoded(merged), Encoded(element_wise)) << name;
}
void ExpectMergedHistograms(const char* name, const Histograms& merged,
                            const Histograms& a, const Histograms& b) {
  for (size_t band = 0; band < merged.size(); ++band) {
    ExpectMergedHistogram(name, merged[band], a[band], b[band]);
  }
}

void ExpectMergeOf(const ServerStats& merged, const ServerStats& a,
                   const ServerStats& b) {
#define CAFC_TEST_MERGED(Kind, name) \
  ExpectMerged##Kind(#name, merged.name, a.name, b.name);
  CAFC_IPC_SERVER_STATS(CAFC_TEST_MERGED)
#undef CAFC_TEST_MERGED
}

std::string Encoded(const ServerStats& stats) {
  std::string bytes;
  stats.EncodeTo(&bytes);
  return bytes;
}

// ---- Merge ---------------------------------------------------------------

TEST(ServerStatsMergeTest, CountersAddPeaksMaxStorageGaugesAdd) {
  // Every row, by its kind: counters and gauges (storage included) add,
  // the peak takes the max, the flag ORs, histograms merge element-wise.
  const ServerStats a = DistinctStats(4);
  ServerStats b = DistinctStats(9);
  b.mapped_storage = false;
  ServerStats merged = a;
  merged.Merge(b);
  ExpectMergeOf(merged, a, b);
  // Spot-check the arithmetic of each kind on known values.
  EXPECT_EQ(merged.submitted, a.submitted + b.submitted);
  EXPECT_EQ(merged.queue_peak, b.queue_peak);  // b's fill is the larger
  EXPECT_TRUE(merged.mapped_storage);
  EXPECT_EQ(merged.storage_resident_bytes,
            a.storage_resident_bytes + b.storage_resident_bytes);
}

TEST(ServerStatsMergeTest, SchedulingAndCacheCountersAdd) {
  ServerStats a = DistinctStats(4);
  const ServerStats b = DistinctStats(9);
  const ServerStats before = a;
  a.Merge(b);
  EXPECT_EQ(a.deadline_missed, before.deadline_missed + b.deadline_missed);
  EXPECT_EQ(a.cache_hits, before.cache_hits + b.cache_hits);
  EXPECT_EQ(a.cache_misses, before.cache_misses + b.cache_misses);
  EXPECT_EQ(a.cache_evictions, before.cache_evictions + b.cache_evictions);
  // Cache gauges add like the storage gauges: the merged view answers
  // "what is the fleet holding now".
  EXPECT_EQ(a.cache_entries, before.cache_entries + b.cache_entries);
  EXPECT_EQ(a.cache_bytes_used,
            before.cache_bytes_used + b.cache_bytes_used);
  EXPECT_EQ(a.stale_served, before.stale_served + b.stale_served);
  EXPECT_EQ(a.degraded_truncated,
            before.degraded_truncated + b.degraded_truncated);
}

TEST(ServerStatsMergeTest, PeakTakesTheMaxInEitherOrder) {
  ServerStats low;
  low.queue_peak = 3;
  ServerStats high;
  high.queue_peak = 12;
  ServerStats a = low;
  a.Merge(high);
  EXPECT_EQ(a.queue_peak, 12u);
  ServerStats b = high;
  b.Merge(low);
  EXPECT_EQ(b.queue_peak, 12u);  // peaks of independent queues never add
}

TEST(ServerStatsMergeTest, FlagOrs) {
  for (bool left : {false, true}) {
    for (bool right : {false, true}) {
      ServerStats a;
      a.mapped_storage = left;
      ServerStats b;
      b.mapped_storage = right;
      a.Merge(b);
      EXPECT_EQ(a.mapped_storage, left || right)
          << "left=" << left << " right=" << right;
    }
  }
}

TEST(ServerStatsMergeTest, PriorityHistogramsMergePerBand) {
  ServerStats a = DistinctStats(4);
  const ServerStats b = DistinctStats(9);
  const ServerStats before = a;
  a.Merge(b);
  ASSERT_EQ(a.priority_total_us.size(), kNumQueryPriorities);
  for (size_t band = 0; band < kNumQueryPriorities; ++band) {
    EXPECT_EQ(a.priority_total_us[band].count(),
              before.priority_total_us[band].count() +
                  b.priority_total_us[band].count())
        << "band=" << band;
    EXPECT_EQ(a.priority_total_us[band].sum(),
              before.priority_total_us[band].sum() +
                  b.priority_total_us[band].sum())
        << "band=" << band;
  }
}

TEST(ServerStatsMergeTest, HistogramMergeWithEmptySideIsIdentity) {
  // Both directions: empty.Merge(full) == full, full.Merge(empty) == full.
  util::Histogram full;
  for (int i = 0; i < 32; ++i) full.Add(static_cast<double>(i * 13 + 1));
  util::Histogram onto_empty;
  onto_empty.Merge(full);
  EXPECT_EQ(onto_empty.count(), full.count());
  EXPECT_EQ(onto_empty.sum(), full.sum());
  EXPECT_EQ(onto_empty.min(), full.min());
  EXPECT_EQ(onto_empty.max(), full.max());
  util::Histogram from_empty = full;
  from_empty.Merge(util::Histogram{});
  EXPECT_EQ(from_empty.count(), full.count());
  EXPECT_EQ(from_empty.sum(), full.sum());
  EXPECT_EQ(from_empty.min(), full.min());
  EXPECT_EQ(from_empty.max(), full.max());
}

TEST(ServerStatsMergeTest, HistogramMergeAcrossDisjointBucketRanges) {
  // The two inputs populate entirely different buckets of the compiled-in
  // layout; the merge must keep both populations intact rather than
  // collapsing onto either range.
  util::Histogram low;
  for (int i = 0; i < 16; ++i) low.Add(1.0 + i * 0.25);  // ~1-5 us
  util::Histogram high;
  for (int i = 0; i < 16; ++i) {
    high.Add(1e6 + i * 1e5);  // ~1-2.5 s, far buckets
  }
  const uint64_t low_count = low.count();
  const double low_sum = low.sum();
  low.Merge(high);
  EXPECT_EQ(low.count(), low_count + high.count());
  EXPECT_EQ(low.sum(), low_sum + high.sum());
  EXPECT_EQ(low.min(), 1.0);
  EXPECT_EQ(low.max(), high.max());
  // The median stays in the low range and p99 lands in the high range:
  // both bucket populations survived the merge.
  EXPECT_LT(low.Percentile(40), 100.0);
  EXPECT_GT(low.Percentile(99), 1e5);
}

TEST(ServerStatsMergeTest, MergeWithEmptyIsIdentity) {
  ServerStats a = DistinctStats(6);
  const ServerStats before = a;
  a.Merge(ServerStats{});
  ExpectAllFieldsSame(a, before);
}

TEST(ServerStatsMergeTest, MergeIsCommutativeOnCountersAndHistograms) {
  ServerStats ab = DistinctStats(3);
  ab.Merge(DistinctStats(11));
  ServerStats ba = DistinctStats(11);
  ba.Merge(DistinctStats(3));
  ExpectAllFieldsSame(ab, ba);
}

// ---- Wire ----------------------------------------------------------------

TEST(ServerStatsWireTest, EveryFieldRoundTripsBitExactly) {
  // Every row set to a distinct non-zero value by expanding the table,
  // then compared field by field after a wire round trip — storage
  // gauges and the mapped_storage flag included.
  const ServerStats stats = DistinctStats(7);
#define CAFC_TEST_NON_ZERO(Kind, name) ExpectNonZero(#name, stats.name);
  CAFC_IPC_SERVER_STATS(CAFC_TEST_NON_ZERO)
#undef CAFC_TEST_NON_ZERO
  const std::string bytes = Encoded(stats);
  util::ByteReader reader(bytes);
  ServerStats decoded;
  ASSERT_TRUE(decoded.DecodeFrom(&reader).ok());
  EXPECT_EQ(reader.remaining(), 0u);
  ExpectAllFieldsSame(decoded, stats);
}

TEST(ServerStatsWireTest, StatsResponseWireRoundTripIsExact) {
  // Encode -> decode -> encode reproduces the bytes, and derived
  // statistics (percentiles) survive unchanged.
  const ServerStats stats = DistinctStats(13);
  const std::string bytes = Encoded(stats);
  util::ByteReader reader(bytes);
  ServerStats decoded;
  ASSERT_TRUE(decoded.DecodeFrom(&reader).ok());
  EXPECT_EQ(Encoded(decoded), bytes);
  EXPECT_EQ(decoded.service_us.Percentile(95),
            stats.service_us.Percentile(95));
}

TEST(ServerStatsWireTest, TruncatedStatsBytesFailCleanly) {
  const std::string bytes = Encoded(DistinctStats(5));
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    util::ByteReader reader(std::string_view(bytes).substr(0, cut));
    ServerStats decoded;
    EXPECT_FALSE(decoded.DecodeFrom(&reader).ok()) << "cut=" << cut;
  }
}

TEST(ServerStatsWireTest, FlagOutsideZeroOrOneIsRejected) {
  ServerStats on;
  on.mapped_storage = true;
  std::string bytes = Encoded(on);
  const std::string off = Encoded(ServerStats{});
  // The two encodings differ only in the flag's one-byte varint.
  ASSERT_EQ(bytes.size(), off.size());
  const size_t flag = static_cast<size_t>(
      std::mismatch(bytes.begin(), bytes.end(), off.begin()).first -
      bytes.begin());
  ASSERT_LT(flag, bytes.size());
  bytes[flag] = 2;
  util::ByteReader reader(bytes);
  ServerStats decoded;
  EXPECT_FALSE(decoded.DecodeFrom(&reader).ok());
}

}  // namespace
}  // namespace cafc::serve
