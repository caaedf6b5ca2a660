// Tests of the policy-ordered backlog behind the DirectoryServer's queue:
// FIFO arrival order, strict priority bands, earliest-deadline-first
// within a band, and admission-sequence tie-breaking. The scheduler is
// deliberately lock-free of the server so these rules are testable
// without threads; one live-server test checks the same order end to end.

#include "serve/scheduler.h"

#include <algorithm>
#include <chrono>
#include <future>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "serve/server.h"
#include "fixtures.h"

namespace cafc::serve {
namespace {

using TimePoint = RequestScheduler<int>::TimePoint;

TimePoint At(int ms) {
  return TimePoint{} + std::chrono::milliseconds(ms);
}

constexpr TimePoint kNoDeadline = TimePoint::max();

std::vector<int> Drain(RequestScheduler<int>* scheduler) {
  std::vector<int> order;
  int item = 0;
  while (scheduler->Pop(&item)) order.push_back(item);
  return order;
}

TEST(RequestSchedulerTest, FifoPreservesArrivalOrderAcrossPriorities) {
  RequestScheduler<int> fifo(SchedulingPolicy::kFifo);
  fifo.Push(QueryPriority::kBatch, At(1), 0);
  fifo.Push(QueryPriority::kInteractive, At(999), 1);
  fifo.Push(QueryPriority::kStandard, kNoDeadline, 2);
  fifo.Push(QueryPriority::kInteractive, At(5), 3);
  EXPECT_EQ(Drain(&fifo), (std::vector<int>{0, 1, 2, 3}));
}

TEST(RequestSchedulerTest, HigherBandAlwaysDrainsFirst) {
  RequestScheduler<int> sched(SchedulingPolicy::kPriorityDeadline);
  // Admit in worst order: batch first with the tightest deadlines.
  sched.Push(QueryPriority::kBatch, At(1), 0);
  sched.Push(QueryPriority::kBatch, At(2), 1);
  sched.Push(QueryPriority::kStandard, At(500), 2);
  sched.Push(QueryPriority::kInteractive, kNoDeadline, 3);
  sched.Push(QueryPriority::kInteractive, At(900), 4);
  // Interactive (deadlined before deadline-less) -> standard -> batch: a
  // tight batch deadline never jumps the band fence.
  EXPECT_EQ(Drain(&sched), (std::vector<int>{4, 3, 2, 0, 1}));
}

TEST(RequestSchedulerTest, EarliestDeadlineFirstWithinBand) {
  RequestScheduler<int> sched(SchedulingPolicy::kPriorityDeadline);
  sched.Push(QueryPriority::kStandard, At(30), 0);
  sched.Push(QueryPriority::kStandard, At(10), 1);
  sched.Push(QueryPriority::kStandard, At(20), 2);
  sched.Push(QueryPriority::kStandard, At(5), 3);
  EXPECT_EQ(Drain(&sched), (std::vector<int>{3, 1, 2, 0}));
}

TEST(RequestSchedulerTest, DeadlinelessSortsAfterDeadlinedFifoAmongSelves) {
  RequestScheduler<int> sched(SchedulingPolicy::kPriorityDeadline);
  sched.Push(QueryPriority::kStandard, kNoDeadline, 0);
  sched.Push(QueryPriority::kStandard, kNoDeadline, 1);
  sched.Push(QueryPriority::kStandard, At(10'000), 2);
  sched.Push(QueryPriority::kStandard, kNoDeadline, 3);
  // The lone deadlined request wins; the rest keep admission order.
  EXPECT_EQ(Drain(&sched), (std::vector<int>{2, 0, 1, 3}));
}

TEST(RequestSchedulerTest, EqualDeadlinesTieBreakByAdmissionSequence) {
  RequestScheduler<int> sched(SchedulingPolicy::kPriorityDeadline);
  for (int i = 0; i < 8; ++i) {
    sched.Push(QueryPriority::kInteractive, At(50), i);
  }
  EXPECT_EQ(Drain(&sched), (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(RequestSchedulerTest, SizeTracksPushPopAcrossBands) {
  RequestScheduler<int> sched(SchedulingPolicy::kPriorityDeadline);
  EXPECT_TRUE(sched.empty());
  sched.Push(QueryPriority::kInteractive, At(1), 0);
  sched.Push(QueryPriority::kBatch, At(2), 1);
  EXPECT_EQ(sched.size(), 2u);
  int item = 0;
  ASSERT_TRUE(sched.Pop(&item));
  EXPECT_EQ(sched.size(), 1u);
  ASSERT_TRUE(sched.Pop(&item));
  EXPECT_TRUE(sched.empty());
  EXPECT_FALSE(sched.Pop(&item));
}

TEST(RequestSchedulerTest, InterleavedPushPopStaysMostUrgentFirst) {
  RequestScheduler<int> sched(SchedulingPolicy::kPriorityDeadline);
  sched.Push(QueryPriority::kStandard, At(100), 0);
  sched.Push(QueryPriority::kStandard, At(50), 1);
  int item = -1;
  ASSERT_TRUE(sched.Pop(&item));
  EXPECT_EQ(item, 1);
  // A later, tighter admission preempts the remaining backlog.
  sched.Push(QueryPriority::kStandard, At(10), 2);
  ASSERT_TRUE(sched.Pop(&item));
  EXPECT_EQ(item, 2);
  // And a higher band preempts regardless of deadline.
  sched.Push(QueryPriority::kInteractive, kNoDeadline, 3);
  ASSERT_TRUE(sched.Pop(&item));
  EXPECT_EQ(item, 3);
  ASSERT_TRUE(sched.Pop(&item));
  EXPECT_EQ(item, 0);
}

TEST(QueryPriorityTest, NamesRoundTripAndUnknownIsRejected) {
  for (QueryPriority p : {QueryPriority::kInteractive,
                          QueryPriority::kStandard, QueryPriority::kBatch}) {
    QueryPriority parsed = QueryPriority::kStandard;
    ASSERT_TRUE(ParseQueryPriority(QueryPriorityName(p), &parsed));
    EXPECT_EQ(parsed, p);
  }
  QueryPriority untouched = QueryPriority::kBatch;
  EXPECT_FALSE(ParseQueryPriority("urgent", &untouched));
  EXPECT_FALSE(ParseQueryPriority("", &untouched));
  EXPECT_FALSE(ParseQueryPriority("HIGH", &untouched));
  EXPECT_EQ(untouched, QueryPriority::kBatch);  // out untouched on failure
}

TEST(PriorityServingTest, HighBandDrainsFirstWhileTheWorkerIsBusy) {
  // One worker, held busy by a padded batch-band blocker. While it is
  // busy, batch-band requests arrive first and interactive ones after.
  // Under kPriorityDeadline every interactive request is dequeued before
  // any batch request; under kFifo the same schedule is served in arrival
  // order. Either way every answer equals the serial directory's, and the
  // admission ledger closes. The order is read off each request's dequeue
  // time, which one worker spaces at least one pad apart.
  constexpr double kPadMs = 40.0;
  constexpr size_t kPerBand = 3;
  const char* kQueries[] = {"job career", "hotel room", "music cd",
                            "book author", "car rental", "flight airline",
                            "movie actor"};
  Corpus oracle_corpus = test::GrowCorpus(21, 24);
  const DatabaseDirectory oracle = test::BuildDirectory(oracle_corpus, 4);
  using Clock = std::chrono::steady_clock;

  for (SchedulingPolicy policy :
       {SchedulingPolicy::kFifo, SchedulingPolicy::kPriorityDeadline}) {
    SCOPED_TRACE(policy == SchedulingPolicy::kFifo ? "fifo" : "priority");
    Corpus corpus = test::GrowCorpus(21, 24);
    DatabaseDirectory directory = test::BuildDirectory(corpus, 4);
    DirectoryServerOptions options;
    options.workers = 1;
    options.service_pad_ms = kPadMs;
    options.scheduling = policy;
    DirectoryServer server(std::move(directory), std::move(corpus), options);

    // Arrival order: the blocker, kPerBand batch, kPerBand interactive.
    const Clock::time_point origin = Clock::now();
    std::vector<QueryPriority> priorities;
    std::vector<double> submitted_ms;
    std::vector<std::future<QueryResponse>> futures;
    for (size_t i = 0; i < 1 + 2 * kPerBand; ++i) {
      QueryRequest request;
      request.kind = QueryKind::kSearch;
      request.query = kQueries[i];
      request.priority = i <= kPerBand ? QueryPriority::kBatch
                                       : QueryPriority::kInteractive;
      priorities.push_back(request.priority);
      submitted_ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - origin)
              .count());
      futures.push_back(server.Submit(std::move(request)));
    }

    double last_interactive = 0.0;
    double first_interactive = 1e300;
    double last_batch = 0.0;
    double first_batch = 1e300;
    for (size_t i = 0; i < futures.size(); ++i) {
      QueryResponse response = futures[i].get();
      ASSERT_TRUE(response.status.ok()) << response.status.ToString();
      const auto want = oracle.Search(kQueries[i], 5);
      ASSERT_EQ(response.hits.size(), want.size()) << kQueries[i];
      for (size_t h = 0; h < want.size(); ++h) {
        EXPECT_EQ(response.hits[h].entry, want[h].entry);
        EXPECT_EQ(response.hits[h].similarity, want[h].similarity);
      }
      if (i == 0) continue;  // the blocker
      const double dequeued = submitted_ms[i] + response.queue_ms;
      if (priorities[i] == QueryPriority::kInteractive) {
        first_interactive = std::min(first_interactive, dequeued);
        last_interactive = std::max(last_interactive, dequeued);
      } else {
        first_batch = std::min(first_batch, dequeued);
        last_batch = std::max(last_batch, dequeued);
      }
    }
    if (policy == SchedulingPolicy::kPriorityDeadline) {
      EXPECT_LT(last_interactive, first_batch);
    } else {
      EXPECT_LT(last_batch, first_interactive);
    }

    const ServerStats stats = server.Stats();
    EXPECT_EQ(stats.completed, futures.size());
    EXPECT_EQ(stats.submitted, stats.accepted + stats.rejected_queue_full +
                                   stats.rejected_stopped + stats.cache_hits +
                                   stats.stale_served);
    server.Shutdown();
  }
}

}  // namespace
}  // namespace cafc::serve
