// Tests of the benchmark's own helpers: raw-sample percentiles and span
// self times. Run with `python3 perfbench/run.py --test`.

#include "trace.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace cafc::perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(PercentileTest, NearestRankOnRawSamples) {
  EXPECT_EQ(Percentile(OneTo(100), 50), 50);
  EXPECT_EQ(Percentile(OneTo(100), 99), 99);
  EXPECT_EQ(Percentile(OneTo(100), 100), 100);
  EXPECT_EQ(Percentile(OneTo(1000), 99), 990);
  EXPECT_EQ(Percentile({7.0}, 99), 7.0);
  EXPECT_EQ(Percentile({}, 50), 0.0);
}

TEST(PercentileTest, TailNeedsTenSamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(1000, 99), 10u);
  EXPECT_TRUE(TailSupported(1000, 99));
  EXPECT_FALSE(TailSupported(999, 99));
  EXPECT_TRUE(TailSupported(20, 50));
  EXPECT_FALSE(TailSupported(19, 50));
  EXPECT_FALSE(TailSupported(0, 50));
}

TEST(PercentileTest, MedianAveragesTheMiddlePair) {
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(Median({}), 0.0);
}

Span Make(int64_t start, int64_t end, int32_t parent) {
  Span span;
  span.start_ns = start;
  span.end_ns = end;
  span.parent = parent;
  return span;
}

TEST(SelfTimeTest, SubtractsDirectChildrenOnly) {
  // root [0,100) > a [10,40) > grandchild [15,35); root > b [50,70).
  const std::vector<Span> spans = {Make(0, 100, -1), Make(10, 40, 0),
                                   Make(15, 35, 1), Make(50, 70, 0)};
  const std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 100 - 30 - 20);
  EXPECT_EQ(self[1], 30 - 20);
  EXPECT_EQ(self[2], 20);
  EXPECT_EQ(self[3], 20);
}

TEST(SelfTimeTest, OverlappingChildrenCountOnceAndClipToParent) {
  // Children [10,50) and [30,60) overlap; [90,130) sticks out of [0,100).
  const std::vector<Span> spans = {Make(0, 100, -1), Make(10, 50, 0),
                                   Make(30, 60, 0), Make(90, 130, 0)};
  EXPECT_EQ(SelfTimesNs(spans)[0], 100 - 50 - 10);
}

TEST(SpanRecorderTest, NestsPerThreadAndInheritsRequestIds) {
  SpanRecorder recorder;
  {
    ScopedSpan root(&recorder, "root", 7);
    ScopedSpan child(&recorder, "child");
  }
  std::thread other([&recorder] { ScopedSpan span(&recorder, "other", 9); });
  other.join();
  const auto lanes = recorder.Lanes();
  ASSERT_EQ(lanes.size(), 2u);
  ASSERT_EQ(lanes[0].size(), 2u);
  EXPECT_EQ(lanes[0][1].parent, 0);
  EXPECT_EQ(lanes[0][1].request, 7u);
  EXPECT_GE(lanes[0][0].end_ns, lanes[0][1].end_ns);
  ASSERT_EQ(lanes[1].size(), 1u);
  EXPECT_EQ(lanes[1][0].parent, -1);
  EXPECT_EQ(lanes[1][0].request, 9u);
  EXPECT_EQ(recorder.num_spans(), 3u);
  const auto summary = recorder.Summarize();
  EXPECT_EQ(summary.at("root").self_us.size(), 1u);
  EXPECT_LE(summary.at("root").self_us[0], summary.at("root").duration_us[0]);
}

TEST(SpanRecorderTest, NullRecorderIsANoOp) {
  ScopedSpan span(nullptr, "nothing");
  SUCCEED();
}

}  // namespace
}  // namespace cafc::perfbench
