#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <utility>

namespace cafc::perfbench {
namespace {

std::atomic<uint64_t> g_next_generation{1};

// The calling thread's lane of the recorder with this generation. Keyed by
// generation rather than address so a recorder allocated where a dead one
// lived never inherits its lane.
thread_local uint64_t t_generation = 0;
thread_local void* t_lane = nullptr;

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const size_t n = samples.size();
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

size_t SamplesBeyond(size_t n, double p) {
  if (n == 0) return 0;
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<size_t>(rank, 1, n);
  return n - rank;
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0 && static_cast<size_t>(span.parent) < spans.size()) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.start_ns,
                                                              span.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t begin = spans[i].start_ns;
    const int64_t end = spans[i].end_ns;
    std::vector<std::pair<int64_t, int64_t>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t run_begin = 0;
    int64_t run_end = 0;
    bool open = false;
    for (auto [kid_begin, kid_end] : kids) {
      kid_begin = std::max(kid_begin, begin);
      kid_end = std::min(kid_end, end);
      if (kid_end <= kid_begin) continue;
      if (open && kid_begin <= run_end) {
        run_end = std::max(run_end, kid_end);
        continue;
      }
      if (open) covered += run_end - run_begin;
      run_begin = kid_begin;
      run_end = kid_end;
      open = true;
    }
    if (open) covered += run_end - run_begin;
    self[i] = (end - begin) - covered;
  }
  return self;
}

SpanRecorder::SpanRecorder()
    : generation_(g_next_generation.fetch_add(1)) {}

SpanRecorder::Lane* SpanRecorder::ThisThreadLane() {
  if (t_generation != generation_) {
    auto lane = std::make_unique<Lane>();
    lane->spans.reserve(1 << 14);
    Lane* raw = lane.get();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      lanes_.push_back(std::move(lane));
    }
    t_generation = generation_;
    t_lane = raw;
  }
  return static_cast<Lane*>(t_lane);
}

void SpanRecorder::Begin(const char* name, uint64_t request) {
  Lane* lane = ThisThreadLane();
  Span span;
  span.name = name;
  span.parent = lane->open.empty() ? -1 : lane->open.back();
  span.request = request != 0 || span.parent < 0
                     ? request
                     : lane->spans[static_cast<size_t>(span.parent)].request;
  const int32_t index = static_cast<int32_t>(lane->spans.size());
  lane->open.push_back(index);
  span.start_ns = NowNs();
  lane->spans.push_back(span);
}

void SpanRecorder::End() {
  const int64_t now = NowNs();
  Lane* lane = ThisThreadLane();
  if (lane->open.empty()) return;
  lane->spans[static_cast<size_t>(lane->open.back())].end_ns = now;
  lane->open.pop_back();
}

std::vector<std::vector<Span>> SpanRecorder::Lanes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::vector<Span>> out;
  out.reserve(lanes_.size());
  for (const auto& lane : lanes_) out.push_back(lane->spans);
  return out;
}

size_t SpanRecorder::num_spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t n = 0;
  for (const auto& lane : lanes_) n += lane->spans.size();
  return n;
}

std::map<std::string, SpanSummary> SpanRecorder::Summarize() const {
  std::map<std::string, SpanSummary> out;
  for (const std::vector<Span>& spans : Lanes()) {
    const std::vector<int64_t> self = SelfTimesNs(spans);
    for (size_t i = 0; i < spans.size(); ++i) {
      SpanSummary& summary = out[spans[i].name];
      summary.duration_us.push_back(
          static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e3);
      summary.self_us.push_back(static_cast<double>(self[i]) / 1e3);
    }
  }
  return out;
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::vector<std::vector<Span>> lanes = Lanes();
  for (size_t l = 0; l < lanes.size(); ++l) {
    const std::vector<int64_t> self = SelfTimesNs(lanes[l]);
    for (size_t i = 0; i < lanes[l].size(); ++i) {
      const Span& span = lanes[l][i];
      out << "{\"lane\":" << l << ",\"id\":" << i
          << ",\"parent\":" << span.parent << ",\"name\":\"" << span.name
          << "\",\"request\":" << span.request
          << ",\"start_ns\":" << span.start_ns
          << ",\"end_ns\":" << span.end_ns << ",\"self_ns\":" << self[i]
          << "}\n";
    }
  }
  return static_cast<bool>(out);
}

}  // namespace cafc::perfbench
