#ifndef CAFC_PERFBENCH_TRACE_H_
#define CAFC_PERFBENCH_TRACE_H_

// Raw-sample statistics and the benchmark's span recorder. Everything here
// measures the library from outside: spans wrap calls into its public
// functions, never code inside src/.

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace cafc::perfbench {

/// Monotonic nanoseconds (steady_clock).
int64_t NowNs();

/// Nearest-rank percentile of raw samples: the value at 1-based rank
/// ceil(p/100 * n) of the sorted samples. `p` in (0, 100]; 0.0 when empty.
double Percentile(std::vector<double> samples, double p);

/// How many samples rank strictly above the p-th percentile of n samples.
size_t SamplesBeyond(size_t n, double p);

/// A percentile is reported only when at least this many samples lie
/// beyond it (p99 therefore needs 1,000 samples, p50 needs 20).
inline constexpr size_t kMinTailSamples = 10;

/// True when `n` samples support the p-th percentile.
inline bool TailSupported(size_t n, double p) {
  return SamplesBeyond(n, p) >= kMinTailSamples;
}

/// Median of raw samples (the mean of the middle two for even counts).
double Median(std::vector<double> samples);

/// One recorded span. `parent` indexes the same lane's span list (-1 for a
/// root); children inherit their parent's request id.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  uint64_t request = 0;
};

/// Per-name aggregate of a span set: call count, wall durations and self
/// times (duration minus the part of the interval child spans cover).
struct SpanSummary {
  std::vector<double> duration_us;
  std::vector<double> self_us;
};

/// Self time of every span of one lane, aligned with `spans`: its
/// duration minus the union of its direct children's intervals, clipped to
/// the span. Children may overlap each other; the union counts once.
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// \brief In-memory span recorder with one buffer ("lane") per recording
/// thread, so recording takes no lock after a thread's first span.
///
/// Spans nest per thread: Begin pushes onto the lane's open stack, End pops.
/// Nothing is written until `WriteJsonLines`, after the recording threads
/// are joined.
class SpanRecorder {
 public:
  SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Opens a span on the calling thread's lane. `request` 0 inherits the
  /// enclosing span's request id.
  void Begin(const char* name, uint64_t request);
  /// Closes the innermost open span of the calling thread's lane.
  void End();

  /// Every lane's spans (call after the recording threads are joined).
  std::vector<std::vector<Span>> Lanes() const;
  size_t num_spans() const;

  /// Aggregates by span name across all lanes.
  std::map<std::string, SpanSummary> Summarize() const;

  /// Writes one JSON object per span: lane, id, parent, name, request,
  /// start_ns, end_ns, self_ns. Returns false when the file cannot be
  /// written.
  bool WriteJsonLines(const std::string& path) const;

 private:
  struct Lane {
    std::vector<Span> spans;
    std::vector<int32_t> open;
  };
  Lane* ThisThreadLane();

  const uint64_t generation_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Lane>> lanes_;  // guarded by mutex_
};

/// RAII span; a null recorder makes it a no-op (the untraced path).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, uint64_t request = 0)
      : recorder_(recorder) {
    if (recorder_ != nullptr) recorder_->Begin(name, request);
  }
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
};

}  // namespace cafc::perfbench

#endif  // CAFC_PERFBENCH_TRACE_H_
