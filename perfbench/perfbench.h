#ifndef CAFC_PERFBENCH_PERFBENCH_H_
#define CAFC_PERFBENCH_PERFBENCH_H_

// Shared run options, pinned thread counts and the metric report of the
// end-to-end benchmark. See perfbench/README.md for the workloads.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "probes.h"
#include "trace.h"

namespace cafc::perfbench {

/// Thread counts every workload pins (printed with each result).
inline constexpr int kPoolThreads = 4;         ///< util::ThreadPool default
inline constexpr size_t kClients = 4;          ///< serve and shard clients
inline constexpr size_t kSenders = 4;          ///< open-loop senders (refresh)
inline constexpr size_t kServerWorkers = 4;    ///< DirectoryServer workers
inline constexpr size_t kShards = 4;           ///< ShardRouter shards
inline constexpr size_t kWorkersPerShard = 1;  ///< workers per shard server
/// Set-ups per run; setup_s is their median.
inline constexpr int kSetupRepeats = 9;

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for snapshot files and the span dump.
  std::string work_dir = ".";
};

/// One reported number: a metric name, its value, unit and the count of
/// raw samples it summarizes (1 for a single measurement).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  size_t samples = 1;
};

/// Everything one workload run reports: metrics, the environment it ran
/// in, and the correctness ledger.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples = 1);
  /// Adds the p-th percentile of `samples` as `name`, or records it as
  /// withheld when fewer than ten samples lie beyond it.
  void AddPercentile(const std::string& name,
                     const std::vector<double>& samples, double p,
                     const std::string& unit);
  /// Adds the median of `samples` (withheld when empty).
  void AddMedian(const std::string& name, const std::vector<double>& samples,
                 const std::string& unit);
  void Env(const std::string& key, const std::string& value);
  /// A free-form line printed above the metrics (breakdown tables).
  void Note(const std::string& line);
  /// Counts one checked operation; `ok` false marks it failed.
  void Check(bool ok, uint64_t count = 1);
  void Fail(const std::string& reason);

  /// Prints the human-readable table, then one `PERFBENCH_REPORT {json}`
  /// line that perfbench/run.py turns into the result line.
  void Print(const RunOptions& options) const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, size_t>> withheld_;
  std::vector<std::pair<std::string, std::string>> env_;
  std::vector<std::string> notes_;
  std::vector<std::string> failures_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Notes one line per span name (calls, median duration, median self
/// time) and writes the spans to `<work_dir>/trace-<workload>.jsonl`.
void ReportSpans(const RunOptions& options, const SpanRecorder& recorder,
                 Report* report);

/// A span name's raw durations (`self` false) or self times, in
/// microseconds; empty when the name never occurred.
std::vector<double> SpanSamplesUs(
    const std::map<std::string, SpanSummary>& summary, const std::string& name,
    bool self = false);

/// Median, in seconds, of `repeats` timed calls of `setup` — the setup_s
/// protocol. `setup` builds the workload's state and stores it;
/// `teardown`, untimed, releases the previous repetition's state first.
template <typename Teardown, typename Setup>
double TimeSetup(int repeats, Teardown&& teardown, Setup&& setup) {
  std::vector<double> seconds;
  for (int r = 0; r < repeats; ++r) {
    teardown();
    const int64_t start = NowNs();
    setup();
    seconds.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }
  return Median(seconds);
}

/// Throughput and process CPU per operation of one measured closed-loop
/// phase, per window.
struct PhaseTime {
  std::vector<double> window_ops_per_s;   ///< completed ops / window wall
  std::vector<double> window_cpu_us_per_op;

  /// Robust rates: medians over the windows.
  double ops_per_s() const { return Median(window_ops_per_s); }
  double cpu_us_per_op() const { return Median(window_cpu_us_per_op); }
};

/// Length of one measurement window of a closed loop.
inline constexpr double kWindowS = 0.5;

/// \brief Closed loop: `clients` threads each call `step(client, record)`
/// back to back — a client's next request waits for its previous answer.
///
/// The first `warmup_s` seconds are not recorded (`record` false: caches
/// fill, lazy set-up finishes); then `measure_s` seconds are, in windows
/// of kWindowS whose throughput and CPU per operation are kept separately
/// (their medians shrug off a burst of machine noise). A call that
/// started recording finishes recording.
template <typename Step>
PhaseTime RunClosedLoop(size_t clients, double warmup_s, double measure_s,
                        Step&& step) {
  std::atomic<int> phase{0};  // 0 warm-up, 1 measure, 2 stop
  std::atomic<uint64_t> completed{0};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&phase, &completed, &step, c] {
      for (int p = phase.load(); p != 2; p = phase.load()) {
        step(c, p == 1);
        completed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(warmup_s));
  const int64_t start = NowNs();
  const double cpu_start = ProcessCpuSeconds();
  phase.store(1);
  PhaseTime time;
  const int windows = std::max(1, static_cast<int>(measure_s / kWindowS));
  int64_t window_start = start;
  double window_cpu = cpu_start;
  uint64_t window_ops = completed.load();
  for (int w = 1; w <= windows; ++w) {
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(start + static_cast<int64_t>(
                                             w * measure_s / windows * 1e9))));
    const int64_t now = NowNs();
    const double cpu = ProcessCpuSeconds();
    const uint64_t ops = completed.load();
    const double n = static_cast<double>(ops - window_ops);
    time.window_ops_per_s.push_back(n * 1e9 /
                                    static_cast<double>(now - window_start));
    time.window_cpu_us_per_op.push_back(n > 0 ? (cpu - window_cpu) * 1e6 / n
                                              : 0.0);
    window_start = now;
    window_cpu = cpu;
    window_ops = ops;
  }
  phase.store(2);
  for (std::thread& t : threads) t.join();
  return time;
}

void RunBuild(const RunOptions& options, Report* report);
void RunServe(const RunOptions& options, Report* report);
void RunRefresh(const RunOptions& options, Report* report);
void RunShard(const RunOptions& options, Report* report);

}  // namespace cafc::perfbench

#endif  // CAFC_PERFBENCH_PERFBENCH_H_
