#ifndef CAFC_BENCH_HARNESS_H_
#define CAFC_BENCH_HARNESS_H_

// The one report format of the bench binaries that gate a claim: named
// measurements plus a uniform `"gates": [{name, value, bound, pass}]`
// array, written to BENCH_<bench>.json in the working directory, and an
// exit code that is non-zero when an enforced gate fails.
//
// Correctness gates are always enforced. Timing floors are calibrated at
// full size, so under `--smoke` they are recorded but informational.

#include <chrono>
#include <string>
#include <utility>
#include <vector>

namespace cafc::bench {

/// Process CPU time in milliseconds, all threads. Speedup floors are taken
/// on CPU time: it only advances while the process runs, so steal time on
/// a shared machine cannot skew one side of a ratio.
double CpuMs();

/// Wall milliseconds since `start`.
double MsSince(std::chrono::steady_clock::time_point start);

class GateReport {
 public:
  GateReport(std::string bench, bool smoke);

  /// An informational number (a time, a count, a ratio with no floor).
  void Measure(const std::string& name, double value);

  /// A correctness gate: `ok` must hold, in every mode.
  void Require(const std::string& name, bool ok);

  /// A timing floor: `value >= bound` (or `>` when `strict`), enforced
  /// only in full runs.
  void Floor(const std::string& name, double value, double bound,
             bool strict = false);

  /// Prints the gates, writes BENCH_<bench>.json, and returns the process
  /// exit code: 1 if an enforced gate failed, else 0.
  int Finish() const;

 private:
  struct Gate {
    std::string name;
    double value = 0.0;
    std::string op;
    double bound = 0.0;
    bool pass = false;
    bool enforced = false;
  };

  std::string bench_;
  bool smoke_ = false;
  std::vector<std::pair<std::string, double>> measurements_;
  std::vector<Gate> gates_;
};

}  // namespace cafc::bench

#endif  // CAFC_BENCH_HARNESS_H_
