// The CAFC end-to-end benchmark binary: runs one named workload and prints
// its metrics. Usually driven by perfbench/run.py, which builds this
// binary and turns the report line into the result line:
//
//   perfbench --workload <build|serve|refresh|shard> --seed N --seconds S
//             --trace <0|1> [--work-dir DIR]

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include <unistd.h>

#include "perfbench.h"
#include "trace.h"
#include "util/thread_pool.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace cafc::perfbench {
namespace {

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out + "\"";
}

}  // namespace

void Report::Add(const std::string& name, double value,
                 const std::string& unit, size_t samples) {
  if (!std::isfinite(value)) {
    Fail(name + " is not a finite number");
    value = 0.0;
  }
  metrics_.push_back(Metric{name, value, unit, samples});
}

void Report::AddPercentile(const std::string& name,
                           const std::vector<double>& samples, double p,
                           const std::string& unit) {
  if (TailSupported(samples.size(), p)) {
    Add(name, Percentile(samples, p), unit, samples.size());
  } else {
    withheld_.emplace_back(name, samples.size());
  }
}

void Report::AddMedian(const std::string& name,
                       const std::vector<double>& samples,
                       const std::string& unit) {
  if (samples.empty()) {
    withheld_.emplace_back(name, 0);
    return;
  }
  Add(name, Median(samples), unit, samples.size());
}

void Report::Env(const std::string& key, const std::string& value) {
  env_.emplace_back(key, value);
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

void Report::Check(bool ok, uint64_t count) {
  attempted_ += count;
  if (!ok) failed_ += count;
}

void Report::Fail(const std::string& reason) { failures_.push_back(reason); }

void Report::Print(const RunOptions& options) const {
  std::printf("== perfbench %s (seed %llu, %.0f s, trace %d) ==\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  for (const auto& [key, value] : env_) {
    std::printf("  env %-22s %s\n", key.c_str(), value.c_str());
  }
  for (const std::string& line : notes_) std::printf("  %s\n", line.c_str());
  for (const Metric& m : metrics_) {
    std::printf("  %-36s %16.6g %-9s n=%zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  for (const auto& [name, n] : withheld_) {
    std::printf("  %-36s %16s %-9s n=%zu (fewer than %zu beyond)\n",
                name.c_str(), "withheld", "", n, kMinTailSamples);
  }
  for (const std::string& reason : failures_) {
    std::printf("  FAILED: %s\n", reason.c_str());
  }
  const bool correct = failures_.empty() && failed_ == 0 && attempted_ > 0;
  std::printf("  checked %llu operations against the serial oracle, %llu "
              "failed -> %s\n",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_),
              correct ? "correct" : "INCORRECT");

  std::string json = "{\"workload\":" + Quoted(options.workload) +
                     ",\"correct\":" + (correct ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(attempted_) +
                     ",\"failed\":" + std::to_string(failed_) + ",\"env\":{";
  for (size_t i = 0; i < env_.size(); ++i) {
    if (i > 0) json += ",";
    json += Quoted(env_[i].first) + ":" + Quoted(env_[i].second);
  }
  json += "},\"metrics\":{";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    if (i > 0) json += ",";
    json += Quoted(m.name) + ":{\"value\":" +
            Number(m.value) + ",\"unit\":" + Quoted(m.unit) +
            ",\"samples\":" + std::to_string(m.samples) + "}";
  }
  json += "}}";
  std::printf("PERFBENCH_REPORT %s\n", json.c_str());
  std::fflush(stdout);
}

std::vector<double> SpanSamplesUs(
    const std::map<std::string, SpanSummary>& summary,
    const std::string& name, bool self) {
  auto it = summary.find(name);
  if (it == summary.end()) return {};
  return self ? it->second.self_us : it->second.duration_us;
}

void ReportSpans(const RunOptions& options, const SpanRecorder& recorder,
                 Report* report) {
  const std::map<std::string, SpanSummary> summary = recorder.Summarize();
  char line[160];
  std::snprintf(line, sizeof(line), "%-28s %9s %14s %14s", "span", "calls",
                "p50 wall us", "p50 self us");
  report->Note(line);
  for (const auto& [name, spans] : summary) {
    std::snprintf(line, sizeof(line), "%-28s %9zu %14.3f %14.3f",
                  name.c_str(), spans.duration_us.size(),
                  Median(spans.duration_us), Median(spans.self_us));
    report->Note(line);
  }
  const std::string path =
      options.work_dir + "/trace-" + options.workload + ".jsonl";
  if (!recorder.WriteJsonLines(path)) {
    report->Fail("cannot write span dump " + path);
  }
  report->Note("spans: " + std::to_string(recorder.num_spans()) +
               " written to " + path);
}

}  // namespace cafc::perfbench

int main(int argc, char** argv) {
  using namespace cafc::perfbench;  // NOLINT
  RunOptions options;
  bool valid = true;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      valid = valid && end != nullptr && *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      valid = valid && end != nullptr && *end == '\0' && options.seconds > 0;
    } else if (flag == "--trace") {
      valid = valid && (value == "0" || value == "1");
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      valid = false;
    }
  }
  if (!valid || argc % 2 != 1) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <build|serve|refresh|shard> "
                 "--seed N --seconds S --trace <0|1> [--work-dir DIR]\n");
    return 2;
  }

  cafc::util::ThreadPool::SetDefaultThreads(kPoolThreads);
  Report report;
  report.Env("nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  report.Env("build_type",
             build_type == "Release"
                 ? build_type
                 : build_type + " (NOT Release: timings invalid)");
  report.Env("seed", std::to_string(options.seed));
  report.Env("seconds", Number(options.seconds));
  report.Env("pool_threads", std::to_string(kPoolThreads));
  try {
    if (options.workload == "build") {
      RunBuild(options, &report);
    } else if (options.workload == "serve") {
      RunServe(options, &report);
    } else if (options.workload == "refresh") {
      RunRefresh(options, &report);
    } else if (options.workload == "shard") {
      RunShard(options, &report);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n",
                   options.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench %s failed: %s\n",
                 options.workload.c_str(), e.what());
    return 1;
  }
  report.Print(options);
  return 0;
}
