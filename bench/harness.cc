#include "bench/harness.h"

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <thread>
#include <utility>

#include "util/string_util.h"
#include "util/table.h"

namespace cafc::bench {

double CpuMs() {
  return 1000.0 * static_cast<double>(std::clock()) /
         static_cast<double>(CLOCKS_PER_SEC);
}

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

GateReport::GateReport(std::string bench, bool smoke)
    : bench_(std::move(bench)), smoke_(smoke) {}

void GateReport::Measure(const std::string& name, double value) {
  measurements_.emplace_back(name, value);
}

void GateReport::Require(const std::string& name, bool ok) {
  gates_.push_back({name, ok ? 1.0 : 0.0, "==", 1.0, ok, true});
}

void GateReport::Floor(const std::string& name, double value, double bound,
                       bool strict) {
  const bool pass = strict ? value > bound : value >= bound;
  gates_.push_back({name, value, strict ? ">" : ">=", bound, pass, !smoke_});
}

int GateReport::Finish() const {
  Table table({"gate", "value", "bound", "result"});
  bool failed = false;
  for (const Gate& gate : gates_) {
    const char* result = gate.pass       ? "pass"
                         : gate.enforced ? "FAIL"
                                         : "below (informational)";
    table.AddRow({gate.name, FormatDouble(gate.value, 3),
                  gate.op + " " + FormatDouble(gate.bound, 3), result});
    failed = failed || (gate.enforced && !gate.pass);
  }
  std::printf("=== %s gates%s ===\n%s", bench_.c_str(),
              smoke_ ? " (smoke: timing floors informational)" : "",
              table.ToString().c_str());

  auto number = [](double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return std::string(buf);
  };
  const std::string path = "BENCH_" + bench_ + ".json";
  std::ofstream out(path);
  out << "{\n  \"bench\": \"" << bench_ << "\",\n";
  out << "  \"smoke\": " << (smoke_ ? "true" : "false") << ",\n";
  out << "  \"hardware_concurrency\": "
      << std::max(1u, std::thread::hardware_concurrency()) << ",\n";
  out << "  \"measurements\": {";
  for (size_t i = 0; i < measurements_.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << "    \"" << measurements_[i].first
        << "\": " << number(measurements_[i].second);
  }
  out << "\n  },\n  \"gates\": [";
  for (size_t i = 0; i < gates_.size(); ++i) {
    const Gate& gate = gates_[i];
    out << (i == 0 ? "\n" : ",\n") << "    {\"name\": \"" << gate.name
        << "\", \"value\": " << number(gate.value) << ", \"op\": \""
        << gate.op << "\", \"bound\": " << number(gate.bound)
        << ", \"pass\": " << (gate.pass ? "true" : "false")
        << ", \"enforced\": " << (gate.enforced ? "true" : "false") << "}";
  }
  out << "\n  ]\n}\n";
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("results written to %s\n", path.c_str());
  return failed ? 1 : 0;
}

}  // namespace cafc::bench
