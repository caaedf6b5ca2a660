#include "probes.h"

#include <ctime>
#include <fstream>
#include <sstream>
#include <utility>

namespace cafc::perfbench {
namespace {

double ClockSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) / 1e9;
}

}  // namespace

double ProcessCpuSeconds() { return ClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }

double ThreadCpuUs() { return ClockSeconds(CLOCK_THREAD_CPUTIME_ID) * 1e6; }

MemoryStatus ReadMemoryStatus() {
  MemoryStatus status;
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string key;
    double kb = 0.0;
    fields >> key >> kb;
    if (key == "VmHWM:") status.hwm_kb = kb;
    if (key == "VmRSS:") status.rss_kb = kb;
  }
  return status;
}

CountingPipe::CountingPipe(std::unique_ptr<ipc::MessagePipe> inner,
                           PipeCounters* counters)
    : inner_(std::move(inner)), counters_(counters) {}

Status CountingPipe::Send(std::string_view message) {
  Status status = inner_->Send(message);
  if (status.ok()) {
    counters_->sent_bytes.fetch_add(message.size(),
                                    std::memory_order_relaxed);
    counters_->sent_messages.fetch_add(1, std::memory_order_relaxed);
  }
  return status;
}

Status CountingPipe::Recv(std::string* message) {
  Status status = inner_->Recv(message);
  if (status.ok()) {
    counters_->received_bytes.fetch_add(message->size(),
                                        std::memory_order_relaxed);
    counters_->received_messages.fetch_add(1, std::memory_order_relaxed);
  }
  return status;
}

void CountingPipe::Close() { inner_->Close(); }

}  // namespace cafc::perfbench
