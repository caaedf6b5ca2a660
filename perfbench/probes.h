#ifndef CAFC_PERFBENCH_PROBES_H_
#define CAFC_PERFBENCH_PROBES_H_

// Outside-in probes: process CPU clocks, the /proc/self/status memory
// sampler, and a counting decorator for ipc::MessagePipe.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "ipc/pipe.h"
#include "util/status.h"

namespace cafc::perfbench {

/// CPU seconds burned by every thread of the process so far.
double ProcessCpuSeconds();

/// CPU microseconds burned by the calling thread so far.
double ThreadCpuUs();

/// VmHWM (peak resident set) and VmRSS (resident set now) in KiB, read
/// from /proc/self/status. Both 0 when the file is unavailable.
struct MemoryStatus {
  double hwm_kb = 0.0;
  double rss_kb = 0.0;
};
MemoryStatus ReadMemoryStatus();

/// Traffic seen by one or more CountingPipe endpoints.
struct PipeCounters {
  std::atomic<uint64_t> sent_bytes{0};
  std::atomic<uint64_t> sent_messages{0};
  std::atomic<uint64_t> received_bytes{0};
  std::atomic<uint64_t> received_messages{0};

  uint64_t bytes() const { return sent_bytes.load() + received_bytes.load(); }
  uint64_t messages() const {
    return sent_messages.load() + received_messages.load();
  }
};

/// \brief A MessagePipe decorator that counts the messages and payload
/// bytes passing through the wrapped endpoint, in both directions.
///
/// Wrapped around a router's client end it measures the RPC traffic the
/// router generates without touching the ipc layer. `counters` must
/// outlive the pipe.
class CountingPipe : public ipc::MessagePipe {
 public:
  CountingPipe(std::unique_ptr<ipc::MessagePipe> inner,
               PipeCounters* counters);

  Status Send(std::string_view message) override;
  Status Recv(std::string* message) override;
  void Close() override;

 private:
  std::unique_ptr<ipc::MessagePipe> inner_;
  PipeCounters* counters_;
};

}  // namespace cafc::perfbench

#endif  // CAFC_PERFBENCH_PROBES_H_
