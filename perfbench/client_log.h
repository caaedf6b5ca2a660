#ifndef CAFC_PERFBENCH_CLIENT_LOG_H_
#define CAFC_PERFBENCH_CLIENT_LOG_H_

// What one client thread keeps of its requests, in memory bounded
// independently of throughput (so peak_rss_mb measures the program, not
// the benchmark's bookkeeping): latency samples in fixed-size reservoirs,
// and answers tallied by distinct (kind, item, version, answer).

#include <cstddef>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "substrate.h"
#include "util/rng.h"

namespace cafc::perfbench {

/// \brief A uniform random sample of at most `capacity` raw values
/// (Algorithm R). Storage is allocated and touched up front.
class Reservoir {
 public:
  Reservoir(size_t capacity, uint64_t seed)
      : values_(capacity, 0.0f), rng_(seed) {}

  void Add(double value) {
    if (values_.empty()) return;
    if (seen_ < values_.size()) {
      values_[seen_] = static_cast<float>(value);
    } else {
      const uint64_t slot = rng_.Uniform(seen_ + 1);
      if (slot < values_.size()) values_[slot] = static_cast<float>(value);
    }
    ++seen_;
  }
  /// Appends the kept samples to `out`.
  void AppendTo(std::vector<double>* out) const {
    const size_t kept = seen_ < values_.size() ? seen_ : values_.size();
    out->insert(out->end(), values_.begin(), values_.begin() + kept);
  }

 private:
  std::vector<float> values_;
  Rng rng_;
  uint64_t seen_ = 0;
};

/// One answered request, as the client saw it.
struct Outcome {
  uint32_t item = 0;
  bool search = false;
  bool ok = false;  ///< status OK (routed: not partial, every echo OK)
  bool cache_hit = false;
  uint64_t version = 0;
  Answer answer;
  int64_t done_ns = 0;
  double latency_us = 0.0;  ///< from send (closed loop) or due time (open)
  double submit_us = 0.0;   ///< the Submit call: cache key, lookup, enqueue
  double queue_us = 0.0;
  double service_us = 0.0;
  double late_us = 0.0;  ///< open loop: how late the sender sent
};

/// Distinct answer of a request: what the oracle check compares.
struct AnswerKey {
  bool search = false;
  bool ok = false;
  uint32_t item = 0;
  uint64_t version = 0;
  Answer answer;

  bool operator==(const AnswerKey&) const = default;
};

struct AnswerKeyHash {
  size_t operator()(const AnswerKey& k) const {
    uint64_t h = k.item * 0x9e3779b97f4a7c15ULL ^
                 k.version * 0xbf58476d1ce4e5b9ULL;
    h ^= static_cast<uint64_t>(k.answer.entry) * 0x94d049bb133111ebULL;
    h ^= k.answer.hits_digest + (k.search ? 1 : 0) + (k.ok ? 2 : 0);
    return static_cast<size_t>(h ^ (h >> 29));
  }
};

/// \brief Per-client record of a measured phase.
class ClientLog {
 public:
  /// Reservoir capacity per latency series.
  static constexpr size_t kCapacity = size_t{1} << 18;
  /// Outcomes kept verbatim for the traced replay.
  static constexpr size_t kHead = 2048;

  /// `detail` also samples the serving breakdown (traced runs).
  ClientLog(uint64_t seed, bool detail)
      : classify_us(kCapacity, seed), search_us(kCapacity, seed + 1),
        submit_us(detail ? kCapacity : 0, seed + 2),
        queue_us(detail ? kCapacity : 0, seed + 3),
        service_classify_us(detail ? kCapacity : 0, seed + 4),
        service_search_us(detail ? kCapacity : 0, seed + 5),
        late_us(detail ? kCapacity : 0, seed + 6) {}

  void Add(const Outcome& o) {
    ++count;
    (o.search ? search_us : classify_us).Add(o.latency_us);
    submit_us.Add(o.submit_us);
    late_us.Add(o.late_us);
    if (o.search) {
      ++searches;
      if (o.cache_hit) ++search_hits;
    } else if (o.cache_hit) {
      ++classify_hits;
    }
    if (!o.cache_hit) {
      queue_us.Add(o.queue_us);
      (o.search ? service_search_us : service_classify_us).Add(o.service_us);
    }
    ++answers[AnswerKey{o.search, o.ok, o.item, o.version, o.answer}];
    if (o.ok) {
      auto [it, fresh] = first_done_ns.emplace(o.version, o.done_ns);
      if (!fresh && o.done_ns < it->second) it->second = o.done_ns;
    }
    if (head.size() < kHead) head.push_back(o);
  }

  uint64_t count = 0;
  uint64_t searches = 0;
  uint64_t search_hits = 0;
  uint64_t classify_hits = 0;
  Reservoir classify_us, search_us;
  Reservoir submit_us, queue_us, service_classify_us, service_search_us,
      late_us;
  std::unordered_map<AnswerKey, uint64_t, AnswerKeyHash> answers;
  /// Earliest completion of an OK answer at each snapshot version.
  std::map<uint64_t, int64_t> first_done_ns;
  std::vector<Outcome> head;
};

class Report;

/// One log per client, reservoir streams seeded from `seed`.
std::vector<ClientLog> MakeLogs(size_t clients, uint64_t seed, bool detail);

/// Requests logged across clients.
uint64_t Count(const std::vector<ClientLog>& logs);

/// One reservoir series of every client, concatenated.
std::vector<double> Pool(const std::vector<ClientLog>& logs,
                         Reservoir ClientLog::*series);

/// Every client's classify and search latency samples together.
std::vector<double> AllLatencies(const std::vector<ClientLog>& logs);

/// Checks every logged answer against the oracle of the snapshot version
/// it reports (counting each into `report`); returns how many were wrong
/// or not OK.
uint64_t CheckAnswers(const std::vector<ClientLog>& logs,
                      const std::map<uint64_t, OracleAnswers>& oracle,
                      Report* report);

}  // namespace cafc::perfbench

#endif  // CAFC_PERFBENCH_CLIENT_LOG_H_
