#include "client_log.h"

#include "perfbench.h"

namespace cafc::perfbench {

std::vector<ClientLog> MakeLogs(size_t clients, uint64_t seed, bool detail) {
  std::vector<ClientLog> logs;
  for (size_t c = 0; c < clients; ++c) {
    logs.emplace_back(SubSeed(seed, /*stream=*/6, c), detail);
  }
  return logs;
}

uint64_t Count(const std::vector<ClientLog>& logs) {
  uint64_t n = 0;
  for (const ClientLog& log : logs) n += log.count;
  return n;
}

std::vector<double> Pool(const std::vector<ClientLog>& logs,
                         Reservoir ClientLog::*series) {
  std::vector<double> out;
  for (const ClientLog& log : logs) (log.*series).AppendTo(&out);
  return out;
}

std::vector<double> AllLatencies(const std::vector<ClientLog>& logs) {
  std::vector<double> out = Pool(logs, &ClientLog::classify_us);
  for (const ClientLog& log : logs) log.search_us.AppendTo(&out);
  return out;
}

uint64_t CheckAnswers(const std::vector<ClientLog>& logs,
                      const std::map<uint64_t, OracleAnswers>& oracle,
                      Report* report) {
  uint64_t wrong = 0;
  for (const ClientLog& log : logs) {
    for (const auto& [key, count] : log.answers) {
      auto it = oracle.find(key.version);
      const bool ok =
          key.ok && it != oracle.end() &&
          key.answer ==
              (key.search ? it->second.search : it->second.classify)[key.item];
      report->Check(ok, count);
      if (!ok) wrong += count;
    }
  }
  return wrong;
}

}  // namespace cafc::perfbench
