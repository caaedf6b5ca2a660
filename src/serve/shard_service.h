#ifndef CAFC_SERVE_SHARD_SERVICE_H_
#define CAFC_SERVE_SHARD_SERVICE_H_

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "ipc/message.h"
#include "ipc/pipe.h"
#include "ipc/shard_rpc.h"
#include "serve/server.h"
#include "util/status.h"

namespace cafc::serve {

/// \brief The shard end of the scatter-gather service: an ipc::ShardHandler
/// that answers Classify/Search/Stats/Epoch out of one DirectoryServer.
///
/// The handler owns the local->global section translation: the RPC speaks
/// *global* section indices (so the router can merge rankings without
/// knowing the partition), while the wrapped server scores its local
/// projection. Thread-safe — handlers may be driven by any number of
/// ServeLoop threads; DirectoryServer::Query does the synchronization.
///
/// After a local refresh reshapes the shard's sections the frozen mapping
/// no longer describes them. Only a local index past its end fails
/// Internal. A refresh that empties an interior section drops it and
/// renumbers the later sections by position, so each of those answers
/// under its neighbour's global id, with no error. Re-partitioning
/// rebuilds the mapping; ROADMAP's "Stable section ids" item tracks the
/// fix (see docs/sharding.md).
class DirectoryShardService : public ipc::ShardHandler {
 public:
  /// `server` must outlive the service. `global_sections[i]` is the
  /// global index of the server's section i.
  DirectoryShardService(DirectoryServer* server,
                        std::vector<uint32_t> global_sections,
                        uint32_t shard_id, uint32_t num_shards);

  Result<ipc::ClassifyResponse> HandleClassify(
      const ipc::ClassifyRequest& request) override;
  Result<ipc::SearchResponse> HandleSearch(
      const ipc::SearchRequest& request) override;
  Result<ServerStats> HandleStats(
      const ipc::StatsRequest& request) override;
  Result<ipc::EpochResponse> HandleEpoch(
      const ipc::EpochRequest& request) override;

 private:
  Result<int64_t> ToGlobal(int local_entry) const;

  DirectoryServer* server_;
  std::vector<uint32_t> global_sections_;
  uint32_t shard_id_;
  uint32_t num_shards_;
};

/// \brief Drives a handler over one pipe endpoint with `threads` service
/// threads — N-way request concurrency per shard (responses carry request
/// ids, so out-of-order completion is part of the protocol).
///
/// Owns the endpoint; Shutdown (or destruction) closes it and joins the
/// threads. The handler must outlive the host.
class ShardServiceHost {
 public:
  ShardServiceHost(std::unique_ptr<ipc::MessagePipe> pipe,
                   ipc::ShardHandler* handler, size_t threads);
  ~ShardServiceHost();

  ShardServiceHost(const ShardServiceHost&) = delete;
  ShardServiceHost& operator=(const ShardServiceHost&) = delete;

  /// Closes the pipe (clients see Unavailable) and joins. Idempotent.
  void Shutdown();

 private:
  std::unique_ptr<ipc::MessagePipe> pipe_;
  std::vector<std::thread> threads_;
  bool shut_down_ = false;
};

}  // namespace cafc::serve

#endif  // CAFC_SERVE_SHARD_SERVICE_H_
