#include "serve/shard_service.h"

#include <utility>

namespace cafc::serve {

DirectoryShardService::DirectoryShardService(
    DirectoryServer* server, std::vector<uint32_t> global_sections,
    uint32_t shard_id, uint32_t num_shards)
    : server_(server),
      global_sections_(std::move(global_sections)),
      shard_id_(shard_id),
      num_shards_(num_shards) {}

Result<int64_t> DirectoryShardService::ToGlobal(int local_entry) const {
  if (local_entry < 0) return static_cast<int64_t>(-1);
  if (static_cast<size_t>(local_entry) >= global_sections_.size()) {
    return Status::Internal(
        "shard " + std::to_string(shard_id_) + ": local section " +
        std::to_string(local_entry) +
        " is outside the frozen global mapping (" +
        std::to_string(global_sections_.size()) +
        " sections at partition time) — re-partition after refresh");
  }
  return static_cast<int64_t>(
      global_sections_[static_cast<size_t>(local_entry)]);
}

Result<ipc::ClassifyResponse> DirectoryShardService::HandleClassify(
    const ipc::ClassifyRequest& request) {
  QueryRequest query;
  query.kind = QueryKind::kClassify;
  query.doc = request.doc.ToDocument();
  query.config = request.config;
  query.deadline_ms = request.deadline_ms;
  QueryResponse response = server_->Query(std::move(query));
  if (!response.status.ok()) return response.status;
  Result<int64_t> global = ToGlobal(response.classification.entry);
  if (!global.ok()) return global.status();
  ipc::ClassifyResponse wire;
  wire.best.entry = *global;
  wire.best.similarity = response.classification.similarity;
  wire.snapshot_version = response.snapshot_version;
  wire.corpus_epoch = response.corpus_epoch;
  return wire;
}

Result<ipc::SearchResponse> DirectoryShardService::HandleSearch(
    const ipc::SearchRequest& request) {
  QueryRequest query;
  query.kind = QueryKind::kSearch;
  query.query = request.query;
  query.top_k = static_cast<size_t>(request.top_k);
  query.deadline_ms = request.deadline_ms;
  QueryResponse response = server_->Query(std::move(query));
  if (!response.status.ok()) return response.status;
  ipc::SearchResponse wire;
  wire.hits.reserve(response.hits.size());
  for (const DatabaseDirectory::SearchHit& hit : response.hits) {
    Result<int64_t> global = ToGlobal(hit.entry);
    if (!global.ok()) return global.status();
    wire.hits.push_back({*global, hit.similarity});
  }
  wire.snapshot_version = response.snapshot_version;
  wire.corpus_epoch = response.corpus_epoch;
  return wire;
}

Result<ServerStats> DirectoryShardService::HandleStats(
    const ipc::StatsRequest&) {
  return server_->Stats();
}

Result<ipc::EpochResponse> DirectoryShardService::HandleEpoch(
    const ipc::EpochRequest&) {
  ipc::EpochResponse wire;
  wire.shard_id = shard_id_;
  wire.num_shards = num_shards_;
  SnapshotPtr snap = server_->snapshot();
  if (snap != nullptr) {
    wire.snapshot_version = snap->version();
    wire.corpus_epoch = snap->corpus_epoch();
    wire.sections = snap->directory().size();
  }
  return wire;
}

ShardServiceHost::ShardServiceHost(std::unique_ptr<ipc::MessagePipe> pipe,
                                   ipc::ShardHandler* handler,
                                   size_t threads)
    : pipe_(std::move(pipe)) {
  if (threads < 1) threads = 1;
  threads_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    threads_.emplace_back([pipe = pipe_.get(), handler] {
      // Per-thread loop; the pipe synchronizes Recv/Send internally. A
      // transport error ends every loop the same way a clean close does.
      (void)ipc::ServeLoop(pipe, handler);
    });
  }
}

ShardServiceHost::~ShardServiceHost() { Shutdown(); }

void ShardServiceHost::Shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  pipe_->Close();
  for (std::thread& thread : threads_) thread.join();
  threads_.clear();
}

}  // namespace cafc::serve
