#include "serve/shard_router.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "core/partition.h"
#include "serve/shard_service.h"
#include "web/url.h"

namespace cafc::serve {
namespace {

/// Applies the gather outcome of one shard to the response skeleton.
/// Returns true when the shard contributed (its echo is OK).
template <typename Resp>
bool Gather(const Result<Resp>& result, ShardEcho* echo, bool* partial) {
  if (!result.ok()) {
    echo->status = result.status();
    *partial = true;
    return false;
  }
  echo->snapshot_version = result->snapshot_version;
  echo->corpus_epoch = result->corpus_epoch;
  return true;
}

/// OK when anything answered; the first shard failure otherwise.
void FinishStatus(RouterResponse* response, size_t answered) {
  if (answered > 0) return;
  for (const ShardEcho& echo : response->shards) {
    if (!echo.status.ok()) {
      response->status = echo.status;
      return;
    }
  }
  response->status = Status::Unavailable("router has no shards");
}

}  // namespace

ShardRouter::ShardRouter(
    std::vector<std::unique_ptr<ipc::ShardClient>> shards,
    RouterOptions options)
    : shards_(std::move(shards)), options_(options) {}

ShardRouter::~ShardRouter() { Close(); }

void ShardRouter::Close() {
  for (const std::unique_ptr<ipc::ShardClient>& shard : shards_) {
    shard->Close();
  }
}

RouterResponse ShardRouter::ClassifyOnShard(
    size_t shard, const ipc::ClassifyRequest& request) {
  RouterResponse response;
  response.fast_path = true;
  response.shards.resize(1);
  response.shards[0].shard_id = static_cast<uint32_t>(shard);
  Result<uint64_t> inflight = shards_[shard]->SendClassify(request);
  Result<ipc::ClassifyResponse> result =
      inflight.ok() ? shards_[shard]->AwaitClassify(*inflight)
                    : Result<ipc::ClassifyResponse>(inflight.status());
  size_t answered = 0;
  if (Gather(result, &response.shards[0], &response.partial)) {
    ++answered;
    if (result->best.entry >= 0) {
      response.classification.entry = static_cast<int>(result->best.entry);
      response.classification.similarity = result->best.similarity;
    }
  }
  FinishStatus(&response, answered);
  return response;
}

RouterResponse ShardRouter::Classify(const forms::FormPageDocument& doc,
                                     ContentConfig config,
                                     double deadline_ms) {
  ipc::ClassifyRequest request;
  request.doc = ipc::WireDocument::FromDocument(doc);
  request.config = config;
  request.deadline_ms = deadline_ms;

  if (options_.classify_fast_path && !doc.url.empty() &&
      !shards_.empty()) {
    // One RPC to the shard that owns the page's site. Exact for corpus
    // pages (see RouterOptions::classify_fast_path); URL-less documents
    // fall through to the scatter below.
    const size_t owner =
        ShardForSite(web::SiteOf(doc.url), shards_.size());
    return ClassifyOnShard(owner, request);
  }

  RouterResponse response;
  response.shards.resize(shards_.size());
  // Scatter first (sends only enqueue), so shards score concurrently ...
  std::vector<Result<uint64_t>> inflight;
  inflight.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    response.shards[s].shard_id = static_cast<uint32_t>(s);
    inflight.push_back(shards_[s]->SendClassify(request));
  }
  // ... then gather and merge under the scan's exact tie rule: strict
  // similarity improvement, lowest global index wins equals.
  size_t answered = 0;
  bool have_best = false;
  ipc::WireHit best;
  for (size_t s = 0; s < shards_.size(); ++s) {
    Result<ipc::ClassifyResponse> result =
        inflight[s].ok() ? shards_[s]->AwaitClassify(*inflight[s])
                         : Result<ipc::ClassifyResponse>(
                               inflight[s].status());
    if (!Gather(result, &response.shards[s], &response.partial)) continue;
    ++answered;
    if (result->best.entry < 0) continue;  // shard hosts no sections
    if (!have_best || result->best.similarity > best.similarity ||
        (result->best.similarity == best.similarity &&
         result->best.entry < best.entry)) {
      best = result->best;
      have_best = true;
    }
  }
  if (have_best) {
    response.classification.entry = static_cast<int>(best.entry);
    response.classification.similarity = best.similarity;
  }
  FinishStatus(&response, answered);
  return response;
}

RouterResponse ShardRouter::Search(std::string_view query, size_t top_k,
                                   double deadline_ms) {
  ipc::SearchRequest request;
  request.query = std::string(query);
  request.top_k = top_k;
  request.deadline_ms = deadline_ms;

  RouterResponse response;
  response.shards.resize(shards_.size());
  std::vector<Result<uint64_t>> inflight;
  inflight.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    response.shards[s].shard_id = static_cast<uint32_t>(s);
    inflight.push_back(shards_[s]->SendSearch(request));
  }
  size_t answered = 0;
  std::vector<DatabaseDirectory::SearchHit> merged;
  std::unordered_set<int64_t> seen;
  for (size_t s = 0; s < shards_.size(); ++s) {
    Result<ipc::SearchResponse> result =
        inflight[s].ok() ? shards_[s]->AwaitSearch(*inflight[s])
                         : Result<ipc::SearchResponse>(
                               inflight[s].status());
    if (!Gather(result, &response.shards[s], &response.partial)) continue;
    ++answered;
    for (const ipc::WireHit& hit : result->hits) {
      // A section hosted by several shards (members on each) arrives once
      // per host with a bit-identical similarity — keep the first.
      if (!seen.insert(hit.entry).second) continue;
      merged.push_back(
          {static_cast<int>(hit.entry), hit.similarity});
    }
  }
  // The same total order RankHits applies inside each shard, so merging
  // and re-truncating reproduces the single-directory ranking exactly.
  std::sort(merged.begin(), merged.end(),
            [](const DatabaseDirectory::SearchHit& a,
               const DatabaseDirectory::SearchHit& b) {
              if (a.similarity != b.similarity) {
                return a.similarity > b.similarity;
              }
              return a.entry < b.entry;
            });
  if (merged.size() > top_k) merged.resize(top_k);
  response.hits = std::move(merged);
  FinishStatus(&response, answered);
  return response;
}

std::vector<Result<ServerStats>> ShardRouter::PerShardStats() {
  std::vector<Result<uint64_t>> inflight;
  inflight.reserve(shards_.size());
  for (const std::unique_ptr<ipc::ShardClient>& shard : shards_) {
    inflight.push_back(shard->SendStats(ipc::StatsRequest{}));
  }
  std::vector<Result<ServerStats>> out;
  out.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (!inflight[s].ok()) {
      out.push_back(inflight[s].status());
      continue;
    }
    out.push_back(shards_[s]->AwaitStats(*inflight[s]));
  }
  return out;
}

Result<ServerStats> ShardRouter::Stats() {
  std::vector<Result<ServerStats>> per_shard = PerShardStats();
  ServerStats merged;
  size_t reachable = 0;
  Status first_error = Status::OK();
  for (const Result<ServerStats>& stats : per_shard) {
    if (!stats.ok()) {
      if (first_error.ok()) first_error = stats.status();
      continue;
    }
    merged.Merge(*stats);
    ++reachable;
  }
  if (reachable == 0) {
    return first_error.ok()
               ? Status::Unavailable("router has no shards")
               : first_error;
  }
  return merged;
}

std::vector<Result<ipc::EpochResponse>> ShardRouter::Epochs() {
  std::vector<Result<uint64_t>> inflight;
  inflight.reserve(shards_.size());
  for (const std::unique_ptr<ipc::ShardClient>& shard : shards_) {
    inflight.push_back(shard->SendEpoch(ipc::EpochRequest{}));
  }
  std::vector<Result<ipc::EpochResponse>> out;
  out.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (!inflight[s].ok()) {
      out.push_back(inflight[s].status());
      continue;
    }
    out.push_back(shards_[s]->AwaitEpoch(*inflight[s]));
  }
  return out;
}

}  // namespace cafc::serve
