// Tests of the typed message-pipe RPC: synchronous and pipelined calls
// over both transports (in-process pair and socketpair), out-of-order
// response matching, client poisoning on transport failure, hostile
// envelope bytes, and the WireDocument round trip's classify bit-identity.

#include "ipc/shard_rpc.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/cafc.h"
#include "core/corpus.h"
#include "core/directory.h"
#include "core/ingest.h"
#include "ipc/message.h"
#include "ipc/pipe.h"
#include "util/rng.h"
#include "util/varint.h"
#include "web/synthesizer.h"

namespace cafc::ipc {
namespace {

/// Deterministic toy backend: every answer is a pure function of the
/// request, so tests can verify transport fidelity without a directory.
class EchoHandler : public ShardHandler {
 public:
  Result<ClassifyResponse> HandleClassify(
      const ClassifyRequest& request) override {
    ClassifyResponse response;
    response.best.entry = static_cast<int64_t>(request.doc.terms.size());
    response.best.similarity = 0.25;
    response.snapshot_version = 7;
    response.corpus_epoch = 3;
    return response;
  }

  Result<SearchResponse> HandleSearch(
      const SearchRequest& request) override {
    if (request.query == "slow") {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    if (request.query == "fail") {
      return Status::InvalidArgument("handler rejects this query");
    }
    SearchResponse response;
    for (uint64_t i = 0; i < request.top_k; ++i) {
      response.hits.push_back(
          {static_cast<int64_t>(request.query.size() + i),
           1.0 / static_cast<double>(i + 1)});
    }
    response.snapshot_version = 7;
    response.corpus_epoch = 3;
    return response;
  }

  Result<ServerStats> HandleStats(const StatsRequest&) override {
    ServerStats response;
    response.completed = 42;
    return response;
  }

  Result<EpochResponse> HandleEpoch(const EpochRequest&) override {
    EpochResponse response;
    response.shard_id = 2;
    response.num_shards = 4;
    response.snapshot_version = 7;
    response.corpus_epoch = 3;
    response.sections = 11;
    return response;
  }
};

/// One served client over the given transport; joins the serve thread on
/// destruction.
struct Rig {
  explicit Rig(std::pair<std::unique_ptr<MessagePipe>,
                         std::unique_ptr<MessagePipe>>
                   ends,
               size_t serve_threads = 1)
      : service_pipe(std::move(ends.first)),
        client(std::move(ends.second)) {
    for (size_t i = 0; i < serve_threads; ++i) {
      loops.emplace_back(
          [this] { ServeLoop(service_pipe.get(), &handler); });
    }
  }

  ~Rig() {
    service_pipe->Close();
    client.Close();
    for (std::thread& t : loops) t.join();
  }

  EchoHandler handler;
  std::unique_ptr<MessagePipe> service_pipe;
  ShardClient client;
  std::vector<std::thread> loops;
};

SearchRequest MakeSearch(std::string query, uint64_t top_k = 3) {
  SearchRequest request;
  request.query = std::move(query);
  request.top_k = top_k;
  return request;
}

void ExerciseAllMethods(Rig& rig) {
  ClassifyRequest classify;
  classify.doc.terms = {"job", "career"};
  Result<ClassifyResponse> classified = rig.client.Classify(classify);
  ASSERT_TRUE(classified.ok()) << classified.status().ToString();
  EXPECT_EQ(classified->best.entry, 2);
  EXPECT_EQ(classified->best.similarity, 0.25);
  EXPECT_EQ(classified->snapshot_version, 7u);

  Result<SearchResponse> found = rig.client.Search(MakeSearch("hotel", 2));
  ASSERT_TRUE(found.ok());
  ASSERT_EQ(found->hits.size(), 2u);
  EXPECT_EQ(found->hits[0].entry, 5);
  EXPECT_EQ(found->hits[1].entry, 6);
  EXPECT_EQ(found->hits[1].similarity, 0.5);

  Result<ServerStats> stats = rig.client.Stats(StatsRequest{});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->completed, 42u);

  Result<EpochResponse> epoch = rig.client.Epoch(EpochRequest{});
  ASSERT_TRUE(epoch.ok());
  EXPECT_EQ(epoch->shard_id, 2u);
  EXPECT_EQ(epoch->sections, 11u);

  // A handler error travels as a status, not a transport failure.
  Result<SearchResponse> rejected = rig.client.Search(MakeSearch("fail"));
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  // And the client is NOT poisoned by it.
  EXPECT_TRUE(rig.client.Epoch(EpochRequest{}).ok());
}

TEST(ShardRpcTest, RoundTripsOverInProcessTransport) {
  Rig rig(CreateInProcessPipePair());
  ExerciseAllMethods(rig);
}

TEST(ShardRpcTest, RoundTripsOverSocketpairTransport) {
  Result<std::pair<std::unique_ptr<MessagePipe>,
                   std::unique_ptr<MessagePipe>>>
      ends = CreateSocketPipePair();
  ASSERT_TRUE(ends.ok()) << ends.status().ToString();
  Rig rig(std::move(*ends));
  ExerciseAllMethods(rig);
}

TEST(ShardRpcTest, PipelinedResponsesMatchByIdOutOfOrder) {
  // Two serve threads: the slow request holds one while the fast ones
  // complete on the other, so responses genuinely arrive out of order.
  Rig rig(CreateInProcessPipePair(), /*serve_threads=*/2);
  Result<uint64_t> slow_id = rig.client.SendSearch(MakeSearch("slow", 1));
  ASSERT_TRUE(slow_id.ok());
  std::vector<uint64_t> fast_ids;
  for (int i = 0; i < 4; ++i) {
    Result<uint64_t> id = rig.client.SendSearch(MakeSearch("fast", 1));
    ASSERT_TRUE(id.ok());
    fast_ids.push_back(*id);
  }
  // Collect the fast ones first — their responses overtook the slow one.
  for (uint64_t id : fast_ids) {
    Result<SearchResponse> response = rig.client.AwaitSearch(id);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->hits[0].entry, 4);  // strlen("fast")
  }
  Result<SearchResponse> slow = rig.client.AwaitSearch(*slow_id);
  ASSERT_TRUE(slow.ok());
  EXPECT_EQ(slow->hits[0].entry, 4);  // strlen("slow")
}

TEST(ShardRpcTest, ConcurrentCallersShareOnePipe) {
  Rig rig(CreateInProcessPipePair(), /*serve_threads=*/4);
  std::vector<std::thread> callers;
  std::atomic<int> failures{0};
  for (int c = 0; c < 8; ++c) {
    callers.emplace_back([&rig, &failures, c] {
      for (int i = 0; i < 25; ++i) {
        std::string query(static_cast<size_t>(c + 1), 'q');
        Result<SearchResponse> response =
            rig.client.Search(MakeSearch(query, 1));
        if (!response.ok() ||
            response->hits[0].entry != static_cast<int64_t>(c + 1)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ShardRpcTest, ClosedPipePoisonsOutstandingAndFutureCalls) {
  auto [service_end, client_end] = CreateInProcessPipePair();
  ShardClient client(std::move(client_end));
  // No server at all: park a pipelined call, then kill the transport.
  Result<uint64_t> parked = client.SendEpoch(EpochRequest{});
  ASSERT_TRUE(parked.ok());
  service_end->Close();
  EXPECT_EQ(client.AwaitEpoch(*parked).status().code(),
            StatusCode::kUnavailable);
  // Poisoned: every future call fails immediately with the same taxonomy.
  EXPECT_EQ(client.Epoch(EpochRequest{}).status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(client.Search(MakeSearch("job")).status().code(),
            StatusCode::kUnavailable);
}

TEST(ShardRpcTest, HostileEnvelopeBytesFailCleanly) {
  // Truncation sweep over a valid response envelope: every prefix must
  // decode to a clean error, never crash.
  ResponseEnvelope envelope;
  envelope.request_id = 99;
  envelope.method = MethodId::kSearch;
  envelope.status_code = 0;
  envelope.payload = "opaque";
  std::string wire;
  envelope.EncodeTo(&wire);
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    util::ByteReader reader(std::string_view(wire).substr(0, cut));
    ResponseEnvelope decoded;
    Status status = decoded.DecodeFrom(&reader);
    // Some prefixes happen to decode (trailing payload bytes are length-
    // prefixed, so most truncations are caught); none may crash.
    (void)status;
  }
  // The envelope's payload is "rest of frame" (the frame codec bounds
  // it), so the envelope decoder's own validation surface is the header:
  // an unknown method id must fail ParseError...
  RequestEnvelope request;
  {
    const std::string unknown_method = {0x05 /*id*/, 0x63 /*method 99*/};
    util::ByteReader reader(unknown_method);
    EXPECT_EQ(request.DecodeFrom(&reader).code(), StatusCode::kParseError);
  }
  // ...and header truncation must fail cleanly, not crash.
  for (const std::string& bytes : {std::string(), std::string(1, 0x05)}) {
    util::ByteReader reader(bytes);
    EXPECT_FALSE(request.DecodeFrom(&reader).ok());
  }
  // A truncated *inner message* behind a valid envelope fails at the
  // typed decode: chop a classify payload and decode it directly.
  ClassifyRequest classify;
  classify.doc.terms = {"alpha", "beta"};
  classify.doc.url = "http://example.com/f";
  std::string payload;
  classify.EncodeTo(&payload);
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    util::ByteReader reader(std::string_view(payload).substr(0, cut));
    ClassifyRequest decoded;
    // Most cuts are truncation errors; any that parse must not crash.
    (void)decoded.DecodeFrom(&reader);
  }
  {
    util::ByteReader reader(
        std::string_view(payload).substr(0, payload.size() / 2));
    ClassifyRequest decoded;
    EXPECT_FALSE(decoded.DecodeFrom(&reader).ok());
  }
}

TEST(ShardRpcTest, WireDocumentRoundTripClassifiesBitIdentically) {
  web::SynthesizerConfig config;
  config.seed = 11;
  config.form_pages_total = 32;
  config.single_attribute_forms = 4;
  config.homogeneous_hubs_per_domain = 20;
  config.mixed_hubs = 30;
  config.directory_hubs = 2;
  config.large_air_hotel_hubs = 2;
  web::SyntheticWeb web = web::Synthesizer(config).Generate();
  Result<CorpusBuild> built = BuildCorpus(web);
  ASSERT_TRUE(built.ok());
  Corpus corpus = std::move(built->corpus);
  Rng rng(1234);
  cluster::Clustering clustering =
      CafcC(corpus.Weighted(), 4, CafcOptions{}, &rng);
  DatabaseDirectory directory = DatabaseDirectory::Build(
      corpus.Weighted(), clustering,
      DatabaseDirectory::AutoLabels(corpus.Weighted(), clustering));

  for (const DatasetEntry& entry : corpus.entries()) {
    // Flatten for the wire, encode, decode, rebuild — then classify both
    // the original and the round-tripped document. The by-string
    // translation in WeighNewDocument makes the weights, and therefore
    // the classification, bit-identical.
    WireDocument flattened = WireDocument::FromDocument(entry.doc);
    std::string wire;
    flattened.EncodeTo(&wire);
    util::ByteReader reader(wire);
    WireDocument decoded;
    ASSERT_TRUE(decoded.DecodeFrom(&reader).ok()) << entry.doc.url;
    forms::FormPageDocument rebuilt = decoded.ToDocument();

    DatabaseDirectory::Classification original =
        directory.ClassifyDocument(entry.doc);
    DatabaseDirectory::Classification roundtripped =
        directory.ClassifyDocument(rebuilt);
    EXPECT_EQ(roundtripped.entry, original.entry) << entry.doc.url;
    EXPECT_EQ(roundtripped.similarity, original.similarity)
        << entry.doc.url;  // exact doubles
  }
}

}  // namespace
}  // namespace cafc::ipc
