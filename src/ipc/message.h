#ifndef CAFC_IPC_MESSAGE_H_
#define CAFC_IPC_MESSAGE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/form_page.h"
#include "forms/form_page_model.h"
#include "ipc/message_defs.h"
#include "ipc/server_stats.h"
#include "util/status.h"
#include "util/varint.h"

namespace cafc::ipc {

/// \brief Typed request/response messages of the shard RPC, generated
/// from the descriptor table in `message_defs.h`.
///
/// Encoding reuses the snapshot codec primitives (LEB128 varints,
/// fixed-width little-endian doubles as IEEE-754 bit patterns) so the wire
/// is portable across hosts and every double survives bit-exactly — the
/// scatter-gather bit-identity gates depend on similarities not being
/// round-tripped through decimal. Every DecodeFrom runs against a
/// bounds-checked ByteReader over an untrusted payload: truncation and
/// garbage fail with a clean Status, never a crash.

/// Protocol method ids (wire values from the descriptor table).
enum class MethodId : uint32_t {
#define CAFC_IPC_METHOD_ENUM(Name, id, Req, Resp) k##Name = id,
  CAFC_IPC_METHOD_LIST(CAFC_IPC_METHOD_ENUM)
#undef CAFC_IPC_METHOD_ENUM
};

/// Human-readable method name ("Classify", ...; "unknown" otherwise).
const char* MethodName(MethodId method);

/// True when `value` is a method id in the descriptor table.
bool IsKnownMethod(uint32_t value);

/// \brief A form-page document flattened for the wire.
///
/// Term occurrences are encoded against a per-message string table of the
/// document's unique terms, so the wire never depends on either side's
/// dictionary ids. The receiver reconstructs a FormPageDocument backed by
/// a fresh private dictionary; classification then runs through
/// `WeighNewDocument`'s by-string translation, which makes the resulting
/// weights bit-identical to weighing the sender's original document.
struct WireDocument {
  std::string url;
  /// Unique terms referenced by the occurrence streams.
  std::vector<std::string> terms;
  /// (string-table index, location) per occurrence, both spaces.
  std::vector<std::pair<uint32_t, uint8_t>> page_occurrences;
  std::vector<std::pair<uint32_t, uint8_t>> form_occurrences;

  /// Flattens `doc` (terms resolved through its dictionary).
  static WireDocument FromDocument(const forms::FormPageDocument& doc);
  /// Rebuilds a document with a fresh private dictionary.
  forms::FormPageDocument ToDocument() const;

  void EncodeTo(std::string* out) const;
  Status DecodeFrom(util::ByteReader* reader);
};

/// One ranked (section, similarity) pair; `entry` is a *global* section
/// index — shard services translate their local indices before answering.
struct WireHit {
  int64_t entry = -1;
  double similarity = 0.0;
};

struct ClassifyRequest {
  WireDocument doc;
  ContentConfig config = ContentConfig::kFcPlusPc;
  double deadline_ms = 0.0;

  void EncodeTo(std::string* out) const;
  Status DecodeFrom(util::ByteReader* reader);
};

struct ClassifyResponse {
  WireHit best;  ///< global section index, -1 when the shard is empty
  uint64_t snapshot_version = 0;
  uint64_t corpus_epoch = 0;

  void EncodeTo(std::string* out) const;
  Status DecodeFrom(util::ByteReader* reader);
};

struct SearchRequest {
  std::string query;
  uint64_t top_k = 5;
  double deadline_ms = 0.0;

  void EncodeTo(std::string* out) const;
  Status DecodeFrom(util::ByteReader* reader);
};

struct SearchResponse {
  std::vector<WireHit> hits;  ///< shard-local ranking, global indices
  uint64_t snapshot_version = 0;
  uint64_t corpus_epoch = 0;

  void EncodeTo(std::string* out) const;
  Status DecodeFrom(util::ByteReader* reader);
};

struct StatsRequest {
  void EncodeTo(std::string* out) const;
  Status DecodeFrom(util::ByteReader* reader);
};

struct EpochRequest {
  void EncodeTo(std::string* out) const;
  Status DecodeFrom(util::ByteReader* reader);
};

struct EpochResponse {
  uint32_t shard_id = 0;
  uint32_t num_shards = 1;
  uint64_t snapshot_version = 0;
  uint64_t corpus_epoch = 0;
  uint64_t sections = 0;  ///< sections this shard hosts

  void EncodeTo(std::string* out) const;
  Status DecodeFrom(util::ByteReader* reader);
};

/// \brief Request envelope: id + method, then the method's payload.
struct RequestEnvelope {
  uint64_t request_id = 0;
  MethodId method = MethodId::kClassify;
  std::string payload;  ///< encoded request message

  void EncodeTo(std::string* out) const;
  Status DecodeFrom(util::ByteReader* reader);
};

/// \brief Response envelope: echoes the request id (responses may arrive
/// out of order under pipelining) and carries the shard-side status.
struct ResponseEnvelope {
  uint64_t request_id = 0;
  MethodId method = MethodId::kClassify;
  uint32_t status_code = 0;  ///< StatusCode as uint32
  std::string status_message;
  std::string payload;  ///< encoded response message; empty on error

  Status status() const;

  void EncodeTo(std::string* out) const;
  Status DecodeFrom(util::ByteReader* reader);
};

}  // namespace cafc::ipc

#endif  // CAFC_IPC_MESSAGE_H_
