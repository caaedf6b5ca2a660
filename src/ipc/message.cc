#include "ipc/message.h"

#include <cassert>
#include <cstring>
#include <unordered_map>
#include <utility>

#include "vsm/term_dictionary.h"
#include "vsm/weighting.h"

namespace cafc::ipc {
namespace {

/// Doubles travel as IEEE-754 bit patterns in fixed64 — decimal
/// round-trips would break the scatter-gather bit-identity gates.
void PutDouble(std::string* out, double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  util::PutFixed64(out, bits);
}

Status ReadDouble(util::ByteReader* reader, double* value) {
  uint64_t bits = 0;
  Status status = reader->ReadFixed64(&bits);
  if (!status.ok()) return status;
  std::memcpy(value, &bits, sizeof(*value));
  return Status::OK();
}

void PutString(std::string* out, std::string_view s) {
  util::PutVarint64(out, s.size());
  out->append(s);
}

Status ReadString(util::ByteReader* reader, std::string* s) {
  uint64_t size = 0;
  Status status = reader->ReadVarint64(&size);
  if (!status.ok()) return status;
  std::string_view bytes;
  status = reader->ReadBytes(size, &bytes);  // bounds-checked: no hostile
  if (!status.ok()) return status;           // length can over-allocate
  s->assign(bytes);
  return Status::OK();
}

void PutZigzag(std::string* out, int64_t value) {
  util::PutVarint64(out, (static_cast<uint64_t>(value) << 1) ^
                             static_cast<uint64_t>(value >> 63));
}

Status ReadZigzag(util::ByteReader* reader, int64_t* value) {
  uint64_t raw = 0;
  Status status = reader->ReadVarint64(&raw);
  if (!status.ok()) return status;
  *value = static_cast<int64_t>((raw >> 1) ^ (~(raw & 1) + 1));
  return Status::OK();
}

void PutOccurrences(
    std::string* out,
    const std::vector<std::pair<uint32_t, uint8_t>>& occurrences) {
  util::PutVarint64(out, occurrences.size());
  for (const auto& [index, location] : occurrences) {
    util::PutVarint32(out, index);
    util::PutVarint32(out, location);
  }
}

Status ReadOccurrences(
    util::ByteReader* reader, size_t num_terms,
    std::vector<std::pair<uint32_t, uint8_t>>* occurrences) {
  uint64_t count = 0;
  Status status = reader->ReadVarint64(&count);
  if (!status.ok()) return status;
  occurrences->clear();
  // No reserve(count): a hostile count must not drive allocation. Each
  // decoded element consumes >= 2 reader bytes, so growth is bounded by
  // the (already capped) payload size.
  for (uint64_t i = 0; i < count; ++i) {
    uint32_t index = 0;
    uint32_t location = 0;
    status = reader->ReadVarint32(&index);
    if (!status.ok()) return status;
    status = reader->ReadVarint32(&location);
    if (!status.ok()) return status;
    if (index >= num_terms) {
      return Status::ParseError(
          "wire document: occurrence references string-table index " +
          std::to_string(index) + " of " + std::to_string(num_terms));
    }
    if (location >= static_cast<uint32_t>(vsm::Location::kMaxLocation)) {
      return Status::ParseError("wire document: invalid location " +
                                std::to_string(location));
    }
    occurrences->emplace_back(index, static_cast<uint8_t>(location));
  }
  return Status::OK();
}

void PutHits(std::string* out, const std::vector<WireHit>& hits) {
  util::PutVarint64(out, hits.size());
  for (const WireHit& hit : hits) {
    PutZigzag(out, hit.entry);
    PutDouble(out, hit.similarity);
  }
}

Status ReadHits(util::ByteReader* reader, std::vector<WireHit>* hits) {
  uint64_t count = 0;
  Status status = reader->ReadVarint64(&count);
  if (!status.ok()) return status;
  hits->clear();
  for (uint64_t i = 0; i < count; ++i) {
    WireHit hit;
    status = ReadZigzag(reader, &hit.entry);
    if (!status.ok()) return status;
    status = ReadDouble(reader, &hit.similarity);
    if (!status.ok()) return status;
    hits->push_back(hit);
  }
  return Status::OK();
}

Status MakeStatus(uint32_t code, std::string message) {
  switch (static_cast<StatusCode>(code)) {
    case StatusCode::kOk: return Status::OK();
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(std::move(message));
    case StatusCode::kNotFound: return Status::NotFound(std::move(message));
    case StatusCode::kOutOfRange:
      return Status::OutOfRange(std::move(message));
    case StatusCode::kParseError:
      return Status::ParseError(std::move(message));
    case StatusCode::kFailedPrecondition:
      return Status::FailedPrecondition(std::move(message));
    case StatusCode::kInternal: return Status::Internal(std::move(message));
    case StatusCode::kUnavailable:
      return Status::Unavailable(std::move(message));
    case StatusCode::kDeadlineExceeded:
      return Status::DeadlineExceeded(std::move(message));
  }
  return Status::Internal("unknown remote status code " +
                          std::to_string(code) + ": " + message);
}

}  // namespace

const char* MethodName(MethodId method) {
  switch (method) {
#define CAFC_IPC_METHOD_NAME(Name, id, Req, Resp) \
  case MethodId::k##Name:                         \
    return #Name;
    CAFC_IPC_METHOD_LIST(CAFC_IPC_METHOD_NAME)
#undef CAFC_IPC_METHOD_NAME
  }
  return "unknown";
}

bool IsKnownMethod(uint32_t value) {
  switch (static_cast<MethodId>(value)) {
#define CAFC_IPC_METHOD_KNOWN(Name, id, Req, Resp) case MethodId::k##Name:
    CAFC_IPC_METHOD_LIST(CAFC_IPC_METHOD_KNOWN)
#undef CAFC_IPC_METHOD_KNOWN
    return true;
  }
  return false;
}

WireDocument WireDocument::FromDocument(const forms::FormPageDocument& doc) {
  assert(doc.dictionary != nullptr &&
         "wire documents flatten terms by string");
  WireDocument wire;
  wire.url = doc.url;
  std::unordered_map<vsm::TermId, uint32_t> table;
  auto flatten = [&](const std::vector<vsm::InternedTerm>& occurrences,
                     std::vector<std::pair<uint32_t, uint8_t>>* out) {
    out->reserve(occurrences.size());
    for (const vsm::InternedTerm& t : occurrences) {
      auto [it, inserted] =
          table.emplace(t.term, static_cast<uint32_t>(wire.terms.size()));
      if (inserted) wire.terms.push_back(doc.dictionary->term(t.term));
      out->emplace_back(it->second,
                        static_cast<uint8_t>(t.location));
    }
  };
  flatten(doc.page_terms, &wire.page_occurrences);
  flatten(doc.form_terms, &wire.form_occurrences);
  return wire;
}

forms::FormPageDocument WireDocument::ToDocument() const {
  forms::FormPageDocument doc;
  doc.url = url;
  auto dictionary = std::make_shared<vsm::TermDictionary>();
  for (const std::string& term : terms) dictionary->Intern(term);
  auto expand = [&](const std::vector<std::pair<uint32_t, uint8_t>>& wire,
                    std::vector<vsm::InternedTerm>* out) {
    out->reserve(wire.size());
    for (const auto& [index, location] : wire) {
      out->push_back({static_cast<vsm::TermId>(index),
                      static_cast<vsm::Location>(location)});
    }
  };
  expand(page_occurrences, &doc.page_terms);
  expand(form_occurrences, &doc.form_terms);
  doc.dictionary = std::move(dictionary);
  return doc;
}

void WireDocument::EncodeTo(std::string* out) const {
  PutString(out, url);
  util::PutVarint64(out, terms.size());
  for (const std::string& term : terms) PutString(out, term);
  PutOccurrences(out, page_occurrences);
  PutOccurrences(out, form_occurrences);
}

Status WireDocument::DecodeFrom(util::ByteReader* reader) {
  Status status = ReadString(reader, &url);
  if (!status.ok()) return status;
  uint64_t num_terms = 0;
  status = reader->ReadVarint64(&num_terms);
  if (!status.ok()) return status;
  terms.clear();
  for (uint64_t i = 0; i < num_terms; ++i) {
    std::string term;
    status = ReadString(reader, &term);
    if (!status.ok()) return status;
    terms.push_back(std::move(term));
  }
  status = ReadOccurrences(reader, terms.size(), &page_occurrences);
  if (!status.ok()) return status;
  return ReadOccurrences(reader, terms.size(), &form_occurrences);
}

void ClassifyRequest::EncodeTo(std::string* out) const {
  doc.EncodeTo(out);
  util::PutVarint32(out, static_cast<uint32_t>(config));
  PutDouble(out, deadline_ms);
}

Status ClassifyRequest::DecodeFrom(util::ByteReader* reader) {
  Status status = doc.DecodeFrom(reader);
  if (!status.ok()) return status;
  uint32_t raw_config = 0;
  status = reader->ReadVarint32(&raw_config);
  if (!status.ok()) return status;
  if (raw_config > static_cast<uint32_t>(ContentConfig::kFcPlusPc)) {
    return Status::ParseError("classify: invalid content config " +
                              std::to_string(raw_config));
  }
  config = static_cast<ContentConfig>(raw_config);
  return ReadDouble(reader, &deadline_ms);
}

void ClassifyResponse::EncodeTo(std::string* out) const {
  PutZigzag(out, best.entry);
  PutDouble(out, best.similarity);
  util::PutVarint64(out, snapshot_version);
  util::PutVarint64(out, corpus_epoch);
}

Status ClassifyResponse::DecodeFrom(util::ByteReader* reader) {
  Status status = ReadZigzag(reader, &best.entry);
  if (!status.ok()) return status;
  status = ReadDouble(reader, &best.similarity);
  if (!status.ok()) return status;
  status = reader->ReadVarint64(&snapshot_version);
  if (!status.ok()) return status;
  return reader->ReadVarint64(&corpus_epoch);
}

void SearchRequest::EncodeTo(std::string* out) const {
  PutString(out, query);
  util::PutVarint64(out, top_k);
  PutDouble(out, deadline_ms);
}

Status SearchRequest::DecodeFrom(util::ByteReader* reader) {
  Status status = ReadString(reader, &query);
  if (!status.ok()) return status;
  status = reader->ReadVarint64(&top_k);
  if (!status.ok()) return status;
  return ReadDouble(reader, &deadline_ms);
}

void SearchResponse::EncodeTo(std::string* out) const {
  PutHits(out, hits);
  util::PutVarint64(out, snapshot_version);
  util::PutVarint64(out, corpus_epoch);
}

Status SearchResponse::DecodeFrom(util::ByteReader* reader) {
  Status status = ReadHits(reader, &hits);
  if (!status.ok()) return status;
  status = reader->ReadVarint64(&snapshot_version);
  if (!status.ok()) return status;
  return reader->ReadVarint64(&corpus_epoch);
}

void StatsRequest::EncodeTo(std::string*) const {}

Status StatsRequest::DecodeFrom(util::ByteReader*) {
  return Status::OK();
}

void EpochRequest::EncodeTo(std::string*) const {}

Status EpochRequest::DecodeFrom(util::ByteReader*) {
  return Status::OK();
}

void EpochResponse::EncodeTo(std::string* out) const {
  util::PutVarint32(out, shard_id);
  util::PutVarint32(out, num_shards);
  util::PutVarint64(out, snapshot_version);
  util::PutVarint64(out, corpus_epoch);
  util::PutVarint64(out, sections);
}

Status EpochResponse::DecodeFrom(util::ByteReader* reader) {
  Status status = reader->ReadVarint32(&shard_id);
  if (!status.ok()) return status;
  status = reader->ReadVarint32(&num_shards);
  if (!status.ok()) return status;
  status = reader->ReadVarint64(&snapshot_version);
  if (!status.ok()) return status;
  status = reader->ReadVarint64(&corpus_epoch);
  if (!status.ok()) return status;
  return reader->ReadVarint64(&sections);
}

void RequestEnvelope::EncodeTo(std::string* out) const {
  util::PutVarint64(out, request_id);
  util::PutVarint32(out, static_cast<uint32_t>(method));
  out->append(payload);
}

Status RequestEnvelope::DecodeFrom(util::ByteReader* reader) {
  Status status = reader->ReadVarint64(&request_id);
  if (!status.ok()) return status;
  uint32_t raw_method = 0;
  status = reader->ReadVarint32(&raw_method);
  if (!status.ok()) return status;
  if (!IsKnownMethod(raw_method)) {
    return Status::ParseError("request envelope: unknown method id " +
                              std::to_string(raw_method));
  }
  method = static_cast<MethodId>(raw_method);
  std::string_view rest;
  status = reader->ReadBytes(reader->remaining(), &rest);
  if (!status.ok()) return status;
  payload.assign(rest);
  return Status::OK();
}

Status ResponseEnvelope::status() const {
  return MakeStatus(status_code, status_message);
}

void ResponseEnvelope::EncodeTo(std::string* out) const {
  util::PutVarint64(out, request_id);
  util::PutVarint32(out, static_cast<uint32_t>(method));
  util::PutVarint32(out, status_code);
  PutString(out, status_message);
  out->append(payload);
}

Status ResponseEnvelope::DecodeFrom(util::ByteReader* reader) {
  Status status = reader->ReadVarint64(&request_id);
  if (!status.ok()) return status;
  uint32_t raw_method = 0;
  status = reader->ReadVarint32(&raw_method);
  if (!status.ok()) return status;
  if (!IsKnownMethod(raw_method)) {
    return Status::ParseError("response envelope: unknown method id " +
                              std::to_string(raw_method));
  }
  method = static_cast<MethodId>(raw_method);
  status = reader->ReadVarint32(&status_code);
  if (!status.ok()) return status;
  status = ReadString(reader, &status_message);
  if (!status.ok()) return status;
  std::string_view rest;
  status = reader->ReadBytes(reader->remaining(), &rest);
  if (!status.ok()) return status;
  payload.assign(rest);
  return Status::OK();
}

}  // namespace cafc::ipc
