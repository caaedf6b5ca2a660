#include "ipc/server_stats.h"

#include <algorithm>

namespace cafc::ipc {
namespace {

// Merge rules, one per row kind (selected by name: Merge##Kind).
void MergeCounter(uint64_t* into, uint64_t from) { *into += from; }
void MergePeak(uint64_t* into, uint64_t from) {
  *into = std::max(*into, from);
}
void MergeFlag(bool* into, bool from) { *into = *into || from; }
void MergeGauge(uint64_t* into, uint64_t from) { *into += from; }
void MergeHistogram(util::Histogram* into, const util::Histogram& from) {
  into->Merge(from);
}
void MergeHistograms(stats_kind::Histograms* into,
                     const stats_kind::Histograms& from) {
  for (size_t band = 0; band < into->size(); ++band) {
    (*into)[band].Merge(from[band]);
  }
}

// Wire rules, one per member type: varints for integers and the flag,
// Histogram's own bit-exact encoding for histograms.
void PutField(std::string* out, uint64_t value) {
  util::PutVarint64(out, value);
}
void PutField(std::string* out, bool value) {
  util::PutVarint64(out, value ? 1 : 0);
}
void PutField(std::string* out, const util::Histogram& histogram) {
  histogram.EncodeTo(out);
}
void PutField(std::string* out, const stats_kind::Histograms& histograms) {
  for (const util::Histogram& histogram : histograms) {
    histogram.EncodeTo(out);
  }
}

Status ReadField(util::ByteReader* reader, uint64_t* value) {
  return reader->ReadVarint64(value);
}
Status ReadField(util::ByteReader* reader, bool* value) {
  uint64_t raw = 0;
  Status status = reader->ReadVarint64(&raw);
  if (!status.ok()) return status;
  if (raw > 1) {
    return Status::ParseError("stats: invalid flag value " +
                              std::to_string(raw));
  }
  *value = raw == 1;
  return Status::OK();
}
Status ReadField(util::ByteReader* reader, util::Histogram* histogram) {
  if (!histogram->DecodeFrom(reader)) {
    return Status::ParseError("stats: malformed histogram encoding");
  }
  return Status::OK();
}
Status ReadField(util::ByteReader* reader,
                 stats_kind::Histograms* histograms) {
  for (util::Histogram& histogram : *histograms) {
    Status status = ReadField(reader, &histogram);
    if (!status.ok()) return status;
  }
  return Status::OK();
}

}  // namespace

void ServerStats::Merge(const ServerStats& other) {
#define CAFC_IPC_STATS_MERGE(Kind, name) Merge##Kind(&name, other.name);
  CAFC_IPC_SERVER_STATS(CAFC_IPC_STATS_MERGE)
#undef CAFC_IPC_STATS_MERGE
}

void ServerStats::EncodeTo(std::string* out) const {
#define CAFC_IPC_STATS_ENCODE(Kind, name) PutField(out, name);
  CAFC_IPC_SERVER_STATS(CAFC_IPC_STATS_ENCODE)
#undef CAFC_IPC_STATS_ENCODE
}

Status ServerStats::DecodeFrom(util::ByteReader* reader) {
#define CAFC_IPC_STATS_DECODE(Kind, name)                 \
  if (Status status = ReadField(reader, &name); !status.ok()) { \
    return status;                                        \
  }
  CAFC_IPC_SERVER_STATS(CAFC_IPC_STATS_DECODE)
#undef CAFC_IPC_STATS_DECODE
  return Status::OK();
}

}  // namespace cafc::ipc
