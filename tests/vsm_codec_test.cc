#include "vsm/codec.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "vsm/sparse_vector.h"
#include "vsm/term_dictionary.h"

namespace cafc::vsm::codec {
namespace {

std::vector<Entry> RoundTrip(const std::vector<Entry>& entries,
                             const std::vector<double>& idf, double inv,
                             bool scaled,
                             PostingCodecStats* stats = nullptr) {
  std::string buf;
  EncodePostings(entries, idf, inv, scaled, &buf, stats);
  util::ByteReader reader(buf);
  std::vector<Entry> decoded;
  Status status = DecodePostings(&reader, idf, inv, scaled, &decoded);
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE(reader.empty()) << "trailing bytes after posting block";
  return decoded;
}

TEST(PostingCodec, EmptyBlockRoundTrips) {
  const std::vector<double> idf = {1.5, 2.5};
  EXPECT_TRUE(RoundTrip({}, idf, 1.0, false).empty());
}

TEST(PostingCodec, SingleEntryAtTermZero) {
  const std::vector<double> idf = {1.5};
  const std::vector<Entry> entries = {{0, 3.0}};  // m = 2, exact
  PostingCodecStats stats;
  EXPECT_EQ(RoundTrip(entries, idf, 1.0, false, &stats), entries);
  EXPECT_EQ(stats.quantized_weights, 1u);
  EXPECT_EQ(stats.raw_weights, 0u);
}

TEST(PostingCodec, LastVocabularyTermRoundTrips) {
  // The decoder validates ids against the vocabulary size; the last valid
  // id must pass and id == size must be rejected (tested further down).
  std::vector<double> idf(1000, 1.0);
  const TermId last = 999;
  const std::vector<Entry> entries = {{0, 1.0}, {last, 7.0}};
  EXPECT_EQ(RoundTrip(entries, idf, 1.0, false), entries);
}

TEST(PostingCodec, QuantizedPathIsBitExact) {
  // Page-vector weights are double(m) * idf by construction, so every one
  // of them must take the integer-multiplier path.
  const std::vector<double> idf = {std::log(3.0), std::log(7.0) / 2,
                                   0.875};
  std::vector<Entry> entries;
  for (TermId t = 0; t < 3; ++t) {
    entries.push_back({t, static_cast<double>(17 * (t + 1)) * idf[t]});
  }
  PostingCodecStats stats;
  const std::vector<Entry> decoded =
      RoundTrip(entries, idf, 1.0, false, &stats);
  ASSERT_EQ(decoded.size(), entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(decoded[i].weight),
              std::bit_cast<uint64_t>(entries[i].weight));
  }
  EXPECT_EQ(stats.quantized_weights, 3u);
  EXPECT_EQ(stats.delta_weights, 0u);
  EXPECT_EQ(stats.raw_weights, 0u);
}

TEST(PostingCodec, ScaledQuantizedPathMatchesCentroidExpression) {
  // Centroid weights are (double(m) * idf) * inv with inv = 1/members.
  const std::vector<double> idf = {1.25, std::log(5.0)};
  const double inv = 1.0 / 3.0;
  const std::vector<Entry> entries = {
      {0, (4.0 * idf[0]) * inv},
      {1, (9.0 * idf[1]) * inv},
  };
  PostingCodecStats stats;
  EXPECT_EQ(RoundTrip(entries, idf, inv, true, &stats), entries);
  EXPECT_EQ(stats.quantized_weights, 2u);
  EXPECT_EQ(stats.raw_weights, 0u);
}

TEST(PostingCodec, UlpDeltaPathIsBitExact) {
  // A centroid mean accumulated in a different order lands a few
  // representable doubles away from any exact reconstruction — the codec
  // must absorb that with the ulp-delta token, not the 8-byte fallback.
  const std::vector<double> idf = {std::log(11.0)};
  const double inv = 1.0 / 7.0;
  double base = (5.0 * idf[0]) * inv;
  for (int ulps : {1, -1, 3, -17, 4095}) {
    double perturbed = std::bit_cast<double>(static_cast<uint64_t>(
        static_cast<int64_t>(std::bit_cast<uint64_t>(base)) + ulps));
    PostingCodecStats stats;
    const std::vector<Entry> decoded =
        RoundTrip({{0, perturbed}}, idf, inv, true, &stats);
    ASSERT_EQ(decoded.size(), 1u);
    EXPECT_EQ(std::bit_cast<uint64_t>(decoded[0].weight),
              std::bit_cast<uint64_t>(perturbed))
        << "ulps " << ulps;
    EXPECT_EQ(stats.delta_weights + stats.quantized_weights, 1u);
    EXPECT_EQ(stats.raw_weights, 0u);
  }
}

TEST(PostingCodec, HostileWeightsFallBackToRawBitsExactly) {
  // No integer multiplier reconstructs these; raw IEEE-754 bytes must.
  const std::vector<double> idf = {1.5, 1.5, 1.5, 1.5};
  const std::vector<Entry> entries = {
      {0, 0.3},     // estimate 0.2 < 0.5: below the smallest multiplier
      {1, -2.25},   // negative weight
      {2, 1.0e300}, // estimate beyond the exact-integer range of double
      {3, 4.9e-324} // subnormal
  };
  PostingCodecStats stats;
  const std::vector<Entry> decoded =
      RoundTrip(entries, idf, 1.0, false, &stats);
  ASSERT_EQ(decoded.size(), entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(decoded[i].weight),
              std::bit_cast<uint64_t>(entries[i].weight))
        << "entry " << i;
  }
  EXPECT_EQ(stats.raw_weights, entries.size());
  EXPECT_EQ(stats.quantized_weights + stats.delta_weights, 0u);
}

TEST(PostingCodec, DecodedEntriesRebuildAnIdenticalSparseVector) {
  const std::vector<double> idf = {1.5, 2.0, 0.5};
  std::vector<Entry> entries = {{0, 3.0}, {1, 8.0}, {2, 0.25}};
  SparseVector original = SparseVector::FromSorted(entries);
  SparseVector rebuilt =
      SparseVector::FromSorted(RoundTrip(entries, idf, 1.0, false));
  EXPECT_TRUE(original == rebuilt);
  EXPECT_EQ(std::bit_cast<uint64_t>(original.Norm()),
            std::bit_cast<uint64_t>(rebuilt.Norm()));
}

TEST(PostingCodec, SkipAdvancesExactlyOneBlock) {
  const std::vector<double> idf = {1.5, 1.5, 1.5, 1.5};
  const std::vector<Entry> a = {{0, 0.3}, {1, 3.0}, {3, 4.9e-324}};
  const std::vector<Entry> b = {{2, 6.0}};
  std::string buf;
  EncodePostings(a, idf, 1.0, false, &buf);
  EncodePostings(b, idf, 1.0, false, &buf);
  util::ByteReader reader(buf);
  ASSERT_TRUE(SkipPostings(&reader).ok());
  std::vector<Entry> decoded;
  ASSERT_TRUE(DecodePostings(&reader, idf, 1.0, false, &decoded).ok());
  EXPECT_EQ(decoded, b);
  EXPECT_TRUE(reader.empty());
}

TEST(PostingCodec, RejectsCountBeyondVocabulary) {
  std::string buf;
  util::PutVarint64(&buf, 5);  // five postings in a 2-term vocabulary
  util::ByteReader reader(buf);
  std::vector<Entry> decoded;
  EXPECT_EQ(DecodePostings(&reader, {1.0, 1.0}, 1.0, false, &decoded)
                .code(),
            StatusCode::kParseError);
}

TEST(PostingCodec, RejectsNonIncreasingTermIds) {
  std::string buf;
  util::PutVarint64(&buf, 2);  // count
  util::PutVarint64(&buf, 1);  // term 1
  util::PutVarint64(&buf, 2);  // weight token (m = 1)
  util::PutVarint64(&buf, 0);  // zero delta: term 1 again
  util::PutVarint64(&buf, 2);
  util::ByteReader reader(buf);
  std::vector<Entry> decoded;
  EXPECT_EQ(DecodePostings(&reader, {1.0, 1.0}, 1.0, false, &decoded)
                .code(),
            StatusCode::kParseError);
}

TEST(PostingCodec, RejectsZeroMultiplierToken) {
  // Token 0 is the raw marker; token 1 would decode as m = 0 with a ulp
  // delta, which the encoder never emits — corruption, not a weight.
  std::string buf;
  util::PutVarint64(&buf, 1);  // count
  util::PutVarint64(&buf, 0);  // term 0
  util::PutVarint64(&buf, 1);  // weight token with m = 0
  util::PutVarint64(&buf, 2);  // zigzag delta, present for odd tokens
  util::ByteReader reader(buf);
  std::vector<Entry> decoded;
  EXPECT_EQ(DecodePostings(&reader, {1.0}, 1.0, false, &decoded).code(),
            StatusCode::kParseError);
}

TEST(PostingCodec, TruncatedBlockFailsAtEveryCutPoint) {
  const std::vector<double> idf = {1.5, 1.5};
  const std::vector<Entry> entries = {{0, 0.3}, {1, 3.0}};
  std::string buf;
  EncodePostings(entries, idf, 1.0, false, &buf);
  for (size_t keep = 0; keep < buf.size(); ++keep) {
    util::ByteReader reader(
        reinterpret_cast<const uint8_t*>(buf.data()), keep);
    std::vector<Entry> decoded;
    EXPECT_FALSE(
        DecodePostings(&reader, idf, 1.0, false, &decoded).ok())
        << "kept " << keep << " of " << buf.size();
  }
}

// ---------------------------------------------------------------- lists

std::vector<std::string> ListRoundTrip(
    const std::vector<std::string>& items) {
  std::string buf;
  EncodeFrontCodedList(items, &buf);
  util::ByteReader reader(buf);
  std::vector<std::string> decoded;
  Status status = DecodeFrontCodedList(&reader, &decoded);
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE(reader.empty());
  return decoded;
}

TEST(FrontCodedList, BoundaryShapesRoundTrip) {
  const std::vector<std::vector<std::string>> cases = {
      {},
      {""},
      {"solo"},
      {"", "", ""},
      {"a", "a", "a"},
      {"abc", "abd", "abd", "b", ""},
      {"suffix.html", "prefix.html", "x.html", ".html"},
      {std::string(300, 'q') + "1end", std::string(300, 'q') + "2end"},
  };
  for (const auto& items : cases) {
    EXPECT_EQ(ListRoundTrip(items), items);
  }
}

TEST(FrontCodedList, UrlNeighborsCompressBothEnds) {
  // The member-URL workload: same scheme and host template, same file
  // name, only the site number differs. Two-ended coding must reduce each
  // subsequent URL to a handful of bytes.
  std::vector<std::string> urls;
  for (int site = 12300; site < 12400; ++site) {
    urls.push_back("http://s" + std::to_string(site) +
                   ".stream.test/form.html");
  }
  std::string buf;
  EncodeFrontCodedList(urls, &buf);
  size_t raw_bytes = 0;
  for (const std::string& url : urls) raw_bytes += url.size();
  EXPECT_LT(buf.size() * 3, raw_bytes);  // >3x on this shape
  EXPECT_EQ(ListRoundTrip(urls), urls);
}

TEST(FrontCodedList, SkipJumpsTheWholeListAndReportsTheCount) {
  std::vector<std::string> urls = {"http://a/x", "http://b/x",
                                   "http://c/y"};
  std::string buf;
  EncodeFrontCodedList(urls, &buf);
  util::PutVarint64(&buf, 424242);  // sentinel after the list
  util::ByteReader reader(buf);
  uint64_t count = 0;
  ASSERT_TRUE(SkipFrontCodedList(&reader, &count).ok());
  EXPECT_EQ(count, urls.size());
  uint64_t sentinel = 0;
  ASSERT_TRUE(reader.ReadVarint64(&sentinel).ok());
  EXPECT_EQ(sentinel, 424242u);
  EXPECT_TRUE(reader.empty());
}

TEST(FrontCodedList, RejectsOverlappingShares) {
  // prefix + suffix beyond the previous item's length reads memory the
  // previous item does not have; the decoder must refuse.
  std::string buf;
  util::PutVarint64(&buf, 2);  // count
  std::string body;
  util::PutVarint64(&body, 0);  // item 0: "ab"
  util::PutVarint64(&body, 0);
  util::PutVarint64(&body, 2);
  body += "ab";
  util::PutVarint64(&body, 2);  // item 1: prefix 2 + suffix 1 > len("ab")
  util::PutVarint64(&body, 1);
  util::PutVarint64(&body, 0);
  util::PutVarint64(&buf, body.size());
  buf += body;
  util::ByteReader reader(buf);
  std::vector<std::string> decoded;
  EXPECT_EQ(DecodeFrontCodedList(&reader, &decoded).code(),
            StatusCode::kParseError);
}

TEST(FrontCodedList, RejectsBodyLengthMismatch) {
  std::string buf;
  EncodeFrontCodedList({"aa", "ab"}, &buf);
  // Grow the declared count without growing the body: the decoder either
  // runs past the body (caught by the final offset check) or off the end.
  std::string tampered;
  util::PutVarint64(&tampered, 3);
  tampered.append(buf.begin() + 1, buf.end());
  util::ByteReader reader(tampered);
  std::vector<std::string> decoded;
  EXPECT_FALSE(DecodeFrontCodedList(&reader, &decoded).ok());
}

TEST(FrontCodedList, TruncatedListFailsCleanly) {
  std::string buf;
  EncodeFrontCodedList({"http://a/x", "http://b/x"}, &buf);
  for (size_t keep = 0; keep < buf.size(); ++keep) {
    util::ByteReader reader(
        reinterpret_cast<const uint8_t*>(buf.data()), keep);
    std::vector<std::string> decoded;
    EXPECT_FALSE(DecodeFrontCodedList(&reader, &decoded).ok())
        << "kept " << keep;
  }
}

// ----------------------------------------------------------- dictionary

TEST(DictionaryCodec, RoundTripPreservesIdsAcrossSortReordering) {
  // Intern order (= id order) deliberately differs from string order, so
  // the sorted-on-disk layout must restore the permutation exactly.
  TermDictionary dict;
  for (const char* term : {"zebra", "apple", "mango", "aardvark", "kiwi"}) {
    dict.Intern(term);
  }
  std::string buf;
  EncodeDictionary(dict, &buf);
  util::ByteReader reader(buf);
  TermDictionary decoded;
  ASSERT_TRUE(DecodeDictionary(&reader, &decoded).ok());
  ASSERT_EQ(decoded.size(), dict.size());
  for (size_t i = 0; i < dict.size(); ++i) {
    EXPECT_EQ(decoded.term(static_cast<TermId>(i)),
              dict.term(static_cast<TermId>(i)));
  }
}

TEST(DictionaryCodec, SingleTermAndEmptyDictionaries) {
  for (size_t terms : {size_t{0}, size_t{1}}) {
    TermDictionary dict;
    if (terms == 1) dict.Intern("only");
    std::string buf;
    EncodeDictionary(dict, &buf);
    util::ByteReader reader(buf);
    TermDictionary decoded;
    ASSERT_TRUE(DecodeDictionary(&reader, &decoded).ok());
    EXPECT_EQ(decoded.size(), terms);
    if (terms == 1) {
      EXPECT_EQ(decoded.term(0), "only");
    }
  }
}

TEST(DictionaryCodec, RejectsDuplicateOrOutOfRangeIds) {
  std::string buf;
  util::PutVarint64(&buf, 2);  // two terms
  util::PutVarint64(&buf, 0);  // "aa" -> id 0
  util::PutVarint64(&buf, 2);
  buf += "aa";
  util::PutVarint64(&buf, 0);
  util::PutVarint64(&buf, 1);  // "ab" (prefix 1 + "b") -> id 0 again
  util::PutVarint64(&buf, 1);
  buf += "b";
  util::PutVarint64(&buf, 0);  // duplicate id
  util::ByteReader reader(buf);
  TermDictionary decoded;
  EXPECT_EQ(DecodeDictionary(&reader, &decoded).code(),
            StatusCode::kParseError);
}

}  // namespace
}  // namespace cafc::vsm::codec
