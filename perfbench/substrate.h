#ifndef CAFC_PERFBENCH_SUBSTRATE_H_
#define CAFC_PERFBENCH_SUBSTRATE_H_

// Seeded inputs of the workloads (synthetic webs, held-out documents,
// growth batches, query pools) and the serial oracle helpers every
// workload checks its answers against.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/corpus.h"
#include "core/directory.h"
#include "core/ingest.h"
#include "web/synthesizer.h"

namespace cafc::perfbench {

/// Paper scale: 454 form pages, 8 sections.
inline constexpr int kPaperPages = 454;
inline constexpr int kSections = 8;
/// CAFC-CH's minimum hub-cluster cardinality (the paper's best setting).
inline constexpr size_t kMinHubCardinality = 8;

/// Independent, reproducible sub-seed `index` of stream `stream` of the
/// workload seed (splitmix64 of the three).
uint64_t SubSeed(uint64_t seed, uint64_t stream, uint64_t index);

/// A §4.1-shaped synthetic web with `form_pages` form pages and the hub
/// structure scaled to match.
web::SyntheticWeb MakeWeb(uint64_t seed, int form_pages);

/// A small web of fresh form pages: the growth batches of `refresh`.
web::SyntheticWeb MakeGrowthWeb(uint64_t seed, int form_pages);

/// Crawl + ingest. Throws std::runtime_error on failure.
CorpusBuild Ingest(const web::SyntheticWeb& web);

/// The directory of CAFC-CH (Algorithm 2) at k sections over `corpus`.
DatabaseDirectory BuildCafcChDirectory(Corpus& corpus, int k);

/// One section per site: the directory the sharded workload partitions
/// (site-hash partitioning then splits the scoring work across shards).
DatabaseDirectory BuildSiteDirectory(Corpus& corpus);

/// Form-page documents of `webs` held-out webs (never served), in crawl
/// order: the classify pool.
std::vector<forms::FormPageDocument> HeldOutDocs(uint64_t seed, int webs,
                                                 int pages_per_web);

/// Keyword queries in popularity-rank order: every section label, then
/// each label term, then each adjacent term pair.
std::vector<std::string> SearchPool(const DatabaseDirectory& directory);

/// Order-sensitive digest of a ranking (entries and similarity bits).
uint64_t HitsDigest(const std::vector<DatabaseDirectory::SearchHit>& hits);

/// Digest of everything a directory serves from: labels, members,
/// centroid weights (bits), vocabulary, IDF statistics and epoch.
uint64_t DirectoryDigest(const DatabaseDirectory& directory);

/// One oracle answer, compact: a classification or a ranking digest.
struct Answer {
  int32_t entry = -1;
  double similarity = 0.0;
  uint64_t hits_digest = 0;

  bool operator==(const Answer&) const = default;
};

/// Serial, uncached full-scan answers of `directory` for every classify
/// document and search query (top_k `top_k`).
struct OracleAnswers {
  std::vector<Answer> classify;
  std::vector<Answer> search;
};
OracleAnswers ScanOracle(const DatabaseDirectory& directory,
                         const std::vector<forms::FormPageDocument>& docs,
                         const std::vector<std::string>& queries,
                         size_t top_k);

}  // namespace cafc::perfbench

#endif  // CAFC_PERFBENCH_SUBSTRATE_H_
