// Tests of the site-hash partitioning layer: deterministic assignment,
// edge cases (empty corpus, one site, more shards than sites), stability
// under corpus churn, the global-DF broadcast's weighting bit-identity,
// and the section-hosting invariants the scatter-gather merge relies on.

#include "core/partition.h"

#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/cafc.h"
#include "core/corpus.h"
#include "core/directory.h"
#include "core/ingest.h"
#include "util/rng.h"
#include "web/synthesizer.h"
#include "fixtures.h"

namespace cafc {
namespace {

using test::BuildDirectory;
using test::CorpusOf;
using test::MakeGrowthWeb;

TEST(ShardForSiteTest, DeterministicPureFunctionOfSiteAndCount) {
  for (const char* site : {"jobs.example.com", "hotel.example.org", ""}) {
    for (size_t n : {1u, 2u, 5u, 64u}) {
      size_t first = ShardForSite(site, n);
      EXPECT_LT(first, n);
      EXPECT_EQ(ShardForSite(site, n), first) << site << " n=" << n;
    }
    // One shard maps everything to shard 0.
    EXPECT_EQ(ShardForSite(site, 1), 0u);
  }
}

TEST(PlanPartitionTest, EmptyCorpusYieldsEmptyValidPlan) {
  Corpus corpus;
  PartitionPlan plan = PlanPartition(corpus, 4);
  EXPECT_EQ(plan.num_shards, 4u);
  ASSERT_EQ(plan.slots.size(), 4u);
  for (const auto& slots : plan.slots) EXPECT_TRUE(slots.empty());
}

TEST(PlanPartitionTest, SlotsPartitionTheCorpusSiteCoherently) {
  Corpus corpus = CorpusOf(MakeGrowthWeb(31, 48));
  PartitionPlan plan = PlanPartition(corpus, 3);
  std::set<size_t> seen;
  for (size_t s = 0; s < plan.slots.size(); ++s) {
    size_t previous = 0;
    bool first = true;
    for (size_t slot : plan.slots[s]) {
      // Each slot appears exactly once, ascending within its shard.
      EXPECT_TRUE(seen.insert(slot).second);
      if (!first) {
        EXPECT_GT(slot, previous);
      }
      previous = slot;
      first = false;
      // Site coherence: the slot landed on its site's hash shard.
      EXPECT_EQ(ShardForSite(corpus.entries()[slot].site, 3), s);
    }
  }
  EXPECT_EQ(seen.size(), corpus.entries().size());
}

TEST(PlanPartitionTest, AssignmentStableAcrossCorpusChurn) {
  Corpus corpus = CorpusOf(MakeGrowthWeb(31, 48));
  // Site -> shard before churn.
  std::unordered_map<std::string, size_t> before;
  PartitionPlan plan = PlanPartition(corpus, 4);
  for (size_t s = 0; s < plan.slots.size(); ++s) {
    for (size_t slot : plan.slots[s]) {
      before[corpus.entries()[slot].site] = s;
    }
  }
  // Grow and shrink the corpus; surviving sites must keep their shard.
  Corpus incoming = CorpusOf(MakeGrowthWeb(32, 16));
  ASSERT_TRUE(corpus.AddPages(incoming.TakeEntries()).ok());
  corpus.RemovePages({corpus.entries().front().doc.url});
  PartitionPlan after = PlanPartition(corpus, 4);
  for (size_t s = 0; s < after.slots.size(); ++s) {
    for (size_t slot : after.slots[s]) {
      auto it = before.find(corpus.entries()[slot].site);
      if (it != before.end()) {
        EXPECT_EQ(it->second, s) << corpus.entries()[slot].site;
      }
    }
  }
}

TEST(PartitionDirectoryTest, MoreShardsThanSitesLeavesSurplusEmptyButValid) {
  Corpus corpus = CorpusOf(MakeGrowthWeb(33, 16));
  DatabaseDirectory global = BuildDirectory(corpus, 3);
  Result<std::vector<ShardBundle>> bundles =
      PartitionDirectory(global, corpus, 64);
  ASSERT_TRUE(bundles.ok()) << bundles.status().ToString();
  ASSERT_EQ(bundles->size(), 64u);
  size_t pages = 0;
  size_t hostings = 0;
  for (const ShardBundle& bundle : *bundles) {
    EXPECT_EQ(bundle.num_shards, 64u);
    EXPECT_EQ(bundle.directory.size(), bundle.global_sections.size());
    pages += bundle.corpus.entries().size();
    hostings += bundle.directory.size();
  }
  EXPECT_EQ(pages, corpus.entries().size());
  // Every global section hosted at least once.
  EXPECT_GE(hostings, global.size());
}

TEST(PartitionDirectoryTest, EveryGlobalSectionHostedAndMembersConserved) {
  Corpus corpus = CorpusOf(MakeGrowthWeb(31, 48));
  DatabaseDirectory global = BuildDirectory(corpus);
  Result<std::vector<ShardBundle>> bundles =
      PartitionDirectory(global, corpus, 4);
  ASSERT_TRUE(bundles.ok());

  std::set<uint32_t> hosted;
  std::unordered_map<uint32_t, size_t> member_counts;
  for (const ShardBundle& bundle : *bundles) {
    for (size_t local = 0; local < bundle.global_sections.size(); ++local) {
      const uint32_t g = bundle.global_sections[local];
      hosted.insert(g);
      member_counts[g] +=
          bundle.directory.entries()[local].member_urls.size();
      // Projection invariants: label and centroid travel verbatim.
      EXPECT_EQ(bundle.directory.entries()[local].label,
                global.entries()[g].label);
      EXPECT_EQ(bundle.directory.entries()[local].centroid.pc.entries(),
                global.entries()[g].centroid.pc.entries());
      EXPECT_EQ(bundle.directory.entries()[local].centroid.fc.entries(),
                global.entries()[g].centroid.fc.entries());
    }
    // global_sections ascends (global order preserved).
    for (size_t i = 1; i < bundle.global_sections.size(); ++i) {
      EXPECT_LT(bundle.global_sections[i - 1], bundle.global_sections[i]);
    }
  }
  ASSERT_EQ(hosted.size(), global.size());
  for (size_t g = 0; g < global.size(); ++g) {
    EXPECT_EQ(member_counts[static_cast<uint32_t>(g)],
              global.entries()[g].member_urls.size())
        << "section " << g;
  }
}

TEST(PartitionDirectoryTest, DfBroadcastMakesShardWeightsBitIdentical) {
  Corpus corpus = CorpusOf(MakeGrowthWeb(31, 48));
  DatabaseDirectory global = BuildDirectory(corpus);
  Result<std::vector<ShardBundle>> bundles =
      PartitionDirectory(global, corpus, 3);
  ASSERT_TRUE(bundles.ok());

  // URL -> global weighted page.
  const FormPageSet& weighted = corpus.Weighted();
  std::unordered_map<std::string, const FormPage*> by_url;
  for (const FormPage& page : weighted.pages()) by_url[page.url] = &page;

  for (ShardBundle& bundle : *bundles) {
    const FormPageSet& shard_weighted = bundle.corpus.Weighted();
    for (const FormPage& page : shard_weighted.pages()) {
      auto it = by_url.find(page.url);
      ASSERT_NE(it, by_url.end()) << page.url;
      // The DF broadcast makes every shard page's TF-IDF vectors equal to
      // the global corpus's, entry for entry, bit for bit.
      EXPECT_EQ(page.pc.entries(), it->second->pc.entries()) << page.url;
      EXPECT_EQ(page.fc.entries(), it->second->fc.entries()) << page.url;
    }
  }
}

TEST(PartitionDirectoryTest, MergedShardClassifyEqualsGlobalClassify) {
  Corpus corpus = CorpusOf(MakeGrowthWeb(31, 48));
  DatabaseDirectory global = BuildDirectory(corpus);
  Result<std::vector<ShardBundle>> bundles =
      PartitionDirectory(global, corpus, 4);
  ASSERT_TRUE(bundles.ok());

  for (const DatasetEntry& entry : corpus.entries()) {
    DatabaseDirectory::Classification want =
        global.ClassifyDocument(entry.doc);
    // The router's merge rule, serially: best similarity, lowest global
    // index on ties, across per-shard winners.
    int best_entry = -1;
    double best_sim = 0.0;
    for (const ShardBundle& bundle : *bundles) {
      DatabaseDirectory::Classification local =
          bundle.directory.ClassifyDocument(entry.doc);
      if (local.entry < 0) continue;
      const int g = static_cast<int>(
          bundle.global_sections[static_cast<size_t>(local.entry)]);
      if (best_entry < 0 || local.similarity > best_sim ||
          (local.similarity == best_sim && g < best_entry)) {
        best_entry = g;
        best_sim = local.similarity;
      }
    }
    EXPECT_EQ(best_entry, want.entry) << entry.doc.url;
    EXPECT_EQ(best_sim, want.similarity) << entry.doc.url;  // exact
  }
}

TEST(PartitionDirectoryTest, DriftedDirectoryFailsInvalidArgument) {
  Corpus corpus = CorpusOf(MakeGrowthWeb(33, 16));
  DatabaseDirectory global = BuildDirectory(corpus, 3);
  // Remove a page that is a member of some section: the directory now
  // references a URL the corpus no longer has.
  ASSERT_FALSE(global.entries().empty());
  ASSERT_FALSE(global.entries()[0].member_urls.empty());
  corpus.RemovePages({global.entries()[0].member_urls[0]});
  Result<std::vector<ShardBundle>> bundles =
      PartitionDirectory(global, corpus, 2);
  EXPECT_EQ(bundles.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace cafc
