#include "cluster/hac.h"

#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace cafc::cluster {
namespace {

/// Block-structured similarity: points i and j are similar iff they share
/// a block of size `block`, plus symmetric noise in [0, 0.05). The noise is
/// a pure function of (min(i,j), max(i,j), seed) — Rng's splitmix64
/// seeding does the mixing — so the function captures only immutable
/// state, as the SimilarityFn contract requires: Hac calls it concurrently
/// from ParallelFor workers.
SimilarityFn BlockSimilarity(size_t block, double in_sim, double out_sim,
                             uint64_t seed) {
  return [block, in_sim, out_sim, seed](size_t i, size_t j) {
    const uint64_t a = std::min(i, j);
    const uint64_t b = std::max(i, j);
    Rng noise(seed ^ (a << 32) ^ b);
    return ((i / block) == (j / block) ? in_sim : out_sim) +
           noise.UniformDouble() * 0.05;
  };
}

std::set<std::set<size_t>> Groups(const Clustering& c) {
  std::set<std::set<size_t>> out;
  for (int g = 0; g < c.num_clusters; ++g) {
    std::set<size_t> members;
    for (size_t m : c.Members(g)) members.insert(m);
    if (!members.empty()) out.insert(members);
  }
  return out;
}

class HacLinkageTest : public ::testing::TestWithParam<Linkage> {};

TEST_P(HacLinkageTest, RecoversBlocks) {
  auto sim = BlockSimilarity(5, 0.8, 0.1, 3);
  HacResult result = Hac(15, sim, 3, GetParam());
  EXPECT_EQ(result.clustering.num_clusters, 3);
  std::set<std::set<size_t>> expected = {
      {0, 1, 2, 3, 4}, {5, 6, 7, 8, 9}, {10, 11, 12, 13, 14}};
  EXPECT_EQ(Groups(result.clustering), expected);
}

TEST_P(HacLinkageTest, MergeCountIsNMinusK) {
  auto sim = BlockSimilarity(4, 0.7, 0.2, 5);
  HacResult result = Hac(12, sim, 3, GetParam());
  EXPECT_EQ(result.merges.size(), 9u);
}

INSTANTIATE_TEST_SUITE_P(Linkages, HacLinkageTest,
                         ::testing::Values(Linkage::kSingle,
                                           Linkage::kComplete,
                                           Linkage::kAverage));

TEST(HacTest, KEqualsNMeansNoMerges) {
  auto sim = BlockSimilarity(2, 0.9, 0.1, 7);
  HacResult result = Hac(4, sim, 4);
  EXPECT_TRUE(result.merges.empty());
  EXPECT_EQ(result.clustering.num_clusters, 4);
}

TEST(HacTest, KOneMergesEverything) {
  auto sim = BlockSimilarity(2, 0.9, 0.1, 9);
  HacResult result = Hac(6, sim, 1);
  EXPECT_EQ(result.clustering.num_clusters, 1);
  for (int a : result.clustering.assignment) EXPECT_EQ(a, 0);
}

TEST(HacTest, EmptyInput) {
  HacResult result = Hac(0, [](size_t, size_t) { return 0.0; }, 3);
  EXPECT_EQ(result.clustering.num_clusters, 0);
  EXPECT_TRUE(result.clustering.assignment.empty());
}

TEST(HacTest, MergesInDecreasingSimilarityForCleanData) {
  // With single linkage on clean blocks, within-block merges (high sim)
  // happen before cross-block merges.
  auto sim = BlockSimilarity(3, 0.9, 0.1, 11);
  HacResult result = Hac(9, sim, 1, Linkage::kSingle);
  ASSERT_EQ(result.merges.size(), 8u);
  // First 6 merges are within-block (similarity ~0.9); last 2 cross.
  for (size_t i = 0; i < 6; ++i) EXPECT_GT(result.merges[i].similarity, 0.5);
  for (size_t i = 6; i < 8; ++i) EXPECT_LT(result.merges[i].similarity, 0.5);
}

TEST(HacFromGroupsTest, SeedGroupsStayTogether) {
  auto sim = BlockSimilarity(4, 0.8, 0.1, 13);
  HacResult result =
      HacFromGroups(12, sim, {{0, 1, 2, 3}, {4, 5, 6, 7}}, 3);
  const Clustering& c = result.clustering;
  EXPECT_EQ(c.assignment[0], c.assignment[3]);
  EXPECT_EQ(c.assignment[4], c.assignment[7]);
  EXPECT_EQ(c.num_clusters, 3);
}

TEST(HacFromGroupsTest, LeftoversBecomeSingletonsThenMerge) {
  auto sim = BlockSimilarity(4, 0.8, 0.1, 17);
  HacResult result = HacFromGroups(12, sim, {{0, 1}}, 3);
  std::set<std::set<size_t>> expected = {
      {0, 1, 2, 3}, {4, 5, 6, 7}, {8, 9, 10, 11}};
  EXPECT_EQ(Groups(result.clustering), expected);
}

TEST(HacFromGroupsTest, DuplicatePointKeptInFirstGroup) {
  auto sim = BlockSimilarity(2, 0.8, 0.1, 19);
  HacResult result = HacFromGroups(4, sim, {{0, 1}, {1, 2}}, 2);
  // Point 1 belongs to the first group; no crash, full assignment.
  for (int a : result.clustering.assignment) EXPECT_GE(a, 0);
}

TEST(HacFromGroupsTest, OutOfRangePointsIgnored) {
  auto sim = BlockSimilarity(2, 0.8, 0.1, 23);
  HacResult result = HacFromGroups(4, sim, {{0, 99}}, 2);
  EXPECT_EQ(result.clustering.assignment.size(), 4u);
}

TEST(HacFromGroupsTest, EquivalentToHacWithSingletonGroups) {
  auto sim = BlockSimilarity(3, 0.7, 0.15, 29);
  HacResult plain = Hac(9, sim, 3, Linkage::kAverage);
  HacResult grouped = HacFromGroups(
      9, sim, {{0}, {1}, {2}, {3}, {4}, {5}, {6}, {7}, {8}}, 3,
      Linkage::kAverage);
  EXPECT_EQ(Groups(plain.clustering), Groups(grouped.clustering));
}

}  // namespace
}  // namespace cafc::cluster
