#include "recommender/recommender.h"

#include <gtest/gtest.h>

#include "knn/brute_force.h"
#include "knn/similarity_provider.h"
#include "testing/test_util.h"

namespace gf {
namespace {

RecommenderConfig Config(std::size_t n = 5) {
  RecommenderConfig c;
  c.num_recommendations = n;
  return c;
}

// A dataset where user 0's sole neighbor (user 1) holds exactly one
// unknown item (4): the recommendation is fully determined.
Dataset HandDataset() {
  return Dataset::FromProfiles({{0, 1, 2}, {0, 1, 2, 4}, {5, 6, 7}}, 8)
      .value();
}

TEST(RecommenderTest, RecommendsNeighborsUnknownItems) {
  const Dataset d = HandDataset();
  ExactJaccardProvider provider(d);
  const KnnGraph g = BruteForceKnn(provider, 1).value();
  const auto recs = RecommendForUser(g, d, 0, Config());
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].item, 4u);
  // Single neighbor holding the item: score = sim/sim = 1.
  EXPECT_DOUBLE_EQ(recs[0].score, 1.0);
}

TEST(RecommenderTest, NeverRecommendsKnownItems) {
  const Dataset d = testing::SmallSynthetic(100);
  ExactJaccardProvider provider(d);
  const KnnGraph g = BruteForceKnn(provider, 10).value();
  auto all = RecommendAll(g, d, Config(10));
  ASSERT_TRUE(all.ok());
  for (UserId u = 0; u < d.NumUsers(); ++u) {
    const auto own = d.Profile(u);
    for (const auto& rec : (*all)[u]) {
      EXPECT_FALSE(
          std::binary_search(own.begin(), own.end(), rec.item))
          << "user " << u << " recommended known item " << rec.item;
    }
  }
}

TEST(RecommenderTest, ScoresAreSortedDescending) {
  const Dataset d = testing::SmallSynthetic(100);
  ExactJaccardProvider provider(d);
  const KnnGraph g = BruteForceKnn(provider, 10).value();
  auto all = RecommendAll(g, d, Config(20));
  ASSERT_TRUE(all.ok());
  for (const auto& recs : *all) {
    for (std::size_t i = 1; i < recs.size(); ++i) {
      EXPECT_GE(recs[i - 1].score, recs[i].score);
    }
  }
}

TEST(RecommenderTest, ScoresAreNormalizedWeightedVotes) {
  const Dataset d = testing::SmallSynthetic(80);
  ExactJaccardProvider provider(d);
  const KnnGraph g = BruteForceKnn(provider, 8).value();
  auto all = RecommendAll(g, d, Config(10));
  ASSERT_TRUE(all.ok());
  for (const auto& recs : *all) {
    for (const auto& rec : recs) {
      EXPECT_GE(rec.score, 0.0);
      EXPECT_LE(rec.score, 1.0 + 1e-9);
    }
  }
}

TEST(RecommenderTest, RespectsTopNLimit) {
  const Dataset d = testing::SmallSynthetic(150);
  ExactJaccardProvider provider(d);
  const KnnGraph g = BruteForceKnn(provider, 10).value();
  auto all = RecommendAll(g, d, Config(3));
  ASSERT_TRUE(all.ok());
  for (const auto& recs : *all) EXPECT_LE(recs.size(), 3u);
}

TEST(RecommenderTest, SizeMismatchRejected) {
  const Dataset d = testing::SmallSynthetic(20);
  const Dataset other = testing::SmallSynthetic(30);
  ExactJaccardProvider provider(d);
  const KnnGraph g = BruteForceKnn(provider, 3).value();
  EXPECT_FALSE(RecommendAll(g, other, Config()).ok());
}

TEST(RecommenderTest, UserWithNoNeighborsGetsNothing) {
  auto d = Dataset::FromProfiles({{0, 1}}, 4);
  ASSERT_TRUE(d.ok());
  ExactJaccardProvider provider(*d);
  const KnnGraph g = BruteForceKnn(provider, 3).value();
  const auto recs = RecommendForUser(g, *d, 0, Config());
  EXPECT_TRUE(recs.empty());
}

TEST(RecommenderTest, ZeroSimilarityNeighborsCarryNoVote) {
  // u0 and u1 are disjoint: u1 is a neighbor with similarity 0, so its
  // items must not be recommended.
  auto d = Dataset::FromProfiles({{0, 1}, {2, 3}}, 4);
  ASSERT_TRUE(d.ok());
  ExactJaccardProvider provider(*d);
  const KnnGraph g = BruteForceKnn(provider, 1).value();
  const auto recs = RecommendForUser(g, *d, 0, Config());
  EXPECT_TRUE(recs.empty());
}

TEST(RecommenderTest, ParallelEqualsSequential) {
  const Dataset d = testing::SmallSynthetic(120);
  ExactJaccardProvider provider(d);
  const KnnGraph g = BruteForceKnn(provider, 8).value();
  ThreadPool pool(4);
  auto seq = RecommendAll(g, d, Config(5), nullptr);
  auto par = RecommendAll(g, d, Config(5), &pool);
  ASSERT_TRUE(seq.ok() && par.ok());
  for (UserId u = 0; u < d.NumUsers(); ++u) {
    ASSERT_EQ((*seq)[u].size(), (*par)[u].size());
    for (std::size_t i = 0; i < (*seq)[u].size(); ++i) {
      EXPECT_EQ((*seq)[u][i].item, (*par)[u][i].item);
      EXPECT_DOUBLE_EQ((*seq)[u][i].score, (*par)[u][i].score);
    }
  }
}

}  // namespace
}  // namespace gf
