#include "knn/quality.h"

#include <gtest/gtest.h>

#include "knn/brute_force.h"
#include "knn/similarity_provider.h"
#include "testing/test_util.h"

namespace gf {
namespace {

TEST(QualityTest, AverageExactSimilarityHandValue) {
  const Dataset d = testing::TinyDataset();
  NeighborLists lists(4, 1);
  lists.Insert(0, 2, 0.0);  // stored similarity is ignored by the metric
  lists.Insert(1, 0, 0.0);
  const KnnGraph g = lists.Finalize();
  // Edges: (0,2) exact J = 1, (1,0) exact J = 1/3. Mean = 2/3.
  EXPECT_NEAR(AverageExactSimilarity(g, d), (1.0 + 1.0 / 3.0) / 2, 1e-9);
}

TEST(QualityTest, EmptyGraphScoresZero) {
  const Dataset d = testing::TinyDataset();
  NeighborLists lists(4, 2);
  const KnnGraph g = lists.Finalize();
  EXPECT_DOUBLE_EQ(AverageExactSimilarity(g, d), 0.0);
}

TEST(QualityTest, ExactGraphHasQualityOne) {
  const Dataset d = testing::SmallSynthetic(100);
  ExactJaccardProvider provider(d);
  const KnnGraph exact = BruteForceKnn(provider, 5).value();
  const double avg = AverageExactSimilarity(exact, d);
  EXPECT_DOUBLE_EQ(GraphQuality(avg, avg), 1.0);
}

TEST(QualityTest, GraphQualityZeroDenominator) {
  EXPECT_DOUBLE_EQ(GraphQuality(0.5, 0.0), 0.0);
}

TEST(QualityTest, ParallelAverageMatchesSequential) {
  const Dataset d = testing::SmallSynthetic(200);
  ExactJaccardProvider provider(d);
  const KnnGraph g = BruteForceKnn(provider, 5).value();
  ThreadPool pool(4);
  EXPECT_DOUBLE_EQ(AverageExactSimilarity(g, d, nullptr),
                   AverageExactSimilarity(g, d, &pool));
}

TEST(QualityTest, PerUserQualityOfExactGraphIsAllOnes) {
  const Dataset d = testing::SmallSynthetic(80);
  ExactJaccardProvider provider(d);
  const KnnGraph g = BruteForceKnn(provider, 5).value();
  const auto q = ComputePerUserQuality(g, g, d);
  EXPECT_FALSE(q.values.empty());
  EXPECT_NEAR(q.mean, 1.0, 1e-9);
  EXPECT_NEAR(q.min, 1.0, 1e-9);
  EXPECT_NEAR(q.p10, 1.0, 1e-9);
  EXPECT_NEAR(q.p50, 1.0, 1e-9);
}

TEST(QualityTest, PerUserQualityDetectsCollapsedNeighborhood) {
  const Dataset d = testing::SmallSynthetic(80);
  ExactJaccardProvider provider(d);
  const KnnGraph exact = BruteForceKnn(provider, 5).value();
  // Approx graph: user 0 gets garbage (empty row), others exact.
  NeighborLists lists(d.NumUsers(), 5);
  for (UserId u = 1; u < d.NumUsers(); ++u) {
    for (const auto& nb : exact.NeighborsOf(u)) {
      lists.Insert(u, nb.id, nb.similarity);
    }
  }
  const auto q = ComputePerUserQuality(lists.Finalize(), exact, d);
  EXPECT_NEAR(q.min, 0.0, 1e-9);  // user 0's collapse is visible
  EXPECT_GT(q.p50, 0.99);        // while the median stays perfect
  EXPECT_LT(q.mean, 1.0);
}

TEST(QualityTest, PerUserQualitySkipsZeroSimilarityUsers) {
  // Disjoint profiles: every exact neighborhood has similarity 0, so no
  // user is scored.
  auto d = Dataset::FromProfiles({{0}, {1}, {2}}, 3);
  ASSERT_TRUE(d.ok());
  ExactJaccardProvider provider(*d);
  const KnnGraph g = BruteForceKnn(provider, 2).value();
  const auto q = ComputePerUserQuality(g, g, *d);
  EXPECT_TRUE(q.values.empty());
  EXPECT_DOUBLE_EQ(q.mean, 0.0);
}

TEST(QualityTest, NeighborRecallIdenticalGraphsIsOne) {
  const Dataset d = testing::SmallSynthetic(80);
  ExactJaccardProvider provider(d);
  const KnnGraph g = BruteForceKnn(provider, 5).value();
  EXPECT_DOUBLE_EQ(NeighborRecall(g, g), 1.0);
}

TEST(QualityTest, NeighborRecallDisjointGraphsIsZero) {
  NeighborLists a(3, 1), b(3, 1);
  a.Insert(0, 1, 0.5);
  b.Insert(0, 2, 0.5);
  EXPECT_DOUBLE_EQ(NeighborRecall(a.Finalize(), b.Finalize()), 0.0);
}

TEST(QualityTest, NeighborRecallPartialOverlap) {
  NeighborLists approx(1, 4), exact(1, 4);
  for (UserId v : {1u, 2u, 3u, 4u}) exact.Insert(0, v, 0.5);
  for (UserId v : {1u, 2u, 7u, 8u}) approx.Insert(0, v, 0.5);
  EXPECT_DOUBLE_EQ(NeighborRecall(approx.Finalize(), exact.Finalize()), 0.5);
}

TEST(QualityTest, RecallOfEmptyExactGraphIsZero) {
  NeighborLists empty(2, 1), approx(2, 1);
  approx.Insert(0, 1, 0.3);
  EXPECT_DOUBLE_EQ(NeighborRecall(approx.Finalize(), empty.Finalize()), 0.0);
}

}  // namespace
}  // namespace gf
