#include "knn/stats.h"

#include <gtest/gtest.h>

#include "knn/hyrec.h"
#include "knn/nndescent.h"
#include "knn/similarity_provider.h"
#include "testing/test_util.h"

namespace gf {
namespace {

TEST(KnnStatsTest, ScanRateAgainstUnorderedPairs) {
  KnnBuildStats stats;
  stats.similarity_computations = 45;  // == 10*9/2
  EXPECT_DOUBLE_EQ(stats.ScanRate(10), 1.0);
  stats.similarity_computations = 90;
  EXPECT_DOUBLE_EQ(stats.ScanRate(10), 2.0);
}

TEST(KnnStatsTest, ScanRateDegenerateUserCounts) {
  KnnBuildStats stats;
  stats.similarity_computations = 5;
  EXPECT_DOUBLE_EQ(stats.ScanRate(0), 0.0);
  EXPECT_DOUBLE_EQ(stats.ScanRate(1), 0.0);
}

TEST(KnnStatsTest, GreedyAlgorithmsHandleSingleUser) {
  auto d = Dataset::FromProfiles({{0, 1, 2}}, 3);
  ASSERT_TRUE(d.ok());
  ExactJaccardProvider provider(*d);
  GreedyConfig config;
  config.k = 5;
  KnnBuildStats stats;
  const KnnGraph h = HyrecKnn(provider, config, nullptr, &stats).value();
  EXPECT_EQ(h.NeighborsOf(0).size(), 0u);
  const KnnGraph n = NNDescentKnn(provider, config, nullptr, &stats).value();
  EXPECT_EQ(n.NeighborsOf(0).size(), 0u);
}

TEST(KnnStatsTest, GreedyAlgorithmsHandleTwoUsers) {
  auto d = Dataset::FromProfiles({{0, 1}, {1, 2}}, 3);
  ASSERT_TRUE(d.ok());
  ExactJaccardProvider provider(*d);
  GreedyConfig config;
  config.k = 3;
  const KnnGraph h = HyrecKnn(provider, config).value();
  ASSERT_EQ(h.NeighborsOf(0).size(), 1u);
  EXPECT_EQ(h.NeighborsOf(0)[0].id, 1u);
  EXPECT_NEAR(h.NeighborsOf(0)[0].similarity, 1.0 / 3.0, 1e-6);
}

}  // namespace
}  // namespace gf
