#include "knn/bisection.h"

#include <gtest/gtest.h>

#include "knn/brute_force.h"
#include "knn/quality.h"
#include "knn/similarity_provider.h"
#include "testing/test_util.h"

namespace gf {
namespace {

BisectionConfig Config(std::size_t leaf = 60) {
  BisectionConfig c;
  c.k = 10;
  c.leaf_size = leaf;
  c.seed = 17;
  return c;
}

TEST(BisectionTest, SingleLeafIsExactBruteForce) {
  const Dataset d = testing::SmallSynthetic(80);
  ExactJaccardProvider provider(d);
  BisectionConfig config = Config(100);  // never splits
  const KnnGraph bisect = RecursiveBisectionKnn(provider, config);
  const KnnGraph exact = BruteForceKnn(provider, 10).value();
  for (UserId u = 0; u < d.NumUsers(); ++u) {
    const auto a = bisect.NeighborsOf(u);
    const auto b = exact.NeighborsOf(u);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_NEAR(a[i].similarity, b[i].similarity, 1e-6);
    }
  }
}

TEST(BisectionTest, SplittingRetainsHighQuality) {
  const Dataset d = testing::SmallSynthetic(500, 3);
  ExactJaccardProvider provider(d);
  KnnBuildStats stats;
  const KnnGraph bisect =
      RecursiveBisectionKnn(provider, Config(80), &stats);
  const KnnGraph exact = BruteForceKnn(provider, 10).value();
  const double q = GraphQuality(AverageExactSimilarity(bisect, d),
                                AverageExactSimilarity(exact, d));
  EXPECT_GT(q, 0.85);
  // And the whole point: fewer comparisons than exhaustive.
  const auto brute =
      static_cast<uint64_t>(d.NumUsers()) * (d.NumUsers() - 1) / 2;
  EXPECT_LT(stats.similarity_computations, brute);
}

TEST(BisectionTest, MoreOverlapMoreQualityMoreWork) {
  const Dataset d = testing::SmallSynthetic(400, 5);
  ExactJaccardProvider provider(d);
  BisectionConfig narrow = Config(60);
  narrow.overlap = 0.02;
  BisectionConfig wide = Config(60);
  wide.overlap = 0.4;
  KnnBuildStats stats_narrow, stats_wide;
  const KnnGraph g_narrow =
      RecursiveBisectionKnn(provider, narrow, &stats_narrow);
  const KnnGraph g_wide = RecursiveBisectionKnn(provider, wide, &stats_wide);
  EXPECT_GT(stats_wide.similarity_computations,
            stats_narrow.similarity_computations);
  EXPECT_GE(AverageExactSimilarity(g_wide, d) + 0.01,
            AverageExactSimilarity(g_narrow, d));
}

TEST(BisectionTest, DegenerateDatasets) {
  // Single user: empty graph, no crash.
  auto one = Dataset::FromProfiles({{0, 1}}, 2).value();
  ExactJaccardProvider p1(one);
  const KnnGraph g1 = RecursiveBisectionKnn(p1, Config());
  EXPECT_EQ(g1.NeighborsOf(0).size(), 0u);

  // All-identical profiles: the split degenerates; the exhaustive
  // fallback must kick in and still produce full neighborhoods.
  auto same =
      Dataset::FromProfiles(std::vector<std::vector<ItemId>>(50, {1, 2, 3}),
                            4)
          .value();
  ExactJaccardProvider p2(same);
  BisectionConfig config = Config(10);
  config.k = 5;
  const KnnGraph g2 = RecursiveBisectionKnn(p2, config);
  for (UserId u = 0; u < same.NumUsers(); ++u) {
    EXPECT_EQ(g2.NeighborsOf(u).size(), 5u);
    for (const auto& nb : g2.NeighborsOf(u)) {
      EXPECT_FLOAT_EQ(nb.similarity, 1.0f);
    }
  }
}

TEST(BisectionTest, DeterministicGivenSeed) {
  const Dataset d = testing::SmallSynthetic(200);
  ExactJaccardProvider provider(d);
  const KnnGraph a = RecursiveBisectionKnn(provider, Config(40));
  const KnnGraph b = RecursiveBisectionKnn(provider, Config(40));
  for (UserId u = 0; u < d.NumUsers(); ++u) {
    const auto na = a.NeighborsOf(u);
    const auto nb = b.NeighborsOf(u);
    ASSERT_EQ(na.size(), nb.size());
    for (std::size_t i = 0; i < na.size(); ++i) {
      EXPECT_EQ(na[i].id, nb[i].id);
    }
  }
}

TEST(BisectionTest, WorksWithGoldFingerProvider) {
  const Dataset d = testing::SmallSynthetic(300);
  FingerprintConfig fc;
  fc.num_bits = 1024;
  auto store = FingerprintStore::Build(d, fc);
  ASSERT_TRUE(store.ok());
  GoldFingerProvider provider(*store);
  KnnBuildStats stats;
  const KnnGraph g = RecursiveBisectionKnn(provider, Config(60), &stats);
  ExactJaccardProvider exact_provider(d);
  const KnnGraph exact = BruteForceKnn(exact_provider, 10).value();
  const double q = GraphQuality(AverageExactSimilarity(g, d),
                                AverageExactSimilarity(exact, d));
  EXPECT_GT(q, 0.75);
}

}  // namespace
}  // namespace gf
