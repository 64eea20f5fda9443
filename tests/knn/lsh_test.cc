// The paper's single-value LSH (§3.2.5), built as banded LSH with one
// row per band (AsBandedLsh).

#include "knn/banded_lsh.h"

#include <gtest/gtest.h>

#include "knn/brute_force.h"
#include "knn/quality.h"
#include "knn/similarity_provider.h"
#include "testing/test_util.h"

namespace gf {
namespace {

BandedLshConfig Config(std::size_t k = 10, std::size_t functions = 10) {
  LshConfig c;
  c.k = k;
  c.num_functions = functions;
  c.seed = 31;
  return AsBandedLsh(c);
}


TEST(LshTest, ProducesReasonableQualityGraph) {
  const Dataset d = testing::SmallSynthetic(300);
  ExactJaccardProvider provider(d);
  KnnBuildStats stats;
  const KnnGraph approx = BandedLshKnn(d, provider, Config(), nullptr, &stats);
  const KnnGraph exact = BruteForceKnn(provider, 10).value();
  const double q = GraphQuality(AverageExactSimilarity(approx, d),
                                AverageExactSimilarity(exact, d));
  // Paper Table 4: native LSH quality 0.87-0.99.
  EXPECT_GT(q, 0.8);
}

TEST(LshTest, FewerComputationsThanBruteForce) {
  const Dataset d = testing::SmallSynthetic(400);
  ExactJaccardProvider provider(d);
  KnnBuildStats stats;
  BandedLshKnn(d, provider, Config(), nullptr, &stats);
  const auto exhaustive =
      static_cast<uint64_t>(d.NumUsers()) * (d.NumUsers() - 1);
  EXPECT_LT(stats.similarity_computations, exhaustive);
  EXPECT_GT(stats.similarity_computations, 0u);
}

TEST(LshTest, MoreFunctionsImproveQuality) {
  const Dataset d = testing::SmallSynthetic(250);
  ExactJaccardProvider provider(d);
  const KnnGraph exact = BruteForceKnn(provider, 10).value();
  const double exact_avg = AverageExactSimilarity(exact, d);
  const auto quality_with = [&](std::size_t functions) {
    const KnnGraph g =
        BandedLshKnn(d, provider, Config(10, functions), nullptr);
    return GraphQuality(AverageExactSimilarity(g, d), exact_avg);
  };
  EXPECT_GE(quality_with(12) + 0.03, quality_with(2));
}

TEST(LshTest, UniversalHashVariantWorks) {
  const Dataset d = testing::SmallSynthetic(200);
  ExactJaccardProvider provider(d);
  BandedLshConfig config = Config();
  config.kind = MinwiseKind::kUniversalHash;
  const KnnGraph g = BandedLshKnn(d, provider, config, nullptr);
  EXPECT_EQ(g.NumUsers(), d.NumUsers());
  EXPECT_GT(g.NumEdges(), 0u);
}

TEST(LshTest, EmptyProfilesGetNoNeighborsAndNoBuckets) {
  auto d = Dataset::FromProfiles({{}, {0, 1}, {0, 1, 2}, {1, 2}}, 4);
  ASSERT_TRUE(d.ok());
  ExactJaccardProvider provider(*d);
  const KnnGraph g = BandedLshKnn(*d, provider, Config(2, 4), nullptr);
  EXPECT_EQ(g.NeighborsOf(0).size(), 0u);
  EXPECT_GT(g.NeighborsOf(1).size(), 0u);
}

TEST(LshTest, UsersSharingMinItemShareBuckets) {
  // Two identical profiles always share every bucket, so each must
  // find the other.
  auto d = Dataset::FromProfiles({{3, 4, 5}, {3, 4, 5}, {0, 1, 2}}, 6);
  ASSERT_TRUE(d.ok());
  ExactJaccardProvider provider(*d);
  const KnnGraph g = BandedLshKnn(*d, provider, Config(1, 5), nullptr);
  ASSERT_EQ(g.NeighborsOf(0).size(), 1u);
  EXPECT_EQ(g.NeighborsOf(0)[0].id, 1u);
  ASSERT_EQ(g.NeighborsOf(1).size(), 1u);
  EXPECT_EQ(g.NeighborsOf(1)[0].id, 0u);
}

TEST(LshTest, ParallelEqualsSequentialGraph) {
  const Dataset d = testing::SmallSynthetic(150);
  ExactJaccardProvider provider(d);
  ThreadPool pool(4);
  const KnnGraph seq = BandedLshKnn(d, provider, Config(), nullptr);
  const KnnGraph par = BandedLshKnn(d, provider, Config(), &pool);
  for (UserId u = 0; u < d.NumUsers(); ++u) {
    const auto a = seq.NeighborsOf(u);
    const auto b = par.NeighborsOf(u);
    ASSERT_EQ(a.size(), b.size()) << "user " << u;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id) << "user " << u;
    }
  }
}

TEST(LshTest, StatsPopulated) {
  const Dataset d = testing::SmallSynthetic(100);
  ExactJaccardProvider provider(d);
  KnnBuildStats stats;
  BandedLshKnn(d, provider, Config(), nullptr, &stats);
  EXPECT_EQ(stats.iterations, 1u);
  EXPECT_GT(stats.seconds, 0.0);
}

}  // namespace
}  // namespace gf
