#include "knn/banded_lsh.h"

#include <gtest/gtest.h>

#include "knn/brute_force.h"
#include "knn/quality.h"
#include "knn/similarity_provider.h"
#include "testing/test_util.h"

namespace gf {
namespace {

BandedLshConfig Config(std::size_t bands = 8, std::size_t rows = 2) {
  BandedLshConfig c;
  c.k = 10;
  c.bands = bands;
  c.rows = rows;
  c.seed = 5;
  return c;
}

TEST(BandedLshTest, CollisionProbabilitySCurve) {
  const BandedLshConfig c = Config(20, 5);
  // Endpoint behaviour.
  EXPECT_NEAR(BandedLshCollisionProbability(0.0, c), 0.0, 1e-12);
  EXPECT_NEAR(BandedLshCollisionProbability(1.0, c), 1.0, 1e-12);
  // Monotone in j.
  EXPECT_LT(BandedLshCollisionProbability(0.2, c),
            BandedLshCollisionProbability(0.5, c));
  // More bands raise recall at fixed j.
  EXPECT_LT(BandedLshCollisionProbability(0.3, Config(4, 3)),
            BandedLshCollisionProbability(0.3, Config(16, 3)));
  // More rows sharpen (lower collision at low j).
  EXPECT_GT(BandedLshCollisionProbability(0.2, Config(8, 1)),
            BandedLshCollisionProbability(0.2, Config(8, 4)));
}

TEST(BandedLshTest, ProducesReasonableQualityGraph) {
  const Dataset d = testing::SmallSynthetic(300);
  ExactJaccardProvider provider(d);
  KnnBuildStats stats;
  const KnnGraph approx =
      BandedLshKnn(d, provider, Config(12, 2), nullptr, &stats);
  const KnnGraph exact = BruteForceKnn(provider, 10).value();
  const double q = GraphQuality(AverageExactSimilarity(approx, d),
                                AverageExactSimilarity(exact, d));
  EXPECT_GT(q, 0.75);
  EXPECT_GT(stats.similarity_computations, 0u);
}

TEST(BandedLshTest, MoreRowsPruneMoreCandidates) {
  const Dataset d = testing::SmallSynthetic(400);
  ExactJaccardProvider provider(d);
  KnnBuildStats loose, sharp;
  BandedLshKnn(d, provider, Config(8, 1), nullptr, &loose);
  BandedLshKnn(d, provider, Config(8, 3), nullptr, &sharp);
  EXPECT_GT(loose.similarity_computations, sharp.similarity_computations);
}

TEST(BandedLshTest, IdenticalProfilesAlwaysCandidates) {
  auto d =
      Dataset::FromProfiles({{1, 2, 3}, {1, 2, 3}, {7, 8, 9}}, 10).value();
  ExactJaccardProvider provider(d);
  const KnnGraph g = BandedLshKnn(d, provider, Config(4, 2));
  // Identical signatures collide in every band.
  ASSERT_GE(g.NeighborsOf(0).size(), 1u);
  EXPECT_EQ(g.NeighborsOf(0)[0].id, 1u);
  EXPECT_FLOAT_EQ(g.NeighborsOf(0)[0].similarity, 1.0f);
}

TEST(BandedLshTest, EmptyProfilesExcluded) {
  auto d = Dataset::FromProfiles({{}, {0, 1}, {0, 1}}, 3).value();
  ExactJaccardProvider provider(d);
  const KnnGraph g = BandedLshKnn(d, provider, Config(4, 2));
  EXPECT_EQ(g.NeighborsOf(0).size(), 0u);
  EXPECT_GE(g.NeighborsOf(1).size(), 1u);
}

TEST(BandedLshTest, ParallelEqualsSequential) {
  const Dataset d = testing::SmallSynthetic(150);
  ExactJaccardProvider provider(d);
  ThreadPool pool(4);
  const KnnGraph seq = BandedLshKnn(d, provider, Config(), nullptr);
  const KnnGraph par = BandedLshKnn(d, provider, Config(), &pool);
  for (UserId u = 0; u < d.NumUsers(); ++u) {
    const auto a = seq.NeighborsOf(u);
    const auto b = par.NeighborsOf(u);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].id, b[i].id);
  }
}

TEST(BandedLshTest, WorksWithGoldFingerProvider) {
  const Dataset d = testing::SmallSynthetic(200);
  FingerprintConfig fc;
  fc.num_bits = 1024;
  auto store = FingerprintStore::Build(d, fc);
  ASSERT_TRUE(store.ok());
  GoldFingerProvider provider(*store);
  const KnnGraph g = BandedLshKnn(d, provider, Config(12, 2));
  EXPECT_GT(g.NumEdges(), 0u);
}

}  // namespace
}  // namespace gf
