#include "knn/nndescent.h"

#include <gtest/gtest.h>

#include "knn/brute_force.h"
#include "knn/quality.h"
#include "knn/similarity_provider.h"
#include "testing/test_util.h"

namespace gf {
namespace {

GreedyConfig Config(std::size_t k = 10) {
  GreedyConfig c;
  c.k = k;
  c.seed = 123;
  return c;
}

TEST(NNDescentTest, ConvergesToHighQualityGraph) {
  const Dataset d = testing::SmallSynthetic(300);
  ExactJaccardProvider provider(d);
  KnnBuildStats stats;
  const KnnGraph approx =
      NNDescentKnn(provider, Config(), nullptr, &stats).value();
  const KnnGraph exact = BruteForceKnn(provider, 10).value();
  const double q = GraphQuality(AverageExactSimilarity(approx, d),
                                AverageExactSimilarity(exact, d));
  // Paper Table 4: native NNDescent quality 0.98-1.0.
  EXPECT_GT(q, 0.95);
}

TEST(NNDescentTest, HighNeighborRecallOnExactProvider) {
  const Dataset d = testing::SmallSynthetic(250);
  ExactJaccardProvider provider(d);
  const KnnGraph approx = NNDescentKnn(provider, Config(), nullptr).value();
  const KnnGraph exact = BruteForceKnn(provider, 10).value();
  EXPECT_GT(NeighborRecall(approx, exact), 0.85);
}

TEST(NNDescentTest, ScanRateWellBelowExhaustive) {
  // As for Hyrec: the scan-rate advantage needs n >> k^2.
  const Dataset d = testing::SmallSynthetic(1600);
  ExactJaccardProvider provider(d);
  KnnBuildStats stats;
  NNDescentKnn(provider, Config(8), nullptr, &stats);
  EXPECT_LT(stats.ScanRate(d.NumUsers()), 1.0);
}

TEST(NNDescentTest, RespectsMaxIterations) {
  const Dataset d = testing::SmallSynthetic(150);
  ExactJaccardProvider provider(d);
  GreedyConfig config = Config();
  config.max_iterations = 3;
  KnnBuildStats stats;
  NNDescentKnn(provider, config, nullptr, &stats);
  EXPECT_LE(stats.iterations, 3u);
}

TEST(NNDescentTest, DeltaStopsRefinement) {
  const Dataset d = testing::SmallSynthetic(150);
  ExactJaccardProvider provider(d);
  GreedyConfig config = Config();
  config.delta = 10.0;
  KnnBuildStats stats;
  NNDescentKnn(provider, config, nullptr, &stats);
  EXPECT_EQ(stats.iterations, 1u);
}

TEST(NNDescentTest, SampleRateLimitsJoinSize) {
  const Dataset d = testing::SmallSynthetic(250);
  ExactJaccardProvider provider(d);
  GreedyConfig full = Config();
  GreedyConfig sampled = Config();
  sampled.sample_rate = 0.3;
  KnnBuildStats stats_full, stats_sampled;
  NNDescentKnn(provider, full, nullptr, &stats_full);
  NNDescentKnn(provider, sampled, nullptr, &stats_sampled);
  EXPECT_LT(stats_sampled.similarity_computations,
            stats_full.similarity_computations);
}

TEST(NNDescentTest, NewFlagsAreConsumed) {
  // After convergence the final iteration performs few updates — the
  // new/old machinery must not re-join the same pairs forever.
  const Dataset d = testing::SmallSynthetic(200);
  ExactJaccardProvider provider(d);
  KnnBuildStats stats;
  NNDescentKnn(provider, Config(), nullptr, &stats);
  ASSERT_GE(stats.updates_per_iteration.size(), 2u);
  EXPECT_LT(stats.updates_per_iteration.back(),
            stats.updates_per_iteration.front());
}

TEST(NNDescentTest, ParallelRunReachesSameQuality) {
  const Dataset d = testing::SmallSynthetic(250);
  ExactJaccardProvider provider(d);
  ThreadPool pool(4);
  const KnnGraph exact = BruteForceKnn(provider, 10).value();
  const KnnGraph par = NNDescentKnn(provider, Config(), &pool).value();
  const double q = GraphQuality(AverageExactSimilarity(par, d),
                                AverageExactSimilarity(exact, d));
  EXPECT_GT(q, 0.95);
}

TEST(NNDescentTest, WorksWithGoldFingerProvider) {
  const Dataset d = testing::SmallSynthetic(200);
  FingerprintConfig fc;
  fc.num_bits = 1024;
  auto store = FingerprintStore::Build(d, fc);
  ASSERT_TRUE(store.ok());
  GoldFingerProvider provider(*store);
  const KnnGraph g = NNDescentKnn(provider, Config(), nullptr).value();
  ExactJaccardProvider exact_provider(d);
  const KnnGraph exact = BruteForceKnn(exact_provider, 10).value();
  const double q = GraphQuality(AverageExactSimilarity(g, d),
                                AverageExactSimilarity(exact, d));
  EXPECT_GT(q, 0.8);
}

TEST(NNDescentTest, BatchScoringMatchesPerPairScoringExactly) {
  // Sequential runs with the same seed walk identical join schedules;
  // the batched local joins must reproduce the per-pair graph exactly
  // (bit-exact scores, inserts applied in the same order).
  const Dataset d = testing::SmallSynthetic(200);
  FingerprintConfig fc;
  fc.num_bits = 256;
  auto store = FingerprintStore::Build(d, fc);
  ASSERT_TRUE(store.ok());

  struct PerPairProvider {
    const FingerprintStore* store;
    std::size_t num_users() const { return store->num_users(); }
    double operator()(UserId a, UserId b) const {
      return store->EstimateJaccard(a, b);
    }
  };
  GoldFingerProvider batched(*store);
  PerPairProvider per_pair{&*store};
  KnnBuildStats bs, ps;
  const KnnGraph gb = NNDescentKnn(batched, Config(), nullptr, &bs).value();
  const KnnGraph gp = NNDescentKnn(per_pair, Config(), nullptr, &ps).value();

  EXPECT_EQ(bs.similarity_computations, ps.similarity_computations);
  EXPECT_EQ(bs.iterations, ps.iterations);
  ASSERT_EQ(gb.NumUsers(), gp.NumUsers());
  for (UserId u = 0; u < gb.NumUsers(); ++u) {
    const auto a = gb.NeighborsOf(u);
    const auto b = gp.NeighborsOf(u);
    ASSERT_EQ(a.size(), b.size()) << "user " << u;
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].id, b[i].id) << "user " << u << " slot " << i;
      ASSERT_EQ(a[i].similarity, b[i].similarity);
    }
  }
}

TEST(NNDescentTest, TinyDatasetFindsIdenticalTwin) {
  const Dataset d = testing::TinyDataset();
  ExactJaccardProvider provider(d);
  const KnnGraph g = NNDescentKnn(provider, Config(2), nullptr).value();
  EXPECT_EQ(g.NeighborsOf(0)[0].id, 2u);
  EXPECT_FLOAT_EQ(g.NeighborsOf(0)[0].similarity, 1.0f);
}

}  // namespace
}  // namespace gf
