#include "knn/hyrec.h"

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
  c.seed = 99;
  return c;
}

TEST(HyrecTest, ConvergesToHighQualityGraph) {
  const Dataset d = testing::SmallSynthetic(300);
  ExactJaccardProvider provider(d);
  KnnBuildStats stats;
  const KnnGraph approx = HyrecKnn(provider, Config(), nullptr, &stats).value();
  const KnnGraph exact = BruteForceKnn(provider, 10).value();

  const double approx_avg = AverageExactSimilarity(approx, d);
  const double exact_avg = AverageExactSimilarity(exact, d);
  EXPECT_GT(GraphQuality(approx_avg, exact_avg), 0.9);
}

TEST(HyrecTest, ComputesFarFewerSimilaritiesThanBruteForce) {
  // Greedy refinement beats exhaustive search once n >> k^2; test at a
  // scale with clear margin (the paper's datasets have n >= 6k users).
  const Dataset d = testing::SmallSynthetic(1600);
  ExactJaccardProvider provider(d);
  KnnBuildStats stats;
  HyrecKnn(provider, Config(8), nullptr, &stats);
  const auto brute_pairs =
      static_cast<uint64_t>(d.NumUsers()) * (d.NumUsers() - 1);
  EXPECT_LT(stats.similarity_computations, brute_pairs / 2);
  EXPECT_LT(stats.ScanRate(d.NumUsers()), 1.0);
}

TEST(HyrecTest, TerminatesWithinMaxIterations) {
  const Dataset d = testing::SmallSynthetic(200);
  ExactJaccardProvider provider(d);
  GreedyConfig config = Config();
  config.max_iterations = 4;
  KnnBuildStats stats;
  HyrecKnn(provider, config, nullptr, &stats);
  EXPECT_LE(stats.iterations, 4u);
  EXPECT_EQ(stats.updates_per_iteration.size(), stats.iterations);
}

TEST(HyrecTest, DeltaTerminationStopsEarly) {
  const Dataset d = testing::SmallSynthetic(150);
  ExactJaccardProvider provider(d);
  GreedyConfig config = Config();
  config.delta = 1.0;  // huge threshold: stop after first iteration
  KnnBuildStats stats;
  HyrecKnn(provider, config, nullptr, &stats);
  EXPECT_LE(stats.iterations, 2u);
}

TEST(HyrecTest, UpdatesDecreaseOverIterations) {
  const Dataset d = testing::SmallSynthetic(300);
  ExactJaccardProvider provider(d);
  KnnBuildStats stats;
  HyrecKnn(provider, Config(), nullptr, &stats);
  ASSERT_GE(stats.updates_per_iteration.size(), 2u);
  // Greedy refinement converges: last iteration changes far fewer
  // entries than the first.
  EXPECT_LT(stats.updates_per_iteration.back(),
            stats.updates_per_iteration.front() / 2);
}

TEST(HyrecTest, DeterministicGivenSeedSequential) {
  const Dataset d = testing::SmallSynthetic(120);
  ExactJaccardProvider provider(d);
  const KnnGraph a = HyrecKnn(provider, Config(), nullptr).value();
  const KnnGraph b = HyrecKnn(provider, Config(), nullptr).value();
  for (UserId u = 0; u < d.NumUsers(); ++u) {
    const auto na = a.NeighborsOf(u);
    const auto nb = b.NeighborsOf(u);
    ASSERT_EQ(na.size(), nb.size());
    for (std::size_t i = 0; i < na.size(); ++i) {
      EXPECT_EQ(na[i].id, nb[i].id);
    }
  }
}

TEST(HyrecTest, ParallelRunReachesSameQuality) {
  const Dataset d = testing::SmallSynthetic(250);
  ExactJaccardProvider provider(d);
  ThreadPool pool(4);
  const KnnGraph exact = BruteForceKnn(provider, 10).value();
  const double exact_avg = AverageExactSimilarity(exact, d);
  const KnnGraph par = HyrecKnn(provider, Config(), &pool).value();
  EXPECT_GT(GraphQuality(AverageExactSimilarity(par, d), exact_avg), 0.9);
}

TEST(HyrecTest, TinyDatasetDegenerate) {
  const Dataset d = testing::TinyDataset();
  ExactJaccardProvider provider(d);
  const KnnGraph g = HyrecKnn(provider, Config(2), nullptr).value();
  // With 4 users and k=2 Hyrec behaves like an exhaustive search.
  ASSERT_EQ(g.NeighborsOf(0).size(), 2u);
  EXPECT_EQ(g.NeighborsOf(0)[0].id, 2u);  // the identical profile
}

TEST(HyrecTest, WorksWithGoldFingerProvider) {
  const Dataset d = testing::SmallSynthetic(200);
  FingerprintConfig fc;
  fc.num_bits = 1024;
  auto store = FingerprintStore::Build(d, fc);
  ASSERT_TRUE(store.ok());
  GoldFingerProvider provider(*store);
  KnnBuildStats stats;
  const KnnGraph g = HyrecKnn(provider, Config(), nullptr, &stats).value();

  ExactJaccardProvider exact_provider(d);
  const KnnGraph exact = BruteForceKnn(exact_provider, 10).value();
  const double q = GraphQuality(AverageExactSimilarity(g, d),
                                AverageExactSimilarity(exact, d));
  EXPECT_GT(q, 0.8);  // paper Table 4: Hyrec+GolFi quality ~0.78-0.93
}

TEST(HyrecTest, BatchScoringMatchesPerPairScoringExactly) {
  // Same store, same seed: the ScoreBatch path must walk the identical
  // refinement trajectory as the per-pair path (batch scores are
  // bit-exact and applied in the same order), so the final graphs are
  // identical down to tie-breaks.
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
  static_assert(BatchSimilarityProvider<GoldFingerProvider>);
  static_assert(!BatchSimilarityProvider<PerPairProvider>);

  GoldFingerProvider batched(*store);
  PerPairProvider per_pair{&*store};
  KnnBuildStats bs, ps;
  const KnnGraph gb = HyrecKnn(batched, Config(), nullptr, &bs).value();
  const KnnGraph gp = HyrecKnn(per_pair, Config(), nullptr, &ps).value();

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

}  // namespace
}  // namespace gf
