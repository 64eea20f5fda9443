#include "knn/kiff.h"

#include <gtest/gtest.h>

#include "core/fingerprint_store.h"
#include "knn/brute_force.h"
#include "knn/quality.h"
#include "knn/similarity_provider.h"
#include "testing/test_util.h"

namespace gf {
namespace {

TEST(KiffTest, CountingVariantMatchesExactJaccard) {
  const Dataset d = testing::TinyDataset();
  KiffConfig config;
  config.k = 3;
  const KnnGraph g = KiffKnn(d, config);
  // u0's best neighbor is u2 (J = 1), then u1 (J = 1/3); u3 shares no
  // item with u0 and must be absent.
  const auto nb = g.NeighborsOf(0);
  ASSERT_EQ(nb.size(), 2u);
  EXPECT_EQ(nb[0].id, 2u);
  EXPECT_FLOAT_EQ(nb[0].similarity, 1.0f);
  EXPECT_EQ(nb[1].id, 1u);
  EXPECT_NEAR(nb[1].similarity, 1.0f / 3.0f, 1e-6);
}

TEST(KiffTest, OnlySharingPairsAreScored) {
  const Dataset d = testing::TinyDataset();
  KiffConfig config;
  config.k = 3;
  KnnBuildStats stats;
  KiffKnn(d, config, nullptr, &stats);
  // Sharing (directed) pairs: u0-u1, u0-u2, u1-u2 both ways = 6.
  EXPECT_EQ(stats.similarity_computations, 6u);
}

TEST(KiffTest, EquivalentToBruteForceOnSharingPairs) {
  const Dataset d = testing::SmallSynthetic(200);
  KiffConfig config;
  config.k = 10;
  const KnnGraph kiff = KiffKnn(d, config);

  ExactJaccardProvider provider(d);
  const KnnGraph exact = BruteForceKnn(provider, 10).value();

  // Every neighbor with nonzero similarity is found through a shared
  // item, so KIFF is exact wherever similarities are positive.
  for (UserId u = 0; u < d.NumUsers(); ++u) {
    const auto a = kiff.NeighborsOf(u);
    const auto b = exact.NeighborsOf(u);
    std::size_t positive = 0;
    for (const auto& nb : b) positive += (nb.similarity > 0.0f);
    ASSERT_GE(a.size(), positive);
    for (std::size_t i = 0; i < positive; ++i) {
      EXPECT_NEAR(a[i].similarity, b[i].similarity, 1e-6)
          << "user " << u << " rank " << i;
    }
  }
}

TEST(KiffTest, SparseDatasetNeedsFewComputations) {
  // On a sparse dataset (few shared items), KIFF scores far fewer
  // pairs than brute force — the paper's §6 claim.
  SyntheticSpec spec;
  spec.num_users = 600;
  spec.num_items = 20000;  // huge universe -> sparse
  spec.mean_profile_size = 20;
  spec.num_communities = 64;
  spec.seed = 12;
  const Dataset d = GenerateZipfDataset(spec).value();
  KiffConfig config;
  config.k = 10;
  KnnBuildStats stats;
  KiffKnn(d, config, nullptr, &stats);
  const auto brute =
      static_cast<uint64_t>(d.NumUsers()) * (d.NumUsers() - 1);
  EXPECT_LT(stats.similarity_computations, brute / 2);
}

TEST(KiffTest, DenseDatasetDegeneratesToExhaustive) {
  // On a dense dataset nearly everyone shares an item: candidate count
  // approaches n-1 per user (the paper's "difficulties with denser
  // datasets").
  SyntheticSpec spec;
  spec.num_users = 300;
  spec.num_items = 200;  // small universe -> dense
  spec.mean_profile_size = 40;
  spec.num_communities = 0;
  spec.seed = 13;
  const Dataset d = GenerateZipfDataset(spec).value();
  KiffConfig config;
  config.k = 10;
  KnnBuildStats stats;
  KiffKnn(d, config, nullptr, &stats);
  const auto brute =
      static_cast<uint64_t>(d.NumUsers()) * (d.NumUsers() - 1);
  EXPECT_GT(stats.similarity_computations, 9 * brute / 10);
}

TEST(KiffTest, ProviderVariantWithGoldFinger) {
  const Dataset d = testing::SmallSynthetic(200);
  FingerprintConfig fc;
  fc.num_bits = 1024;
  auto store = FingerprintStore::Build(d, fc);
  ASSERT_TRUE(store.ok());
  GoldFingerProvider provider(*store);
  KiffConfig config;
  config.k = 10;
  const KnnGraph golfi = KiffKnn(d, provider, config);

  ExactJaccardProvider exact_provider(d);
  const KnnGraph exact = BruteForceKnn(exact_provider, 10).value();
  const double q = GraphQuality(AverageExactSimilarity(golfi, d),
                                AverageExactSimilarity(exact, d));
  EXPECT_GT(q, 0.85);
}

TEST(KiffTest, ParallelEqualsSequential) {
  const Dataset d = testing::SmallSynthetic(150);
  ThreadPool pool(4);
  KiffConfig config;
  config.k = 5;
  const KnnGraph seq = KiffKnn(d, config, nullptr);
  const KnnGraph par = KiffKnn(d, config, &pool);
  for (UserId u = 0; u < d.NumUsers(); ++u) {
    const auto a = seq.NeighborsOf(u);
    const auto b = par.NeighborsOf(u);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].id, b[i].id);
  }
}

TEST(KiffTest, EmptyProfilesGetNoNeighbors) {
  auto d = Dataset::FromProfiles({{}, {0, 1}, {1, 2}}, 3);
  ASSERT_TRUE(d.ok());
  KiffConfig config;
  config.k = 2;
  const KnnGraph g = KiffKnn(*d, config);
  EXPECT_EQ(g.NeighborsOf(0).size(), 0u);
  EXPECT_EQ(g.NeighborsOf(1).size(), 1u);
}

}  // namespace
}  // namespace gf
