#include "knn/brute_force.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "knn/similarity_provider.h"
#include "testing/test_util.h"

namespace gf {
namespace {

TEST(BruteForceTest, TinyDatasetExactNeighbors) {
  const Dataset d = testing::TinyDataset();
  ExactJaccardProvider provider(d);
  const KnnGraph g = BruteForceKnn(provider, 1).value();
  // u0's best neighbor is u2 (identical profile, J = 1).
  ASSERT_EQ(g.NeighborsOf(0).size(), 1u);
  EXPECT_EQ(g.NeighborsOf(0)[0].id, 2u);
  EXPECT_FLOAT_EQ(g.NeighborsOf(0)[0].similarity, 1.0f);
  // u1's best is u0 or u2 (J = 1/3 each; tie-break by id -> 0).
  EXPECT_EQ(g.NeighborsOf(1)[0].id, 0u);
}

TEST(BruteForceTest, MatchesReferenceArgTopK) {
  const Dataset d = testing::SmallSynthetic(80);
  ExactJaccardProvider provider(d);
  const std::size_t k = 5;
  const KnnGraph g = BruteForceKnn(provider, k).value();

  for (UserId u = 0; u < d.NumUsers(); ++u) {
    // Reference: sort all similarities descending.
    std::vector<std::pair<double, UserId>> sims;
    for (UserId v = 0; v < d.NumUsers(); ++v) {
      if (v != u) sims.push_back({provider(u, v), v});
    }
    std::sort(sims.begin(), sims.end(), [](const auto& a, const auto& b) {
      return a.first > b.first;
    });
    const auto nb = g.NeighborsOf(u);
    ASSERT_EQ(nb.size(), k);
    // The similarity multiset of the top-k must match (ids may differ
    // under ties).
    for (std::size_t i = 0; i < k; ++i) {
      EXPECT_NEAR(nb[i].similarity, sims[i].first, 1e-6)
          << "user " << u << " position " << i;
    }
  }
}

// GoldFingerProvider stripped of its batch and count interfaces, to
// force the per-pair scan for comparison against the fused offer.
class PerPairGoldFingerProvider {
 public:
  explicit PerPairGoldFingerProvider(const FingerprintStore& store)
      : store_(&store) {}
  std::size_t num_users() const { return store_->num_users(); }
  double operator()(UserId a, UserId b) const {
    return store_->EstimateJaccard(a, b);
  }

 private:
  const FingerprintStore* store_;
};

TEST(BruteForceTest, FusedOfferProducesIdenticalGraphToPerPair) {
  static_assert(IntersectionCountProvider<GoldFingerProvider>);
  static_assert(!IntersectionCountProvider<PerPairGoldFingerProvider>);
  static_assert(!IntersectionCountProvider<ExactJaccardProvider>);

  // 400 users spans multiple 256-id chunks with a partial tail chunk.
  const Dataset d = testing::SmallSynthetic(400);
  FingerprintConfig config;
  config.num_bits = 256;
  auto store = FingerprintStore::Build(d, config);
  ASSERT_TRUE(store.ok());

  GoldFingerProvider fused(*store);
  PerPairGoldFingerProvider per_pair(*store);
  const std::size_t k = 7;
  const KnnGraph gt = BruteForceKnn(fused, k).value();
  const KnnGraph gp = BruteForceKnn(per_pair, k).value();

  // Identical graphs: same edges in the same order, same similarities,
  // same tie-breaks — bitwise, not approximately.
  ASSERT_EQ(gt.NumUsers(), gp.NumUsers());
  for (UserId u = 0; u < gt.NumUsers(); ++u) {
    const auto nt = gt.NeighborsOf(u);
    const auto np = gp.NeighborsOf(u);
    ASSERT_EQ(nt.size(), np.size()) << "user " << u;
    for (std::size_t i = 0; i < nt.size(); ++i) {
      ASSERT_EQ(nt[i].id, np[i].id) << "user " << u << " slot " << i;
      ASSERT_EQ(nt[i].similarity, np[i].similarity)
          << "user " << u << " slot " << i;
    }
  }

  // The parallel fused scan agrees too (rows are thread-partitioned, so
  // the result is deterministic).
  ThreadPool pool(4);
  const KnnGraph gt_par = BruteForceKnn(fused, k, &pool).value();
  for (UserId u = 0; u < gt.NumUsers(); ++u) {
    const auto a = gt.NeighborsOf(u);
    const auto b = gt_par.NeighborsOf(u);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].id, b[i].id);
      ASSERT_EQ(a[i].similarity, b[i].similarity);
    }
  }
}

TEST(BruteForceTest, StatsReportOrderedPairCount) {
  const Dataset d = testing::SmallSynthetic(50);
  ExactJaccardProvider provider(d);
  KnnBuildStats stats;
  BruteForceKnn(provider, 3, nullptr, &stats);
  EXPECT_EQ(stats.similarity_computations, 50u * 49u);
  EXPECT_EQ(stats.iterations, 1u);
  EXPECT_GT(stats.seconds, 0.0);
}

TEST(BruteForceTest, CountingProviderAgreesWithStats) {
  const Dataset d = testing::SmallSynthetic(40);
  ExactJaccardProvider inner(d);
  CountingProvider provider(inner);
  KnnBuildStats stats;
  BruteForceKnn(provider, 3, nullptr, &stats);
  EXPECT_EQ(provider.count(), stats.similarity_computations);

  // GoldFinger counts through CountBatch; no (u, u) pair is scored.
  const FingerprintStore store =
      FingerprintStore::Build(d, FingerprintConfig{}).value();
  GoldFingerProvider golfi(store);
  CountingProvider counted(golfi);
  KnnBuildStats golfi_stats;
  BruteForceKnn(counted, 3, nullptr, &golfi_stats);
  EXPECT_EQ(counted.count(), golfi_stats.similarity_computations);
}

TEST(BruteForceTest, ParallelEqualsSequential) {
  const Dataset d = testing::SmallSynthetic(100);
  ExactJaccardProvider provider(d);
  ThreadPool pool(4);
  const KnnGraph seq = BruteForceKnn(provider, 4, nullptr).value();
  const KnnGraph par = BruteForceKnn(provider, 4, &pool).value();
  for (UserId u = 0; u < d.NumUsers(); ++u) {
    const auto a = seq.NeighborsOf(u);
    const auto b = par.NeighborsOf(u);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id);
      EXPECT_EQ(a[i].similarity, b[i].similarity);
    }
  }
}

TEST(BruteForceTest, KLargerThanUsers) {
  const Dataset d = testing::TinyDataset();
  ExactJaccardProvider provider(d);
  const KnnGraph g = BruteForceKnn(provider, 10).value();
  for (UserId u = 0; u < d.NumUsers(); ++u) {
    EXPECT_EQ(g.NeighborsOf(u).size(), 3u);  // everyone else
  }
}

TEST(BruteForceTest, SingleUserGraphIsEmpty) {
  auto d = Dataset::FromProfiles({{0, 1}}, 2);
  ASSERT_TRUE(d.ok());
  ExactJaccardProvider provider(*d);
  KnnBuildStats stats;
  const KnnGraph g = BruteForceKnn(provider, 3, nullptr, &stats).value();
  EXPECT_EQ(g.NeighborsOf(0).size(), 0u);
  EXPECT_EQ(stats.similarity_computations, 0u);
}

TEST(BruteForceTest, GoldFingerGraphApproximatesExact) {
  const Dataset d = testing::SmallSynthetic(120);
  FingerprintConfig config;
  config.num_bits = 1024;
  auto store = FingerprintStore::Build(d, config);
  ASSERT_TRUE(store.ok());
  GoldFingerProvider gf_provider(*store);
  ExactJaccardProvider exact_provider(d);

  const KnnGraph approx = BruteForceKnn(gf_provider, 5).value();
  const KnnGraph exact = BruteForceKnn(exact_provider, 5).value();

  // Average exact similarity of the GolFi edges close to the exact
  // graph's (the paper's quality metric; Table 4 reports >= 0.9).
  double approx_sum = 0, exact_sum = 0;
  std::size_t edges = 0;
  for (UserId u = 0; u < d.NumUsers(); ++u) {
    for (const auto& nb : approx.NeighborsOf(u)) {
      approx_sum += ExactJaccard(d.Profile(u), d.Profile(nb.id));
      ++edges;
    }
    for (const auto& nb : exact.NeighborsOf(u)) {
      exact_sum += ExactJaccard(d.Profile(u), d.Profile(nb.id));
    }
  }
  ASSERT_GT(edges, 0u);
  EXPECT_GT(approx_sum / exact_sum, 0.85);
}

}  // namespace
}  // namespace gf
