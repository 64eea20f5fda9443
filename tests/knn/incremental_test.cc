#include "knn/incremental.h"

#include <gtest/gtest.h>

#include "knn/brute_force.h"
#include "knn/quality.h"
#include "knn/similarity_provider.h"
#include "testing/test_util.h"

namespace gf {
namespace {

// Mutates `profiles[u]` into a completely different item set.
void ReplaceProfile(std::vector<std::vector<ItemId>>& profiles, UserId u,
                    std::size_t num_items, Rng& rng) {
  profiles[u].clear();
  while (profiles[u].size() < 25) {
    const auto item = static_cast<ItemId>(rng.Below(num_items));
    profiles[u].push_back(item);
  }
}

std::vector<std::vector<ItemId>> ProfilesOf(const Dataset& d) {
  std::vector<std::vector<ItemId>> out(d.NumUsers());
  for (UserId u = 0; u < d.NumUsers(); ++u) {
    const auto p = d.Profile(u);
    out[u].assign(p.begin(), p.end());
  }
  return out;
}

TEST(IncrementalTest, NoChangesIsIdentity) {
  const Dataset d = testing::SmallSynthetic(150);
  ExactJaccardProvider provider(d);
  const KnnGraph original = BruteForceKnn(provider, 8).value();
  KnnBuildStats stats;
  const KnnGraph refreshed =
      RefreshKnnGraph(original, provider, {}, &stats);
  EXPECT_EQ(stats.similarity_computations, 0u);
  for (UserId u = 0; u < d.NumUsers(); ++u) {
    const auto a = original.NeighborsOf(u);
    const auto b = refreshed.NeighborsOf(u);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id);
    }
  }
}

TEST(IncrementalTest, RepairsAfterProfileChanges) {
  const Dataset d = testing::SmallSynthetic(300, 21);
  auto profiles = ProfilesOf(d);

  // Build on the original data.
  ExactJaccardProvider old_provider(d);
  const KnnGraph original = BruteForceKnn(old_provider, 10).value();

  // Mutate 10 users' profiles entirely.
  Rng rng(5);
  std::vector<UserId> changed;
  for (int i = 0; i < 10; ++i) {
    const auto u = static_cast<UserId>(rng.Below(d.NumUsers()));
    ReplaceProfile(profiles, u, d.NumItems(), rng);
    changed.push_back(u);
  }
  const Dataset mutated =
      Dataset::FromProfiles(profiles, d.NumItems()).value();
  ExactJaccardProvider new_provider(mutated);

  // Refresh vs full rebuild.
  KnnBuildStats refresh_stats;
  const KnnGraph refreshed =
      RefreshKnnGraph(original, new_provider, changed, &refresh_stats);
  const KnnGraph rebuilt = BruteForceKnn(new_provider, 10).value();

  const double rebuilt_avg = AverageExactSimilarity(rebuilt, mutated);
  const double refreshed_avg = AverageExactSimilarity(refreshed, mutated);
  EXPECT_GT(GraphQuality(refreshed_avg, rebuilt_avg), 0.9);

  // ...at a fraction of the similarity budget.
  const auto full_cost =
      static_cast<uint64_t>(mutated.NumUsers()) * (mutated.NumUsers() - 1);
  EXPECT_LT(refresh_stats.similarity_computations, full_cost / 4);
}

TEST(IncrementalTest, ChangedUsersRowsAreFullyRescored) {
  const Dataset d = testing::SmallSynthetic(120, 9);
  auto profiles = ProfilesOf(d);
  ExactJaccardProvider old_provider(d);
  const KnnGraph original = BruteForceKnn(old_provider, 5).value();

  Rng rng(7);
  ReplaceProfile(profiles, 3, d.NumItems(), rng);
  const Dataset mutated =
      Dataset::FromProfiles(profiles, d.NumItems()).value();
  ExactJaccardProvider new_provider(mutated);
  const KnnGraph refreshed =
      RefreshKnnGraph(original, new_provider, {3});

  // Every edge out of user 3 must carry the NEW similarity.
  for (const Neighbor& nb : refreshed.NeighborsOf(3)) {
    EXPECT_NEAR(nb.similarity, new_provider(3, nb.id), 1e-6);
  }
  // And every edge pointing at user 3 must be re-scored too.
  for (UserId u = 0; u < mutated.NumUsers(); ++u) {
    for (const Neighbor& nb : refreshed.NeighborsOf(u)) {
      if (nb.id == 3) {
        EXPECT_NEAR(nb.similarity, new_provider(u, 3), 1e-6)
            << "stale edge " << u << " -> 3";
      }
    }
  }
}

TEST(IncrementalTest, DuplicateChangedUsersAreDeduplicated) {
  const Dataset d = testing::SmallSynthetic(80);
  ExactJaccardProvider provider(d);
  const KnnGraph original = BruteForceKnn(provider, 5).value();
  KnnBuildStats once, twice;
  RefreshKnnGraph(original, provider, {4}, &once);
  RefreshKnnGraph(original, provider, {4, 4, 4}, &twice);
  EXPECT_EQ(once.similarity_computations, twice.similarity_computations);
}

TEST(IncrementalTest, WorksWithGoldFingerProvider) {
  const Dataset d = testing::SmallSynthetic(200, 33);
  FingerprintConfig fc;
  fc.num_bits = 1024;
  auto store = FingerprintStore::Build(d, fc);
  ASSERT_TRUE(store.ok());
  GoldFingerProvider provider(*store);
  const KnnGraph original = BruteForceKnn(provider, 8).value();
  // Pretend users 1 and 2 changed (same store: identity refresh must
  // preserve quality).
  const KnnGraph refreshed =
      RefreshKnnGraph(original, provider, {1, 2});
  EXPECT_NEAR(AverageExactSimilarity(refreshed, d),
              AverageExactSimilarity(original, d), 0.01);
}

}  // namespace
}  // namespace gf
