// Extension bench: incremental graph repair vs full rebuild.
//
// The paper's real-time motivation (§1.2) assumes periodic full
// recomputation; knn/incremental.h repairs the previous graph instead.
// This bench mutates a growing fraction of user profiles and compares
// RefreshKnnGraph against a from-scratch GoldFinger brute-force rebuild:
// similarity budget, wall time, and quality against the fresh exact
// graph. Expectation: the refresh wins by a wide margin at small change
// fractions (~100x fewer similarities at 1% churn for ~1 point of
// quality); past ~25% churn fully-changed users can no longer find each
// other through the stale topology and a rebuild becomes preferable —
// the bench prints exactly where that crossover sits.

#include <cstdio>
#include <vector>

#include "common/random.h"
#include "knn/brute_force.h"
#include "knn/incremental.h"
#include "knn/quality.h"
#include "knn/similarity_provider.h"
#include "util/bench_env.h"

int main() {
  gf::bench::PrintHeader(
      "Extension: incremental KNN repair vs full rebuild",
      "refresh cost ~ O(changed * k^2) vs rebuild O(n^2); quality must "
      "stay near the fresh graph's");

  const auto bench =
      gf::bench::LoadBenchDataset(gf::PaperDataset::kMovieLens1M);
  const auto& d = bench.dataset;
  constexpr std::size_t kK = 30;

  // Previous interval's graph (GoldFinger brute force on the old data).
  gf::FingerprintConfig fp_config;
  auto old_store = gf::FingerprintStore::Build(d, fp_config);
  if (!old_store.ok()) return 1;
  gf::GoldFingerProvider old_provider(*old_store);
  const gf::KnnGraph previous = gf::BruteForceKnn(old_provider, kK).value();

  std::vector<std::vector<gf::ItemId>> base_profiles(d.NumUsers());
  for (gf::UserId u = 0; u < d.NumUsers(); ++u) {
    const auto p = d.Profile(u);
    base_profiles[u].assign(p.begin(), p.end());
  }

  std::printf("\n%-9s | %12s %12s %10s | %12s %12s %10s\n", "changed",
              "refresh(s)", "sims(1e6)", "quality", "rebuild(s)",
              "sims(1e6)", "quality");
  for (double fraction : {0.01, 0.05, 0.10, 0.25, 0.50}) {
    // Mutate `fraction` of the users.
    auto profiles = base_profiles;
    gf::Rng rng(static_cast<uint64_t>(fraction * 1e6));
    const auto n_changed =
        static_cast<std::size_t>(fraction * static_cast<double>(d.NumUsers()));
    std::vector<gf::UserId> changed;
    while (changed.size() < n_changed) {
      const auto u = static_cast<gf::UserId>(rng.Below(d.NumUsers()));
      changed.push_back(u);
      profiles[u].clear();
      for (int i = 0; i < 60; ++i) {
        profiles[u].push_back(
            static_cast<gf::ItemId>(rng.Below(d.NumItems())));
      }
    }
    auto mutated = gf::Dataset::FromProfiles(profiles, d.NumItems());
    if (!mutated.ok()) return 1;
    auto new_store = gf::FingerprintStore::Build(*mutated, fp_config);
    if (!new_store.ok()) return 1;
    gf::GoldFingerProvider new_provider(*new_store);

    gf::KnnBuildStats refresh_stats, rebuild_stats;
    const gf::KnnGraph refreshed =
        gf::RefreshKnnGraph(previous, new_provider, changed, &refresh_stats);
    const gf::KnnGraph rebuilt =
        gf::BruteForceKnn(new_provider, kK, nullptr, &rebuild_stats).value();

    gf::ExactJaccardProvider exact_provider(*mutated);
    const gf::KnnGraph exact = gf::BruteForceKnn(exact_provider, kK).value();
    const double exact_avg = gf::AverageExactSimilarity(exact, *mutated);

    std::printf("%8.0f%% | %12.3f %12.2f %10.3f | %12.3f %12.2f %10.3f\n",
                fraction * 100, refresh_stats.seconds,
                refresh_stats.similarity_computations / 1e6,
                gf::GraphQuality(
                    gf::AverageExactSimilarity(refreshed, *mutated),
                    exact_avg),
                rebuild_stats.seconds,
                rebuild_stats.similarity_computations / 1e6,
                gf::GraphQuality(
                    gf::AverageExactSimilarity(rebuilt, *mutated),
                    exact_avg));
    std::fflush(stdout);
  }
  return 0;
}
