// Dynamic fingerprints — the paper's real-time motivation (§1.2: web
// services "must regularly recompute their suggestions in short
// intervals on fresh data"). This example maintains CountingShf
// fingerprints over a stream of rating additions and retractions and
// periodically rebuilds the KNN graph from the live fingerprints,
// without ever re-reading the raw profiles.
//
// Run:  ./dynamic_stream

#include <cstdio>
#include <vector>

#include "common/random.h"
#include "core/counting_shf.h"
#include "dataset/synthetic.h"
#include "knn/brute_force.h"
#include "knn/quality.h"
#include "knn/similarity_provider.h"

namespace {

// Similarity provider over live counting fingerprints.
class CountingProviderView {
 public:
  explicit CountingProviderView(const std::vector<gf::CountingShf>& shfs)
      : shfs_(&shfs) {}
  std::size_t num_users() const { return shfs_->size(); }
  double operator()(gf::UserId a, gf::UserId b) const {
    return gf::CountingShf::EstimateJaccard((*shfs_)[a], (*shfs_)[b]);
  }

 private:
  const std::vector<gf::CountingShf>* shfs_;
};

}  // namespace

int main() {
  // Start from a synthetic snapshot.
  gf::SyntheticSpec spec;
  spec.num_users = 800;
  spec.num_items = 1200;
  spec.mean_profile_size = 40;
  spec.seed = 11;
  auto snapshot = gf::GenerateZipfDataset(spec);
  if (!snapshot.ok()) return 1;

  // Live state: one CountingShf per user plus the explicit profiles
  // (kept only to measure ground-truth quality).
  gf::FingerprintConfig config;  // 1024 bits
  std::vector<gf::CountingShf> shfs;
  std::vector<std::vector<gf::ItemId>> profiles(snapshot->NumUsers());
  shfs.reserve(snapshot->NumUsers());
  for (gf::UserId u = 0; u < snapshot->NumUsers(); ++u) {
    shfs.push_back(*gf::CountingShf::Create(config));
    for (gf::ItemId it : snapshot->Profile(u)) {
      shfs.back().Add(it);
      profiles[u].push_back(it);
    }
  }
  std::printf("initial snapshot: %zu users, %zu items\n",
              snapshot->NumUsers(), snapshot->NumItems());

  gf::Rng rng(99);
  const gf::ZipfSampler zipf(spec.num_items, 1.0);
  constexpr int kEpochs = 4;
  constexpr int kEventsPerEpoch = 20000;
  for (int epoch = 1; epoch <= kEpochs; ++epoch) {
    // Stream: 60% additions, 40% retractions.
    int adds = 0, removes = 0;
    for (int e = 0; e < kEventsPerEpoch; ++e) {
      const auto u = static_cast<gf::UserId>(rng.Below(profiles.size()));
      if (rng.Bernoulli(0.6) || profiles[u].empty()) {
        const auto item = static_cast<gf::ItemId>(zipf.Sample(rng));
        shfs[u].Add(item);
        profiles[u].push_back(item);
        ++adds;
      } else {
        const std::size_t idx = rng.Below(profiles[u].size());
        const gf::ItemId item = profiles[u][idx];
        shfs[u].Remove(item);
        profiles[u][idx] = profiles[u].back();
        profiles[u].pop_back();
        ++removes;
      }
    }

    // Rebuild the KNN graph from the LIVE fingerprints...
    CountingProviderView provider(shfs);
    gf::KnnBuildStats stats;
    const gf::KnnGraph live = gf::BruteForceKnn(provider, 10, nullptr,
                                                &stats).value();

    // ...and score it against the ground truth of the mutated profiles.
    auto truth = gf::Dataset::FromProfiles(profiles, spec.num_items);
    if (!truth.ok()) return 1;
    gf::ExactJaccardProvider exact_provider(*truth);
    const gf::KnnGraph exact = gf::BruteForceKnn(exact_provider, 10).value();
    const double q =
        gf::GraphQuality(gf::AverageExactSimilarity(live, *truth),
                         gf::AverageExactSimilarity(exact, *truth));
    std::printf(
        "epoch %d: +%d/-%d events, KNN rebuild %.2fs on fingerprints, "
        "quality vs fresh exact graph = %.3f\n",
        epoch, adds, removes, stats.seconds, q);
  }
  std::printf(
      "\n(the fingerprints absorbed every addition AND retraction "
      "incrementally — no profile rescan, no rebuild of the store)\n");
  return 0;
}
