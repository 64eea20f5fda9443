// Dynamic fingerprints — the paper's real-time motivation (§1.2: web
// services "must regularly recompute their suggestions in short
// intervals on fresh data"). This example streams rating additions and
// retractions through an IngestService into a VersionedStore, in
// stepping mode: this thread applies the events and publishes one
// epoch per round. Each publish re-fingerprints only the users whose
// profiles changed and repairs the KNN graph around them; the repaired
// graph of every epoch is scored against the exact graph of the fresh
// profiles. Exits 1 if the final epoch differs from fingerprinting the
// final profiles from scratch.
//
// Run:  ./dynamic_stream

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/versioned_store.h"
#include "dataset/synthetic.h"
#include "knn/brute_force.h"
#include "knn/ingest.h"
#include "knn/quality.h"
#include "knn/similarity_provider.h"

namespace {

// The write side's current profiles as a dataset.
gf::Result<gf::Dataset> ProfilesOf(const gf::MutableFingerprintStore& write,
                                   std::size_t num_items) {
  std::vector<std::vector<gf::ItemId>> profiles(write.num_users());
  for (gf::UserId u = 0; u < write.num_users(); ++u) {
    const auto profile = write.ProfileOf(u);
    profiles[u].assign(profile.begin(), profile.end());
  }
  return gf::Dataset::FromProfiles(std::move(profiles), num_items);
}

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

  // Epoch 0: the snapshot's fingerprints plus a GoldFinger graph, so
  // every publish repairs that graph around the changed users.
  constexpr std::size_t kK = 10;
  gf::FingerprintConfig config;  // 1024 bits
  auto write = gf::MutableFingerprintStore::FromDataset(*snapshot, config);
  if (!write.ok()) return 1;
  const gf::FingerprintStore epoch0 = write->Materialize();
  auto graph0 = gf::BruteForceKnn(gf::GoldFingerProvider(epoch0), kK);
  if (!graph0.ok()) return 1;
  gf::VersionedStore store(
      std::move(write).value(),
      std::make_shared<const gf::KnnGraph>(std::move(graph0).value()));
  std::printf("initial snapshot: %zu users, %zu items\n",
              snapshot->NumUsers(), snapshot->NumItems());

  constexpr int kEpochs = 4;
  constexpr int kEventsPerEpoch = 2000;
  gf::IngestService::Options options;
  options.publish_every = kEventsPerEpoch;
  options.start_worker = false;
  gf::IngestService ingest(&store, options);

  gf::Rng rng(99);
  const gf::ZipfSampler zipf(spec.num_items, 1.0);
  for (int round = 1; round <= kEpochs; ++round) {
    // Stream: 60% additions, 40% retractions of a rated item.
    int adds = 0, removes = 0;
    const uint64_t applied_before = ingest.EventsApplied();
    for (int e = 0; e < kEventsPerEpoch; ++e) {
      const auto u = static_cast<gf::UserId>(rng.Below(spec.num_users));
      const auto profile = store.write_side().ProfileOf(u);
      gf::RatingEvent event;
      if (rng.Bernoulli(0.6) || profile.empty()) {
        event = gf::RatingEvent::Add(
            u, static_cast<gf::ItemId>(zipf.Sample(rng)));
        ++adds;
      } else {
        event = gf::RatingEvent::Remove(u, profile[rng.Below(profile.size())]);
        ++removes;
      }
      if (!ingest.Submit(event).ok()) return 1;
      ingest.DrainOnce();
    }
    ingest.Flush();  // the round's epoch, unless the cadence published it

    // Score the published, repaired graph against the ground truth of
    // the mutated profiles.
    const gf::SnapshotPtr epoch = store.Acquire();
    auto truth = ProfilesOf(store.write_side(), spec.num_items);
    if (!truth.ok()) return 1;
    const gf::KnnGraph exact =
        gf::BruteForceKnn(gf::ExactJaccardProvider(*truth), kK).value();
    const double q =
        gf::GraphQuality(gf::AverageExactSimilarity(*epoch->graph(), *truth),
                         gf::AverageExactSimilarity(exact, *truth));
    std::printf(
        "epoch %llu: +%d/-%d events (%llu applied), repaired graph "
        "quality vs fresh exact graph = %.3f\n",
        static_cast<unsigned long long>(epoch->epoch()), adds, removes,
        static_cast<unsigned long long>(ingest.EventsApplied() -
                                        applied_before),
        q);
  }

  // The last epoch was stitched from its predecessors, one dirty row at
  // a time; it must equal fingerprinting the final profiles afresh.
  auto final_profiles = ProfilesOf(store.write_side(), spec.num_items);
  if (!final_profiles.ok()) return 1;
  auto rebuilt = gf::FingerprintStore::Build(*final_profiles, config);
  if (!rebuilt.ok()) return 1;
  const gf::SnapshotPtr last = store.Acquire();
  const auto live_words = last->store().WordsArena();
  const auto want_words = rebuilt->WordsArena();
  const auto live_cards = last->store().Cardinalities();
  const auto want_cards = rebuilt->Cardinalities();
  const bool same =
      std::equal(live_words.begin(), live_words.end(), want_words.begin(),
                 want_words.end()) &&
      std::equal(live_cards.begin(), live_cards.end(), want_cards.begin(),
                 want_cards.end());
  std::printf("final epoch %llu %s a from-scratch rebuild of the profiles\n",
              static_cast<unsigned long long>(last->epoch()),
              same ? "is bit-identical to" : "DIFFERS from");
  return same ? 0 : 1;
}
