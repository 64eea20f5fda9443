// IngestService: deterministic stepping-mode coverage (cadence,
// metrics, graph repair identity) plus the concurrent ingest + pinned
// readers stress that the CI TSan job runs.

#include "knn/ingest.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "knn/brute_force.h"
#include "knn/query.h"
#include "knn/similarity_provider.h"
#include "knn/snapshot_query.h"
#include "obs/metrics.h"
#include "obs/pipeline_context.h"

namespace gf {
namespace {

FingerprintConfig SmallConfig(std::size_t bits = 256) {
  FingerprintConfig config;
  config.num_bits = bits;
  return config;
}

Result<Dataset> RandomDataset(std::size_t users, std::size_t items,
                              std::size_t mean_profile, Rng& rng) {
  std::vector<std::vector<ItemId>> profiles(users);
  for (auto& p : profiles) {
    const std::size_t len = 1 + rng.Below(2 * mean_profile);
    for (std::size_t i = 0; i < len; ++i) {
      p.push_back(static_cast<ItemId>(rng.Below(items)));
    }
  }
  return Dataset::FromProfiles(std::move(profiles), items);
}

void ExpectGraphsIdentical(const KnnGraph& a, const KnnGraph& b) {
  ASSERT_EQ(a.NumUsers(), b.NumUsers());
  ASSERT_EQ(a.k(), b.k());
  for (UserId u = 0; u < a.NumUsers(); ++u) {
    const auto na = a.NeighborsOf(u);
    const auto nb = b.NeighborsOf(u);
    ASSERT_EQ(na.size(), nb.size()) << "user " << u;
    for (std::size_t i = 0; i < na.size(); ++i) {
      EXPECT_EQ(na[i].id, nb[i].id) << "user " << u << " slot " << i;
      EXPECT_EQ(na[i].similarity, nb[i].similarity)
          << "user " << u << " slot " << i;
    }
  }
}

TEST(IngestServiceTest, SteppingModePublishesOnCadenceWithFreshnessLag) {
  FakeClock clock;
  obs::MetricRegistry registry;
  obs::PipelineContext obs{.metrics = &registry, .clock = &clock};

  auto write = MutableFingerprintStore::Create(SmallConfig(), 16);
  ASSERT_TRUE(write.ok());
  VersionedStore store(std::move(write).value(), nullptr, &clock);

  IngestService::Options options;
  options.publish_every = 4;
  options.start_worker = false;
  IngestService service(&store, options, &obs);

  // Three events at t=100 are below the cadence: applied, unpublished.
  clock.Advance(100);
  for (ItemId item : {10, 20, 30}) {
    ASSERT_TRUE(service.Submit(RatingEvent::Add(2, item)).ok());
  }
  EXPECT_EQ(service.DrainOnce(), 3u);
  EXPECT_EQ(store.epoch(), 0u);
  EXPECT_EQ(store.Acquire()->store().CardinalityOf(2), 0u)
      << "readers must not see unpublished events";

  // The fourth event crosses the threshold: epoch 1 publishes at
  // t=350, so the earlier events aged 250 micros and this one 0.
  clock.Advance(250);
  ASSERT_TRUE(service.Submit(RatingEvent::Add(3, 40)).ok());
  EXPECT_EQ(service.DrainOnce(), 1u);
  EXPECT_EQ(store.epoch(), 1u);
  EXPECT_EQ(store.Acquire()->store().CardinalityOf(2), 3u);

  EXPECT_EQ(registry.FindCounter("ingest.events")->value(), 4u);
  EXPECT_EQ(registry.FindCounter("ingest.publishes")->value(), 1u);
  EXPECT_EQ(registry.FindGauge("ingest.epoch")->value(), 1.0);
  const obs::Histogram* lag =
      registry.FindHistogram("ingest.freshness_lag_micros");
  ASSERT_NE(lag, nullptr);
  EXPECT_EQ(lag->count(), 4u);
  EXPECT_EQ(lag->sum(), 3 * 250.0 + 0.0);
  EXPECT_EQ(service.EventsApplied(), 4u);
  EXPECT_EQ(service.EpochsPublished(), 1u);
}

TEST(IngestServiceTest, FullQueueRejectsWithUnavailable) {
  auto write = MutableFingerprintStore::Create(SmallConfig(), 4);
  ASSERT_TRUE(write.ok());
  VersionedStore store(std::move(write).value());
  obs::MetricRegistry registry;
  obs::PipelineContext obs{.metrics = &registry};

  IngestService::Options options;
  options.max_queue = 2;
  options.start_worker = false;
  IngestService service(&store, options, &obs);

  EXPECT_TRUE(service.Submit(RatingEvent::Add(0, 1)).ok());
  EXPECT_TRUE(service.Submit(RatingEvent::Add(0, 2)).ok());
  const Status full = service.Submit(RatingEvent::Add(0, 3));
  EXPECT_EQ(full.code(), StatusCode::kUnavailable);
  EXPECT_EQ(registry.FindCounter("ingest.rejected")->value(), 1u);
  EXPECT_EQ(service.QueueDepth(), 2u);
}

TEST(IngestServiceTest, NoopEventsNeverPublish) {
  auto write = MutableFingerprintStore::Create(SmallConfig(), 4);
  ASSERT_TRUE(write.ok());
  VersionedStore store(std::move(write).value());
  obs::MetricRegistry registry;
  obs::PipelineContext obs{.metrics = &registry};

  IngestService::Options options;
  options.publish_every = 1;
  options.start_worker = false;
  IngestService service(&store, options, &obs);

  ASSERT_TRUE(service.Submit(RatingEvent::Remove(0, 99)).ok());  // absent
  ASSERT_TRUE(service.Submit(RatingEvent::Add(9, 1)).ok());      // bad user
  EXPECT_EQ(service.DrainOnce(), 2u);
  service.Flush();
  EXPECT_EQ(store.epoch(), 0u) << "no state change, no epoch";
  EXPECT_EQ(registry.FindCounter("ingest.noops")->value(), 2u);
  EXPECT_EQ(registry.FindCounter("ingest.events")->value(), 0u);
}

// The repair path is deterministic: the published graph must be
// edge-for-edge the RefreshKnnGraph of the previous graph over the
// staged store with the dirty users as the changed set.
TEST(IngestServiceTest, PublishedGraphMatchesReferenceRefresh) {
  Rng rng(0x1C0FFEE);
  constexpr std::size_t kUsers = 30;
  constexpr std::size_t kItems = 200;
  constexpr std::size_t kK = 5;
  auto dataset = RandomDataset(kUsers, kItems, 12, rng);
  ASSERT_TRUE(dataset.ok());
  const FingerprintConfig config = SmallConfig();

  auto write = MutableFingerprintStore::FromDataset(*dataset, config);
  ASSERT_TRUE(write.ok());
  MutableFingerprintStore reference = *write;  // mirrored copy

  const FingerprintStore epoch0 = write->Materialize();
  const GoldFingerProvider provider0(epoch0);
  auto graph0 =
      std::make_shared<const KnnGraph>(BruteForceKnn(provider0, kK).value());

  VersionedStore store(std::move(write).value(), graph0);
  obs::MetricRegistry registry;
  obs::PipelineContext obs{.metrics = &registry};
  IngestService::Options options;
  options.publish_every = 6;
  options.start_worker = false;
  IngestService service(&store, options, &obs);

  // Items >= kItems are fresh, so every add below is guaranteed to be
  // accepted (no collision with the random dataset).
  const std::vector<RatingEvent> events = {
      RatingEvent::Add(3, kItems + 1),  RatingEvent::Add(3, kItems + 2),
      RatingEvent::Add(17, kItems + 3), RatingEvent::Add(5, kItems + 4),
      RatingEvent::Add(23, kItems + 5), RatingEvent::Add(17, kItems + 6),
  };
  for (const RatingEvent& event : events) {
    ASSERT_TRUE(service.Submit(event).ok());
    ASSERT_TRUE(reference.Apply(event));
  }
  EXPECT_EQ(service.DrainOnce(), events.size());
  ASSERT_EQ(store.epoch(), 1u);

  const SnapshotPtr snap = store.Acquire();
  ASSERT_NE(snap->graph(), nullptr);

  const FingerprintStore expected_store = reference.Materialize();
  const auto ref_provider = [&expected_store](UserId a, UserId b) {
    return expected_store.EstimateJaccard(a, b);
  };
  const KnnGraph expected =
      RefreshKnnGraph(*graph0, ref_provider, {3, 5, 17, 23});
  ExpectGraphsIdentical(*snap->graph(), expected);
  EXPECT_EQ(registry.FindCounter("ingest.refresh_users")->value(), 4u);
}

TEST(IngestServiceTest, WorkerModeDrainsAndShutdownPublishesTail) {
  Rng rng(0xBEEF02);
  auto dataset = RandomDataset(64, 300, 10, rng);
  ASSERT_TRUE(dataset.ok());
  auto write = MutableFingerprintStore::FromDataset(*dataset, SmallConfig());
  ASSERT_TRUE(write.ok());
  MutableFingerprintStore reference = *write;
  VersionedStore store(std::move(write).value());

  IngestService::Options options;
  options.publish_every = 16;
  IngestService service(&store, options);

  std::vector<RatingEvent> events;
  for (std::size_t i = 0; i < 100; ++i) {
    events.push_back(RatingEvent::Add(static_cast<UserId>(rng.Below(64)),
                                      static_cast<ItemId>(300 + i)));
  }
  for (const RatingEvent& event : events) {
    ASSERT_TRUE(service.Submit(event).ok());
    reference.Apply(event);
  }
  service.Shutdown();

  EXPECT_EQ(service.EventsApplied(), 100u);
  EXPECT_GE(store.epoch(), 100u / 16u) << "cadence publishes plus the tail";
  const SnapshotPtr snap = store.Acquire();
  const FingerprintStore expected = reference.Materialize();
  const auto wa = snap->store().WordsArena();
  const auto wb = expected.WordsArena();
  ASSERT_EQ(wa.size(), wb.size());
  EXPECT_TRUE(std::equal(wa.begin(), wa.end(), wb.begin()));
  EXPECT_EQ(service.Submit(RatingEvent::Add(0, 1)).code(),
            StatusCode::kUnavailable)
      << "intake closed after shutdown";
}

// What readers see, not just the write side: a seeded 70/30 add/remove
// stream drained in stepping mode across several cadence publishes
// leaves a current epoch that is bit-identical to fingerprinting the
// write side's final profiles from scratch, and a pinned batch over
// that epoch equals the scan of it.
TEST(IngestServiceTest, PublishedEpochMatchesRebuildOfWriteSide) {
  Rng rng(0x16E57);
  constexpr std::size_t kUsers = 300;
  constexpr std::size_t kItems = 400;
  constexpr std::size_t kK = 10;
  auto dataset = RandomDataset(kUsers, kItems, 12, rng);
  ASSERT_TRUE(dataset.ok());
  auto write =
      MutableFingerprintStore::FromDataset(*dataset, SmallConfig(1024));
  ASSERT_TRUE(write.ok());
  VersionedStore store(std::move(write).value());
  SnapshotQueryEngine engine(&store);

  IngestService::Options options;
  options.publish_every = 128;
  options.start_worker = false;
  IngestService service(&store, options);
  for (std::size_t e = 0; e < 2000; ++e) {
    const auto user = static_cast<UserId>(rng.Below(kUsers));
    const auto item = static_cast<ItemId>(rng.Below(kItems));
    const RatingEvent event = rng.Below(10) < 7
                                  ? RatingEvent::Add(user, item)
                                  : RatingEvent::Remove(user, item);
    ASSERT_TRUE(service.Submit(event).ok());
  }
  while (service.DrainOnce() > 0) {
  }
  service.Flush();
  EXPECT_GE(store.epoch(), 4u) << "several epochs must publish";

  const SnapshotPtr snapshot = store.Acquire();
  const MutableFingerprintStore& side = store.write_side();
  std::vector<std::vector<ItemId>> profiles(side.num_users());
  for (UserId u = 0; u < side.num_users(); ++u) {
    const auto profile = side.ProfileOf(u);
    profiles[u].assign(profile.begin(), profile.end());
  }
  auto ratings = Dataset::FromProfiles(std::move(profiles), kItems);
  ASSERT_TRUE(ratings.ok());
  auto rebuilt = FingerprintStore::Build(*ratings, side.config());
  ASSERT_TRUE(rebuilt.ok());
  const auto live_words = snapshot->store().WordsArena();
  const auto want_words = rebuilt->WordsArena();
  ASSERT_EQ(live_words.size(), want_words.size());
  EXPECT_TRUE(std::equal(live_words.begin(), live_words.end(),
                         want_words.begin()));
  const auto live_cards = snapshot->store().Cardinalities();
  const auto want_cards = rebuilt->Cardinalities();
  ASSERT_EQ(live_cards.size(), want_cards.size());
  EXPECT_TRUE(std::equal(live_cards.begin(), live_cards.end(),
                         want_cards.begin()));

  std::vector<Shf> queries;
  for (std::size_t q = 0; q < 33; ++q) {
    queries.push_back(
        snapshot->store().Extract(static_cast<UserId>(rng.Below(kUsers))));
  }
  auto pinned = engine.QueryBatchPinned(queries, kK);
  ASSERT_TRUE(pinned.ok());
  EXPECT_EQ(pinned->snapshot, snapshot);
  const auto want = ScanQueryEngine(pinned->snapshot).QueryBatch(queries, kK);
  ASSERT_TRUE(want.ok());
  ASSERT_EQ(pinned->results.size(), want->size());
  for (std::size_t q = 0; q < want->size(); ++q) {
    ASSERT_EQ(pinned->results[q].size(), (*want)[q].size()) << "query " << q;
    for (std::size_t j = 0; j < (*want)[q].size(); ++j) {
      EXPECT_EQ(pinned->results[q][j].id, (*want)[q][j].id)
          << "query " << q << " slot " << j;
      EXPECT_EQ(pinned->results[q][j].similarity, (*want)[q][j].similarity)
          << "query " << q << " slot " << j;
    }
  }
}

// The TSan stress (wired into the CI tsan job): producers hammer the
// ingest queue while reader threads run pinned query batches across
// epoch churn, each batch verified bit-exact against a fresh scan of
// its own pinned snapshot. Any torn read, unsynchronized publish or
// engine-cache race shows up as a TSan report or a mismatch.
TEST(IngestServiceTest, ConcurrentIngestAndPinnedReadersStayBitExact) {
  Rng rng(0x57E55);
  constexpr std::size_t kUsers = 200;
  constexpr std::size_t kItems = 500;
  constexpr std::size_t kK = 5;
  auto dataset = RandomDataset(kUsers, kItems, 8, rng);
  ASSERT_TRUE(dataset.ok());
  const FingerprintConfig config = SmallConfig();
  auto write = MutableFingerprintStore::FromDataset(*dataset, config);
  ASSERT_TRUE(write.ok());
  const FingerprintStore query_pool = write->Materialize();
  VersionedStore store(std::move(write).value());

  obs::MetricRegistry registry;
  obs::PipelineContext obs{.metrics = &registry};

  IngestService::Options ingest_options;
  ingest_options.publish_every = 64;  // heavy epoch churn
  IngestService service(&store, ingest_options, &obs);

  SnapshotQueryEngine::Options query_options;
  query_options.num_shards = 3;
  SnapshotQueryEngine engine(&store, query_options, nullptr, &obs);

  std::atomic<bool> done{false};
  std::thread producer([&] {
    Rng prng(0xFEED01);
    for (std::size_t i = 0; i < 4000; ++i) {
      RatingEvent event =
          prng.Bernoulli(0.7)
              ? RatingEvent::Add(static_cast<UserId>(prng.Below(kUsers)),
                                 static_cast<ItemId>(prng.Below(kItems)))
              : RatingEvent::Remove(static_cast<UserId>(prng.Below(kUsers)),
                                    static_cast<ItemId>(prng.Below(kItems)));
      // Rejection under pressure is admission control working; just
      // move on — correctness is the readers' concern.
      (void)service.Submit(event);
      if (i % 512 == 0) std::this_thread::yield();
    }
    done.store(true, std::memory_order_release);
  });

  std::vector<std::thread> readers;
  std::atomic<int> failures{0};
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      Rng qrng(0xAB0 + static_cast<uint64_t>(r));
      for (int batch = 0; batch < 40; ++batch) {
        std::vector<Shf> queries;
        for (int q = 0; q < 8; ++q) {
          queries.push_back(
              query_pool.Extract(static_cast<UserId>(qrng.Below(kUsers))));
        }
        auto pinned = engine.QueryBatchPinned(queries, kK);
        if (!pinned.ok()) {
          failures.fetch_add(1);
          continue;
        }
        // Verify against an independent scan of the SAME epoch.
        const ScanQueryEngine scan(pinned->snapshot);
        auto expected = scan.QueryBatch(queries, kK);
        if (!expected.ok() || expected->size() != pinned->results.size()) {
          failures.fetch_add(1);
          continue;
        }
        for (std::size_t i = 0; i < expected->size(); ++i) {
          const auto& want = (*expected)[i];
          const auto& got = pinned->results[i];
          if (want.size() != got.size()) {
            failures.fetch_add(1);
            continue;
          }
          for (std::size_t j = 0; j < want.size(); ++j) {
            if (want[j].id != got[j].id ||
                want[j].similarity != got[j].similarity) {
              failures.fetch_add(1);
            }
          }
        }
      }
    });
  }

  producer.join();
  for (auto& t : readers) t.join();
  service.Shutdown();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(service.EventsApplied(), 0u);
  EXPECT_GT(store.epoch(), 0u);
  // With the engine's cache dropped, only the current epoch survives.
  EXPECT_LE(store.LiveSnapshots(), 2);
}

}  // namespace
}  // namespace gf
