// The write path of online ingestion (DESIGN.md §15): set-disciplined
// event application, rebuild-identity of materialized and stitched
// epochs, and the epoch/RCU lifecycle of VersionedStore.

#include "core/versioned_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "core/sharded_store.h"
#include "core/shf.h"
#include "core/store_snapshot.h"
#include "knn/graph.h"

namespace gf {
namespace {

FingerprintConfig SmallConfig(std::size_t bits = 256) {
  FingerprintConfig config;
  config.num_bits = bits;
  return config;
}

Result<Dataset> DatasetFrom(const std::vector<std::set<ItemId>>& profiles,
                            std::size_t num_items) {
  std::vector<std::vector<ItemId>> rows;
  rows.reserve(profiles.size());
  for (const auto& p : profiles) rows.emplace_back(p.begin(), p.end());
  return Dataset::FromProfiles(std::move(rows), num_items);
}

// Bit-for-bit store equality: the property the whole seam rests on.
void ExpectStoresIdentical(const FingerprintStore& a,
                           const FingerprintStore& b) {
  ASSERT_EQ(a.num_users(), b.num_users());
  ASSERT_EQ(a.num_bits(), b.num_bits());
  const auto wa = a.WordsArena();
  const auto wb = b.WordsArena();
  ASSERT_EQ(wa.size(), wb.size());
  EXPECT_TRUE(std::equal(wa.begin(), wa.end(), wb.begin()));
  const auto ca = a.Cardinalities();
  const auto cb = b.Cardinalities();
  ASSERT_EQ(ca.size(), cb.size());
  EXPECT_TRUE(std::equal(ca.begin(), ca.end(), cb.begin()));
}

TEST(MutableStoreTest, CreateValidatesConfig) {
  EXPECT_FALSE(MutableFingerprintStore::Create(SmallConfig(0), 1).ok());
  EXPECT_FALSE(MutableFingerprintStore::Create(SmallConfig(100), 1).ok());
  EXPECT_TRUE(MutableFingerprintStore::Create(SmallConfig(64), 1).ok());
  FingerprintConfig no_hash = SmallConfig();
  no_hash.hashes_per_item = 0;
  EXPECT_FALSE(MutableFingerprintStore::Create(no_hash, 1).ok());
}

TEST(MutableStoreTest, SetDisciplineRejectsDuplicatesAndAbsentRemoves) {
  auto store = MutableFingerprintStore::Create(SmallConfig(), 4);
  ASSERT_TRUE(store.ok());
  EXPECT_TRUE(store->Add(0, 7));
  EXPECT_FALSE(store->Add(0, 7)) << "duplicate add must be a no-op";
  EXPECT_FALSE(store->Remove(0, 9)) << "removing an absent item";
  EXPECT_TRUE(store->Remove(0, 7));
  EXPECT_FALSE(store->Remove(0, 7)) << "double remove";
  EXPECT_FALSE(store->Add(4, 1)) << "out-of-range user";
  EXPECT_FALSE(store->Remove(4, 1)) << "out-of-range user";
  EXPECT_EQ(store->applied_events(), 2u);  // the accepted add + remove
}

TEST(MutableStoreTest, FromDatasetMatchesBatchBuild) {
  Rng rng(0xD5EE01);
  std::vector<std::vector<ItemId>> profiles(40);
  for (auto& p : profiles) {
    const std::size_t len = rng.Below(30);
    for (std::size_t i = 0; i < len; ++i) {
      p.push_back(static_cast<ItemId>(rng.Below(400)));
    }
  }
  auto dataset = Dataset::FromProfiles(profiles, 400);
  ASSERT_TRUE(dataset.ok());
  const FingerprintConfig config = SmallConfig();
  auto mutable_store = MutableFingerprintStore::FromDataset(*dataset, config);
  ASSERT_TRUE(mutable_store.ok());
  auto batch = FingerprintStore::Build(*dataset, config);
  ASSERT_TRUE(batch.ok());
  ExpectStoresIdentical(mutable_store->Materialize(), *batch);
  EXPECT_EQ(mutable_store->applied_events(), 0u)
      << "seeding is baseline, not live churn";
  EXPECT_TRUE(mutable_store->TakeDirty().empty());
}

// The satellite property test: a randomized add/remove event stream
// must leave every published epoch, and the materialized write side,
// bit-identical to a FingerprintStore rebuilt from scratch over the
// same ratings — cardinalities included, zero-cardinality users
// included. Each checkpoint publishes through a VersionedStore, so
// stitched epochs build on stitched epochs; checkpoints 13 events
// apart leave most rows clean, carried over from the previous epoch.
// The last seed hashes every item to three bits.
TEST(MutableStoreTest, RandomEventStreamMatchesRebuildFromScratch) {
  constexpr std::size_t kUsers = 48;
  constexpr std::size_t kItems = 600;
  constexpr std::size_t kEvents = 3000;
  const std::pair<uint64_t, std::size_t> runs[] = {
      {0x11AAu, 1}, {0x22BBu, 1}, {0x33CCu, 1}, {0x44DDu, 3}};
  for (const auto& [seed, hashes_per_item] : runs) {
    Rng rng(seed);
    FingerprintConfig config = SmallConfig();
    config.hashes_per_item = hashes_per_item;
    auto write = MutableFingerprintStore::Create(config, kUsers);
    ASSERT_TRUE(write.ok());
    VersionedStore versioned(std::move(write).value());
    MutableFingerprintStore& store = versioned.write_side();
    std::vector<std::set<ItemId>> reference(kUsers);

    for (std::size_t e = 0; e < kEvents; ++e) {
      const auto user = static_cast<UserId>(rng.Below(kUsers));
      const auto item = static_cast<ItemId>(rng.Below(kItems));
      // Biased toward adds so profiles grow, with enough removes to
      // exercise bit-clearing and colliding items.
      if (rng.Bernoulli(0.65)) {
        const bool accepted = store.Add(user, item);
        EXPECT_EQ(accepted, reference[user].insert(item).second);
      } else {
        const bool accepted = store.Remove(user, item);
        EXPECT_EQ(accepted, reference[user].erase(item) == 1);
      }

      // Check mid-stream too: every prefix state must be rebuildable,
      // not just the final one.
      if (e % 13 == 0 || e + 1 == kEvents) {
        auto dataset = DatasetFrom(reference, kItems);
        ASSERT_TRUE(dataset.ok());
        auto rebuilt = FingerprintStore::Build(*dataset, config);
        ASSERT_TRUE(rebuilt.ok());
        ExpectStoresIdentical(versioned.Publish()->store(), *rebuilt);
        ExpectStoresIdentical(store.Materialize(), *rebuilt);
      }
    }

    // Per-user profile agreement (the truth set behind the bits).
    for (UserId u = 0; u < kUsers; ++u) {
      const auto profile = store.ProfileOf(u);
      ASSERT_EQ(profile.size(), reference[u].size());
      EXPECT_TRUE(std::equal(profile.begin(), profile.end(),
                             reference[u].begin()));
    }
  }
}

TEST(MutableStoreTest, DrainedUsersReachZeroCardinality) {
  auto store = MutableFingerprintStore::Create(SmallConfig(), 3);
  ASSERT_TRUE(store.ok());
  const std::vector<ItemId> items = {3, 99, 250, 511};
  for (ItemId item : items) ASSERT_TRUE(store->Add(1, item));
  EXPECT_GT(store->Materialize().CardinalityOf(1), 0u);
  for (ItemId item : items) ASSERT_TRUE(store->Remove(1, item));
  const FingerprintStore materialized = store->Materialize();
  EXPECT_EQ(materialized.CardinalityOf(1), 0u);
  for (uint64_t word : materialized.WordsOf(1)) EXPECT_EQ(word, 0u);
  // And the rebuilt store agrees: user 1 is empty there too.
  auto dataset = Dataset::FromProfiles(
      {{1, 2}, {}, {5}}, 600);
  ASSERT_TRUE(dataset.ok());
  ASSERT_TRUE(store->Add(0, 1));
  ASSERT_TRUE(store->Add(0, 2));
  ASSERT_TRUE(store->Add(2, 5));
  auto rebuilt = FingerprintStore::Build(*dataset, SmallConfig());
  ASSERT_TRUE(rebuilt.ok());
  ExpectStoresIdentical(store->Materialize(), *rebuilt);
}

// More than 255 of a user's items on one bit: the bit stays while any
// of them is left and clears with the last, as a rebuild has it.
// (Per-bit 8-bit counters saturated at 255 and left it set for good.)
TEST(MutableStoreTest, BitSharedByManyItemsClearsWithThem) {
  const FingerprintConfig config = SmallConfig(64);
  auto fp = Fingerprinter::Create(config);
  ASSERT_TRUE(fp.ok());
  const std::size_t bit = fp->BitFor(0);
  std::vector<ItemId> colliding;
  std::vector<ItemId> others;
  for (ItemId item = 0; item < 100000 && colliding.size() < 300; ++item) {
    (fp->BitFor(item) == bit ? colliding : others).push_back(item);
  }
  ASSERT_EQ(colliding.size(), 300u);
  const ItemId other = others.front();

  auto write = MutableFingerprintStore::Create(config, 1);
  ASSERT_TRUE(write.ok());
  VersionedStore store(std::move(write).value());
  for (ItemId item : colliding) {
    ASSERT_TRUE(store.Apply(RatingEvent::Add(0, item)));
  }
  ASSERT_TRUE(store.Apply(RatingEvent::Add(0, other)));
  EXPECT_EQ(store.Publish()->store().CardinalityOf(0), 2u);
  for (std::size_t i = 1; i < colliding.size(); ++i) {
    ASSERT_TRUE(store.Apply(RatingEvent::Remove(0, colliding[i])));
  }
  EXPECT_EQ(store.Publish()->store().CardinalityOf(0), 2u)
      << "the bit must survive: colliding[0] still maps there";
  ASSERT_TRUE(store.Apply(RatingEvent::Remove(0, colliding[0])));
  const SnapshotPtr epoch = store.Publish();

  auto dataset = Dataset::FromProfiles({{other}}, other + 1);
  ASSERT_TRUE(dataset.ok());
  auto rebuilt = FingerprintStore::Build(*dataset, config);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(epoch->store().CardinalityOf(0), 1u) << "a rebuild reads 1";
  ExpectStoresIdentical(epoch->store(), *rebuilt);
}

TEST(MutableStoreTest, MultiHashAddRemoveConsistent) {
  FingerprintConfig config = SmallConfig();
  config.hashes_per_item = 3;
  auto fp = Fingerprinter::Create(config);
  ASSERT_TRUE(fp.ok());
  auto write = MutableFingerprintStore::Create(config, 2);
  ASSERT_TRUE(write.ok());
  VersionedStore store(std::move(write).value());
  ASSERT_TRUE(store.Apply(RatingEvent::Add(1, 11)));
  const uint32_t card_one = store.Publish()->store().CardinalityOf(1);
  EXPECT_GE(card_one, 1u);
  EXPECT_LE(card_one, 3u);
  EXPECT_EQ(card_one, fp->Fingerprint(std::vector<ItemId>{11}).cardinality());
  ASSERT_TRUE(store.Apply(RatingEvent::Remove(1, 11)));
  EXPECT_EQ(store.Publish()->store().CardinalityOf(1), 0u);
}

TEST(MutableStoreTest, TakeDirtyIsSortedDedupedAndClears) {
  auto store = MutableFingerprintStore::Create(SmallConfig(), 10);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Add(7, 1));
  ASSERT_TRUE(store->Add(2, 1));
  ASSERT_TRUE(store->Add(7, 2));  // 7 touched twice, reported once
  ASSERT_TRUE(store->Add(5, 1));     // accepted, then...
  ASSERT_TRUE(store->Remove(5, 1));  // ...reverted: still dirty
  const std::vector<UserId> dirty = store->TakeDirty();
  EXPECT_EQ(dirty, (std::vector<UserId>{2, 5, 7}));
  EXPECT_TRUE(store->TakeDirty().empty());
  ASSERT_TRUE(store->Add(3, 4));
  EXPECT_EQ(store->TakeDirty(), (std::vector<UserId>{3}));
}

// One user's fingerprint under add and remove, read back as an Shf and
// held against Fingerprinter::Fingerprint of the profile. The suite
// keeps the name it had while a per-bit counting fingerprint
// (CountingShf) held this state; the write side now refills the row
// from the profile.
TEST(CountingShfTest, AddSetsBitsLikeFingerprinter) {
  const FingerprintConfig config = SmallConfig(512);
  auto fp = Fingerprinter::Create(config);
  ASSERT_TRUE(fp.ok());
  auto write = MutableFingerprintStore::Create(config, 1);
  ASSERT_TRUE(write.ok());
  VersionedStore store(std::move(write).value());

  const std::vector<ItemId> profile = {3, 17, 99, 1234, 777};
  for (ItemId item : profile) {
    ASSERT_TRUE(store.Apply(RatingEvent::Add(0, item)));
  }
  const Shf expected = fp->Fingerprint(profile);
  const SnapshotPtr epoch = store.Publish();
  EXPECT_EQ(epoch->store().Extract(0), expected);
  EXPECT_EQ(epoch->store().CardinalityOf(0), expected.cardinality());
  EXPECT_EQ(store.write_side().Materialize().Extract(0), expected);
}

TEST(CountingShfTest, AddRemoveRoundTrip) {
  auto write = MutableFingerprintStore::Create(SmallConfig(), 1);
  ASSERT_TRUE(write.ok());
  VersionedStore store(std::move(write).value());
  ASSERT_TRUE(store.Apply(RatingEvent::Add(0, 42)));
  ASSERT_TRUE(store.Apply(RatingEvent::Add(0, 43)));
  EXPECT_EQ(store.Publish()->store().CardinalityOf(0), 2u);
  ASSERT_TRUE(store.Apply(RatingEvent::Remove(0, 42)));
  EXPECT_EQ(store.Publish()->store().CardinalityOf(0), 1u);
  ASSERT_TRUE(store.Apply(RatingEvent::Remove(0, 43)));
  const SnapshotPtr epoch = store.Publish();
  EXPECT_EQ(epoch->store().CardinalityOf(0), 0u);
  EXPECT_EQ(epoch->store().Extract(0), *Shf::Create(256));
}

TEST(CountingShfTest, RemoveAbsentItemFailsGently) {
  auto store = MutableFingerprintStore::Create(SmallConfig(), 1);
  ASSERT_TRUE(store.ok());
  EXPECT_FALSE(store->Remove(0, 42));
  EXPECT_TRUE(store->TakeDirty().empty()) << "a rejected remove is no edit";
  ASSERT_TRUE(store->Add(0, 42));
  EXPECT_TRUE(store->Remove(0, 42));
  EXPECT_FALSE(store->Remove(0, 42));
  EXPECT_EQ(store->applied_events(), 2u);
  EXPECT_EQ(store->Materialize().CardinalityOf(0), 0u);
}

// Random add/remove churn on one user: every published epoch's row must
// equal a from-scratch fingerprint of the items the user rates then.
TEST(CountingShfTest, DynamicUpdateTracksRebuiltFingerprint) {
  const FingerprintConfig config = SmallConfig(256);
  auto fp = Fingerprinter::Create(config);
  ASSERT_TRUE(fp.ok());
  auto write = MutableFingerprintStore::Create(config, 1);
  ASSERT_TRUE(write.ok());
  VersionedStore store(std::move(write).value());

  Rng rng(5);
  std::set<ItemId> reference;
  for (int step = 0; step < 2000; ++step) {
    const auto item = static_cast<ItemId>(rng.Below(200));
    if (rng.Bernoulli(0.55)) {
      EXPECT_EQ(store.Apply(RatingEvent::Add(0, item)),
                reference.insert(item).second);
    } else {
      EXPECT_EQ(store.Apply(RatingEvent::Remove(0, item)),
                reference.erase(item) == 1);
    }
    if (step % 100 == 99) {
      const std::vector<ItemId> support(reference.begin(), reference.end());
      EXPECT_EQ(store.Publish()->store().Extract(0),
                fp->Fingerprint(support))
          << "after step " << step;
    }
  }
}

TEST(VersionedStoreTest, PublishesEpochZeroAtConstruction) {
  auto write = MutableFingerprintStore::Create(SmallConfig(), 8);
  ASSERT_TRUE(write.ok());
  VersionedStore store(std::move(write).value());
  const SnapshotPtr snap = store.Acquire();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->epoch(), 0u);
  EXPECT_EQ(snap->store().num_users(), 8u);
  EXPECT_EQ(store.epoch(), 0u);
}

TEST(VersionedStoreTest, ReadersPinTheirEpochWhileWriterAdvances) {
  FakeClock clock;
  auto write = MutableFingerprintStore::Create(SmallConfig(), 8);
  ASSERT_TRUE(write.ok());
  VersionedStore store(std::move(write).value(), nullptr, &clock);

  const SnapshotPtr pinned = store.Acquire();  // a long-running batch
  EXPECT_EQ(pinned->store().CardinalityOf(3), 0u);

  ASSERT_TRUE(store.Apply(RatingEvent::Add(3, 42)));
  ASSERT_TRUE(store.Apply(RatingEvent::Add(3, 99)));
  clock.Advance(250);
  const SnapshotPtr fresh = store.Publish();

  EXPECT_EQ(fresh->epoch(), 1u);
  EXPECT_EQ(store.epoch(), 1u);
  EXPECT_EQ(fresh->published_micros(), 250u);
  EXPECT_EQ(fresh->store().CardinalityOf(3), 2u);
  // The pinned epoch is untouched: immutable-after-publish.
  EXPECT_EQ(pinned->epoch(), 0u);
  EXPECT_EQ(pinned->store().CardinalityOf(3), 0u);
  // And Acquire now returns the new epoch.
  EXPECT_EQ(store.Acquire()->epoch(), 1u);
}

TEST(VersionedStoreTest, LiveSnapshotAccountingRetiresDroppedEpochs) {
  auto write = MutableFingerprintStore::Create(SmallConfig(), 4);
  ASSERT_TRUE(write.ok());
  VersionedStore store(std::move(write).value());
  EXPECT_EQ(store.LiveSnapshots(), 1) << "the current epoch itself";

  SnapshotPtr held = store.Acquire();  // same epoch object: still 1
  EXPECT_EQ(store.LiveSnapshots(), 1);

  ASSERT_TRUE(store.Apply(RatingEvent::Add(0, 1)));
  store.Publish();
  EXPECT_EQ(store.LiveSnapshots(), 2) << "old epoch pinned by reader";

  held.reset();
  EXPECT_EQ(store.LiveSnapshots(), 1) << "last reader retired epoch 0";

  // Publishing with no external readers retires each old epoch as the
  // swap drops it.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(store.Apply(RatingEvent::Add(1, 10 + i)));
    store.Publish();
  }
  EXPECT_EQ(store.LiveSnapshots(), 1);
  EXPECT_EQ(store.epoch(), 6u);
}

TEST(VersionedStoreTest, StagedEpochCarriesDirtyUsersAndGraph) {
  auto write = MutableFingerprintStore::Create(SmallConfig(), 6);
  ASSERT_TRUE(write.ok());
  VersionedStore store(std::move(write).value());
  ASSERT_TRUE(store.Apply(RatingEvent::Add(4, 7)));
  ASSERT_TRUE(store.Apply(RatingEvent::Add(2, 7)));

  VersionedStore::Staged staged = store.Stage();
  EXPECT_EQ(staged.epoch, 1u);
  EXPECT_EQ(staged.dirty, (std::vector<UserId>{2, 4}));
  EXPECT_EQ(staged.store.CardinalityOf(4), 1u);

  // Attach a graph at commit; Publish(nullptr) then carries it.
  auto graph = std::make_shared<const KnnGraph>();
  const SnapshotPtr snap = store.Commit(std::move(staged), graph);
  EXPECT_EQ(snap->graph(), graph);
  ASSERT_TRUE(store.Apply(RatingEvent::Add(1, 3)));
  EXPECT_EQ(store.Publish()->graph(), graph)
      << "store-only publish carries the previous epoch's graph";
}

TEST(VersionedStoreTest, SnapshotsOutliveTheStore) {
  SnapshotPtr snap;
  {
    auto write = MutableFingerprintStore::Create(SmallConfig(), 4);
    ASSERT_TRUE(write.ok());
    VersionedStore store(std::move(write).value());
    ASSERT_TRUE(store.Apply(RatingEvent::Add(2, 9)));
    snap = store.Publish();
  }
  EXPECT_EQ(snap->epoch(), 1u);
  EXPECT_EQ(snap->store().CardinalityOf(2), 1u);
}

TEST(StoreSnapshotTest, BorrowWrapsWithoutCopying) {
  auto write = MutableFingerprintStore::Create(SmallConfig(), 5);
  ASSERT_TRUE(write.ok());
  ASSERT_TRUE(write->Add(1, 11));
  const FingerprintStore store = write->Materialize();
  const SnapshotPtr snap = StoreSnapshot::Borrow(store, 7);
  EXPECT_EQ(&snap->store(), &store) << "borrow must not copy";
  EXPECT_EQ(snap->epoch(), 7u);
  EXPECT_EQ(snap->graph(), nullptr);

  FixedSnapshotSource source(snap);
  EXPECT_EQ(source.Acquire(), snap);
  FixedSnapshotSource borrowing(store);
  EXPECT_EQ(&borrowing.Acquire()->store(), &store);
}

TEST(StoreSnapshotTest, SnapshotShardedViewPinsTheEpoch) {
  auto write = MutableFingerprintStore::Create(SmallConfig(), 10);
  ASSERT_TRUE(write.ok());
  for (UserId u = 0; u < 10; ++u) {
    ASSERT_TRUE(write->Add(u, static_cast<ItemId>(u * 3 + 1)));
  }
  VersionedStore store(std::move(write).value());

  const std::vector<UserId> begins =
      ShardedFingerprintStore::BalancedBegins(10, 3);
  EXPECT_EQ(begins, (std::vector<UserId>{0, 4, 7}));
  auto view = ShardedFingerprintStore::ViewOf(store.Acquire(), begins);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->num_shards(), 3u);
  EXPECT_EQ(view->num_users(), 10u);

  // Publish a new epoch; the view's borrowed arena (epoch 0) must stay
  // alive because the view co-owns its snapshot.
  ASSERT_TRUE(store.Apply(RatingEvent::Remove(0, 1)));
  store.Publish();
  EXPECT_EQ(store.LiveSnapshots(), 2);
  EXPECT_EQ(view->shard(0).CardinalityOf(0), 1u)
      << "epoch-0 bytes, not the post-remove state";
}

}  // namespace
}  // namespace gf
