// ServingCache property tests: hits replay exact results, the capacity
// bound is hard, CLOCK gives the hot set a second chance, a hash
// collision can never surface another query's answer, stale-epoch
// entries die on first contact, and the whole thing survives
// concurrent hit/miss/insert/epoch-bump traffic (the TSan pass).

#include "knn/serving_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "obs/metrics.h"
#include "obs/pipeline_context.h"

namespace gf {
namespace {

// One set bit per index (index < 256): every query is bit-distinct and
// cheap to regenerate.
Shf QueryOf(std::size_t index, std::size_t bits = 256) {
  auto shf = Shf::Create(bits);
  EXPECT_TRUE(shf.ok());
  EXPECT_LT(index, bits);
  shf->SetBit(index);
  return std::move(shf).value();
}

std::vector<Neighbor> ResultOf(std::size_t index, uint64_t epoch = 0) {
  // The payload encodes (index, epoch) so a replayed wrong entry is
  // detectable, not just "some vector".
  return {Neighbor{static_cast<UserId>(index),
                   static_cast<float>(epoch) + 0.25f},
          Neighbor{static_cast<UserId>(index + 1000), 0.125f}};
}

TEST(ServingCacheTest, HitReplaysTheExactInsertedResult) {
  ServingCache::Options options;
  options.capacity = 8;
  ServingCache cache(options);

  const Shf query = QueryOf(3);
  const auto stored = ResultOf(3);
  cache.Insert(query, 5, /*epoch=*/0, stored);

  std::vector<Neighbor> out;
  ASSERT_TRUE(cache.Lookup(query, 5, 0, &out));
  ASSERT_EQ(out.size(), stored.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].id, stored[i].id);
    EXPECT_EQ(out[i].similarity, stored[i].similarity);
  }
  // Same query at a different k is a different cache key.
  EXPECT_FALSE(cache.Lookup(query, 6, 0, &out));
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

// k above the row count is legal (it answers as k = n), so all 64 bits
// of k key an entry: a k cut to 32 bits in the entry never equals the
// probe's, and every lookup would count as a collision and miss.
TEST(ServingCacheTest, KAbove32BitsHits) {
  for (const std::size_t k : {(std::size_t{1} << 32) + 10, SIZE_MAX}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    ServingCache::Options options;
    options.capacity = 8;
    ServingCache cache(options);
    const Shf query = QueryOf(3);
    cache.Insert(query, k, /*epoch=*/0, ResultOf(3));

    std::vector<Neighbor> out;
    ASSERT_TRUE(cache.Lookup(query, k, 0, &out));
    EXPECT_EQ(out[0].id, static_cast<UserId>(3));
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().collisions, 0u);
  }
}

TEST(ServingCacheTest, CapacityBoundHoldsUnderInsertStorm) {
  ServingCache::Options options;
  options.capacity = 16;
  options.shards = 4;
  ServingCache cache(options);

  for (std::size_t i = 0; i < 200; ++i) {
    cache.Insert(QueryOf(i), 3, 0, ResultOf(i));
  }
  EXPECT_LE(cache.Size(), cache.capacity());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.inserts, 200u);
  EXPECT_GE(stats.evictions, 200u - cache.capacity());

  // Every entry still resident replays its own result exactly.
  std::size_t resident = 0;
  for (std::size_t i = 0; i < 200; ++i) {
    std::vector<Neighbor> out;
    if (!cache.Lookup(QueryOf(i), 3, 0, &out)) continue;
    ++resident;
    ASSERT_FALSE(out.empty());
    EXPECT_EQ(out[0].id, static_cast<UserId>(i));
  }
  EXPECT_EQ(resident, cache.Size());
}

TEST(ServingCacheTest, ClockGivesReferencedEntriesASecondChance) {
  ServingCache::Options options;
  options.capacity = 3;
  options.shards = 1;  // one shard makes the sweep order deterministic
  ServingCache cache(options);

  cache.Insert(QueryOf(0), 3, 0, ResultOf(0));
  cache.Insert(QueryOf(1), 3, 0, ResultOf(1));
  cache.Insert(QueryOf(2), 3, 0, ResultOf(2));

  // Touch entry 0: its reference bit shields it from the next sweep.
  std::vector<Neighbor> out;
  ASSERT_TRUE(cache.Lookup(QueryOf(0), 3, 0, &out));

  cache.Insert(QueryOf(3), 3, 0, ResultOf(3));  // sweeps: spares 0, takes 1

  EXPECT_TRUE(cache.Lookup(QueryOf(0), 3, 0, &out));
  EXPECT_FALSE(cache.Lookup(QueryOf(1), 3, 0, &out));
  EXPECT_TRUE(cache.Lookup(QueryOf(2), 3, 0, &out));
  EXPECT_TRUE(cache.Lookup(QueryOf(3), 3, 0, &out));
  EXPECT_EQ(cache.Size(), cache.capacity());
}

TEST(ServingCacheTest, HashCollisionNeverReturnsAnotherQuerysResult) {
  ServingCache::Options options;
  options.capacity = 8;
  options.shards = 1;
  options.hash_fn = [](const Shf&, std::size_t) -> uint64_t {
    return 42;  // every key collides
  };
  ServingCache cache(options);

  const Shf q1 = QueryOf(1), q2 = QueryOf(2);
  cache.Insert(q1, 3, 0, ResultOf(1));

  // q2 shares the hash but not the bits: must miss, never replay q1.
  std::vector<Neighbor> out;
  EXPECT_FALSE(cache.Lookup(q2, 3, 0, &out));
  EXPECT_GE(cache.stats().collisions, 1u);

  // Inserting q2 claims the colliding slot; q1 now misses (aliased
  // out), q2 replays its own result — wrong answers remain impossible.
  cache.Insert(q2, 3, 0, ResultOf(2));
  ASSERT_TRUE(cache.Lookup(q2, 3, 0, &out));
  EXPECT_EQ(out[0].id, static_cast<UserId>(2));
  EXPECT_FALSE(cache.Lookup(q1, 3, 0, &out));
}

TEST(ServingCacheTest, StaleEpochEntriesAreReclaimedOnFirstContact) {
  obs::MetricRegistry registry;
  obs::PipelineContext obs{.metrics = &registry};
  ServingCache::Options options;
  options.capacity = 8;
  options.shards = 1;  // all four entries must land in one shard's slots
  ServingCache cache(options, &obs);

  for (std::size_t i = 0; i < 4; ++i) {
    cache.Insert(QueryOf(i), 3, /*epoch=*/7, ResultOf(i, 7));
  }
  ASSERT_EQ(cache.Size(), 4u);

  // The publish happened: probes at epoch 8 reclaim on contact.
  std::vector<Neighbor> out;
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_FALSE(cache.Lookup(QueryOf(i), 3, 8, &out));
  }
  EXPECT_EQ(cache.Size(), 0u);
  EXPECT_EQ(cache.stats().stale_epoch_evictions, 4u);
  EXPECT_EQ(registry.GetCounter("cache.stale_epoch_evictions")->value(), 4u);

  // Refill at the new epoch reuses the freed slots and hits again.
  cache.Insert(QueryOf(0), 3, 8, ResultOf(0, 8));
  ASSERT_TRUE(cache.Lookup(QueryOf(0), 3, 8, &out));
  EXPECT_EQ(out[0].similarity, 8.25f);
}

TEST(ServingCacheTest, ZeroCapacityDisablesTheCache) {
  ServingCache::Options options;
  options.capacity = 0;
  ServingCache cache(options);
  const Shf query = QueryOf(0);
  cache.Insert(query, 3, 0, ResultOf(0));
  std::vector<Neighbor> out;
  EXPECT_FALSE(cache.Lookup(query, 3, 0, &out));
  EXPECT_EQ(cache.Size(), 0u);
}

TEST(ServingCacheTest, ClearDropsEverything) {
  ServingCache::Options options;
  options.capacity = 8;
  ServingCache cache(options);
  for (std::size_t i = 0; i < 6; ++i) {
    cache.Insert(QueryOf(i), 3, 0, ResultOf(i));
  }
  cache.Clear();
  EXPECT_EQ(cache.Size(), 0u);
  std::vector<Neighbor> out;
  EXPECT_FALSE(cache.Lookup(QueryOf(0), 3, 0, &out));
}

// The TSan pass: readers, writers and an epoch publisher hammer one
// cache. Correctness bar: any successful Lookup at epoch e replays a
// result that was Inserted for exactly (that query, that k, e) — the
// payload encodes both, so a torn or stale answer is detected.
TEST(ServingCacheTest, ConcurrentHitsMissesInsertsAndEpochBumps) {
  ServingCache::Options options;
  options.capacity = 64;
  options.shards = 4;
  ServingCache cache(options);

  constexpr std::size_t kQueries = 32;
  std::atomic<uint64_t> epoch{0};
  std::atomic<bool> failed{false};

  const auto worker = [&](unsigned seed) {
    Rng rng(seed);
    for (int iter = 0; iter < 2000; ++iter) {
      const std::size_t q = rng.Below(kQueries);
      const uint64_t e = epoch.load(std::memory_order_acquire);
      const Shf query = QueryOf(q);
      std::vector<Neighbor> out;
      if (cache.Lookup(query, 3, e, &out)) {
        if (out.size() != 2 || out[0].id != static_cast<UserId>(q) ||
            out[0].similarity != static_cast<float>(e) + 0.25f) {
          failed.store(true, std::memory_order_relaxed);
        }
      } else {
        cache.Insert(query, 3, e, ResultOf(q, e));
      }
    }
  };

  std::vector<std::thread> threads;
  for (unsigned t = 0; t < 4; ++t) {
    threads.emplace_back(worker, 0xCAFE + t);
  }
  threads.emplace_back([&] {
    for (int bump = 0; bump < 50; ++bump) {
      epoch.fetch_add(1, std::memory_order_acq_rel);
      std::this_thread::yield();
    }
  });
  for (auto& thread : threads) thread.join();

  EXPECT_FALSE(failed.load()) << "a lookup replayed a wrong or stale result";
  EXPECT_LE(cache.Size(), cache.capacity());
  const auto stats = cache.stats();
  EXPECT_GT(stats.inserts, 0u);
  EXPECT_GT(stats.hits + stats.misses, 0u);
}

}  // namespace
}  // namespace gf
