// SnapshotQueryEngine: epoch pinning, cache reuse across batches, and
// bit-exactness with the scan reference over the pinned snapshot —
// including through the QueryService micro-batching front-end.

#include "knn/snapshot_query.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "core/versioned_store.h"
#include "knn/query.h"
#include "obs/metrics.h"
#include "obs/pipeline_context.h"
#include "testing/test_util.h"

namespace gf {
namespace {

FingerprintConfig SmallConfig(std::size_t bits = 256) {
  FingerprintConfig config;
  config.num_bits = bits;
  return config;
}

Result<MutableFingerprintStore> RandomWriteSide(std::size_t users,
                                                std::size_t items, Rng& rng) {
  auto store = MutableFingerprintStore::Create(SmallConfig(), users);
  if (!store.ok()) return store.status();
  for (UserId u = 0; u < users; ++u) {
    const std::size_t len = 1 + rng.Below(20);
    for (std::size_t i = 0; i < len; ++i) {
      store->Add(u, static_cast<ItemId>(rng.Below(items)));
    }
  }
  store->TakeDirty();
  return store;
}

std::vector<Shf> RandomQueries(const FingerprintStore& store, std::size_t n,
                               Rng& rng) {
  std::vector<Shf> queries;
  queries.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    queries.push_back(
        store.Extract(static_cast<UserId>(rng.Below(store.num_users()))));
  }
  return queries;
}

void ExpectResultsIdentical(
    const std::vector<std::vector<Neighbor>>& a,
    const std::vector<std::vector<Neighbor>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].size(), b[i].size()) << "query " << i;
    for (std::size_t j = 0; j < a[i].size(); ++j) {
      EXPECT_EQ(a[i][j].id, b[i][j].id) << "query " << i << " slot " << j;
      EXPECT_EQ(a[i][j].similarity, b[i][j].similarity)
          << "query " << i << " slot " << j;
    }
  }
}

TEST(SnapshotQueryTest, MatchesScanAcrossShardCountsOnFixedSource) {
  Rng rng(0x5A5A01);
  auto write = RandomWriteSide(97, 400, rng);
  ASSERT_TRUE(write.ok());
  const FingerprintStore store = write->Materialize();
  FixedSnapshotSource source(store);

  const std::vector<Shf> queries = RandomQueries(store, 12, rng);
  const auto expected = testing::PerPairScan(store, queries, 7);

  for (std::size_t shards : {1u, 2u, 5u, 8u}) {
    SnapshotQueryEngine::Options options;
    options.num_shards = shards;
    SnapshotQueryEngine engine(&source, options);
    auto got = engine.QueryBatch(queries, 7);
    ASSERT_TRUE(got.ok()) << "shards=" << shards;
    ExpectResultsIdentical(expected, *got);
  }
}

// The default engine (one shard per epoch view) cuts each batch into
// row chunks on its pool, as ScanQueryEngine does over a plain store,
// instead of scanning the lone shard as one task.
TEST(SnapshotQueryTest, OneShardEngineSplitsRowsOnThePool) {
  Rng rng(0x5A5A0A);
  auto write = RandomWriteSide(3000, 2000, rng);
  ASSERT_TRUE(write.ok());
  const FingerprintStore store = write->Materialize();
  FixedSnapshotSource source(store);
  const std::vector<Shf> queries = RandomQueries(store, 20, rng);

  ThreadPool pool(3);
  obs::MetricRegistry registry;
  obs::PipelineContext obs{.metrics = &registry};
  const SnapshotQueryEngine engine(&source, &pool, &obs);
  auto got = engine.QueryBatch(queries, 10);
  ASSERT_TRUE(got.ok());

  const obs::Histogram* scans =
      registry.FindHistogram("query.shard.scan_micros");
  ASSERT_NE(scans, nullptr);
  EXPECT_GT(scans->count(), 1u);

  ExpectResultsIdentical(testing::PerPairScan(store, queries, 10), *got);
}

TEST(SnapshotQueryTest, PinnedBatchNamesItsEpochAndStaysOnIt) {
  Rng rng(0x5A5A02);
  auto write = RandomWriteSide(60, 300, rng);
  ASSERT_TRUE(write.ok());
  VersionedStore store(std::move(write).value());
  SnapshotQueryEngine engine(&store);

  const FingerprintStore epoch0 = store.Acquire()->store();
  const std::vector<Shf> queries = RandomQueries(epoch0, 6, rng);

  auto before = engine.QueryBatchPinned(queries, 5);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->snapshot->epoch(), 0u);

  // Mutate + publish; a new batch must see epoch 1, and the old
  // pinned results must still verify against their own epoch 0.
  for (int i = 0; i < 10; ++i) {
    store.Apply(RatingEvent::Add(static_cast<UserId>(i), 700));
  }
  store.Publish();

  auto after = engine.QueryBatchPinned(queries, 5);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->snapshot->epoch(), 1u);
  EXPECT_EQ(engine.cached_epoch(), 1u);

  const ScanQueryEngine scan0(before->snapshot);
  auto expect0 = scan0.QueryBatch(queries, 5);
  ASSERT_TRUE(expect0.ok());
  ExpectResultsIdentical(*expect0, before->results);

  const ScanQueryEngine scan1(after->snapshot);
  auto expect1 = scan1.QueryBatch(queries, 5);
  ASSERT_TRUE(expect1.ok());
  ExpectResultsIdentical(*expect1, after->results);
}

TEST(SnapshotQueryTest, CacheRebuildsOnlyOnEpochChange) {
  Rng rng(0x5A5A03);
  auto write = RandomWriteSide(40, 200, rng);
  ASSERT_TRUE(write.ok());
  VersionedStore store(std::move(write).value());
  obs::MetricRegistry registry;
  obs::PipelineContext obs{.metrics = &registry};
  SnapshotQueryEngine engine(&store, SnapshotQueryEngine::Options{}, nullptr,
                             &obs);

  const std::vector<Shf> queries =
      RandomQueries(store.Acquire()->store(), 4, rng);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(engine.QueryBatch(queries, 3).ok());
  }
  EXPECT_EQ(registry.FindCounter("query.snapshot_rebuilds")->value(), 1u)
      << "same epoch, one build";
  EXPECT_EQ(registry.FindGauge("query.epoch")->value(), 0.0);

  store.Apply(RatingEvent::Add(0, 999));
  store.Publish();
  ASSERT_TRUE(engine.QueryBatch(queries, 3).ok());
  EXPECT_EQ(registry.FindCounter("query.snapshot_rebuilds")->value(), 2u);
  EXPECT_EQ(registry.FindGauge("query.epoch")->value(), 1.0);
}

TEST(SnapshotQueryTest, ServesThroughQueryServiceSteppingMode) {
  Rng rng(0x5A5A04);
  auto write = RandomWriteSide(50, 250, rng);
  ASSERT_TRUE(write.ok());
  VersionedStore store(std::move(write).value());
  SnapshotQueryEngine::Options options;
  options.num_shards = 2;
  SnapshotQueryEngine engine(&store, options);

  QueryService::Options service_options;
  service_options.start_dispatcher = false;
  QueryService service(engine.AsBatchFn(), service_options);

  const FingerprintStore epoch0 = store.Acquire()->store();
  const std::vector<Shf> queries = RandomQueries(epoch0, 5, rng);
  std::vector<std::future<Result<std::vector<Neighbor>>>> futures;
  for (const Shf& query : queries) {
    futures.push_back(service.Submit(query, 4));
  }
  EXPECT_EQ(service.DrainOnce(), queries.size());

  const ScanQueryEngine scan(epoch0);
  auto expected = scan.QueryBatch(queries, 4);
  ASSERT_TRUE(expected.ok());
  for (std::size_t i = 0; i < futures.size(); ++i) {
    auto result = futures[i].get();
    ASSERT_TRUE(result.ok()) << "query " << i;
    ASSERT_EQ(result->size(), (*expected)[i].size());
    for (std::size_t j = 0; j < result->size(); ++j) {
      EXPECT_EQ((*result)[j].id, (*expected)[i][j].id);
      EXPECT_EQ((*result)[j].similarity, (*expected)[i][j].similarity);
    }
  }
  service.Shutdown();
}

// The invariant the epoch-keyed serving cache relies on (DESIGN.md
// §17): under rapid publish churn the engine rebuilds exactly once per
// observed epoch — never per batch — and batches inside one epoch pin
// the IDENTICAL snapshot object, so a cache entry stamped with an
// epoch means exactly one store state.
TEST(SnapshotQueryTest, RebuildCountAndPinnedIdentityUnderRapidChurn) {
  Rng rng(0x5A5A05);
  auto write = RandomWriteSide(45, 220, rng);
  ASSERT_TRUE(write.ok());
  VersionedStore store(std::move(write).value());
  obs::MetricRegistry registry;
  obs::PipelineContext obs{.metrics = &registry};
  SnapshotQueryEngine engine(&store, SnapshotQueryEngine::Options{}, nullptr,
                             &obs);
  const std::vector<Shf> queries =
      RandomQueries(store.Acquire()->store(), 3, rng);

  constexpr uint64_t kEpochs = 8;
  for (uint64_t epoch = 0; epoch < kEpochs; ++epoch) {
    if (epoch != 0) {
      store.Apply(RatingEvent::Add(static_cast<UserId>(epoch % 45), 900));
      store.Publish();
    }
    auto first = engine.QueryBatchPinned(queries, 3);
    ASSERT_TRUE(first.ok());
    auto second = engine.QueryBatchPinned(queries, 3);
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(first->snapshot->epoch(), epoch);
    // Pointer identity, not just equal epoch numbers: both batches of
    // this round served from the same pinned snapshot object.
    EXPECT_EQ(first->snapshot.get(), second->snapshot.get())
        << "epoch " << epoch;
    EXPECT_EQ(engine.cached_epoch(), epoch);
    EXPECT_EQ(registry.FindCounter("query.snapshot_rebuilds")->value(),
              epoch + 1)
        << "one rebuild per epoch, regardless of batch count";
  }
}

// A real VersionedStore publish must zero the L1 hit path: the next
// pass over previously-hot queries misses (stale entries reclaimed)
// and re-fills with answers from the NEW epoch.
TEST(SnapshotQueryTest, PublishInvalidatesTheServingCache) {
  Rng rng(0x5A5A06);
  auto write = RandomWriteSide(50, 240, rng);
  ASSERT_TRUE(write.ok());
  VersionedStore store(std::move(write).value());
  obs::MetricRegistry registry;
  obs::PipelineContext obs{.metrics = &registry};
  SnapshotQueryEngine::Options options;
  options.cache_capacity = 32;
  SnapshotQueryEngine engine(&store, options, nullptr, &obs);

  const std::vector<Shf> queries =
      RandomQueries(store.Acquire()->store(), 6, rng);
  ASSERT_TRUE(engine.QueryBatch(queries, 4).ok());  // fill
  ASSERT_TRUE(engine.QueryBatch(queries, 4).ok());  // all hits
  EXPECT_EQ(registry.GetCounter("cache.hits")->value(), queries.size());

  // Mutate user 0 so the new epoch truly answers differently-bytes,
  // then publish.
  for (int i = 0; i < 30; ++i) {
    store.Apply(RatingEvent::Add(0, static_cast<ItemId>(500 + i)));
  }
  store.Publish();

  auto after = engine.QueryBatchPinned(queries, 4);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->snapshot->epoch(), 1u);
  EXPECT_EQ(registry.GetCounter("cache.hits")->value(), queries.size())
      << "no hit may survive the publish";
  EXPECT_GE(registry.GetCounter("cache.stale_epoch_evictions")->value(),
            queries.size());

  // The refilled answers are the new epoch's scan answers, bit-exact.
  const ScanQueryEngine scan(after->snapshot);
  auto expected = scan.QueryBatch(queries, 4);
  ASSERT_TRUE(expected.ok());
  ExpectResultsIdentical(*expected, after->results);

  // And the cache serves the new epoch immediately afterwards.
  ASSERT_TRUE(engine.QueryBatch(queries, 4).ok());
  EXPECT_EQ(registry.GetCounter("cache.hits")->value(), 2 * queries.size());
}

// A cache smaller than its traffic: a skewed repeat stream over more
// distinct queries than the cache holds makes hits, misses and CLOCK
// evictions all happen, and every answer, hit or miss, equals the
// scan. After a publish, the first pass over the pool hits nothing.
TEST(SnapshotQueryTest, CacheSmallerThanItsTrafficStaysExact) {
  constexpr std::size_t kK = 5;
  constexpr std::size_t kPool = 96;
  Rng rng(0x5A5A0D);
  auto write = RandomWriteSide(400, 240, rng);
  ASSERT_TRUE(write.ok());
  VersionedStore store(std::move(write).value());
  SnapshotQueryEngine::Options options;
  options.cache_capacity = 32;
  SnapshotQueryEngine engine(&store, options);

  const SnapshotPtr epoch0 = store.Acquire();
  std::vector<Shf> pool;
  for (UserId u = 0; pool.size() < kPool; ++u) {
    ASSERT_LT(u, epoch0->store().num_users()) << "too few distinct rows";
    Shf query = epoch0->store().Extract(u);
    if (std::find(pool.begin(), pool.end(), query) == pool.end()) {
      pool.push_back(std::move(query));
    }
  }
  const auto truth = ScanQueryEngine(epoch0).QueryBatch(pool, kK).value();

  // Below(Below(n) + 1) favours low indices: a hot head, a long tail.
  for (int batch = 0; batch < 250; ++batch) {
    std::vector<Shf> queries;
    std::vector<std::vector<Neighbor>> want;
    for (int i = 0; i < 8; ++i) {
      const std::size_t pick = rng.Below(rng.Below(kPool) + 1);
      queries.push_back(pool[pick]);
      want.push_back(truth[pick]);
    }
    auto got = engine.QueryBatch(queries, kK);
    ASSERT_TRUE(got.ok());
    ExpectResultsIdentical(*got, want);
  }
  const ServingCache::Stats warm = engine.cache()->stats();
  EXPECT_GT(warm.hits, 0u);
  EXPECT_GT(warm.misses, 0u);
  EXPECT_GT(warm.evictions, 0u) << "a pool above capacity must evict";
  EXPECT_LE(engine.cache()->Size(), options.cache_capacity);

  // An unchanged store republished is still a new epoch: one query at
  // a time over the whole pool, none may hit.
  store.Publish();
  const SnapshotPtr epoch1 = store.Acquire();
  const auto truth1 = ScanQueryEngine(epoch1).QueryBatch(pool, kK).value();
  for (std::size_t q = 0; q < kPool; ++q) {
    auto got = engine.Query(pool[q], kK);
    ASSERT_TRUE(got.ok());
    ExpectResultsIdentical({*got}, {truth1[q]});
  }
  EXPECT_EQ(engine.cache()->stats().hits, warm.hits)
      << "no hit may survive the publish";
}

// Each request counts once in the L1's statistics — as a miss where
// the engine computes it, as a hit where the cache answers it — also
// when QueryService probed the cache before queueing the request.
TEST(SnapshotQueryTest, ServiceCountsEachRequestOnce) {
  Rng rng(0x5A5A0C);
  auto write = RandomWriteSide(100, 240, rng);
  ASSERT_TRUE(write.ok());
  VersionedStore store(std::move(write).value());
  SnapshotQueryEngine::Options options;
  options.cache_capacity = 1024;
  SnapshotQueryEngine engine(&store, options);
  QueryService::Options service_options;
  service_options.start_dispatcher = false;
  service_options.cache_try = engine.AsCacheTryFn();
  QueryService service(engine.AsBatchFn(), service_options);

  const SnapshotPtr snapshot = store.Acquire();
  std::vector<Shf> queries;
  for (UserId u = 0; u < 32; ++u) {
    queries.push_back(snapshot->store().Extract(u));
    for (UserId v = 0; v < u; ++v) {
      ASSERT_FALSE(queries[u] == queries[v]) << "requests must be distinct";
    }
  }
  const auto serve_round = [&] {
    std::vector<std::future<Result<std::vector<Neighbor>>>> futures;
    for (const Shf& query : queries) {
      futures.push_back(service.Submit(query, 5));
    }
    while (service.DrainOnce() > 0) {
    }
    for (auto& future : futures) ASSERT_TRUE(future.get().ok());
  };

  serve_round();
  ServingCache::Stats stats = engine.cache()->stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, queries.size());
  EXPECT_EQ(stats.inserts, queries.size());

  serve_round();  // every request now resolves inside Submit
  stats = engine.cache()->stats();
  EXPECT_EQ(stats.hits, queries.size());
  EXPECT_EQ(stats.misses, queries.size());
  service.Shutdown();
}

TEST(SnapshotQueryTest, EmptyStoreAnswersEmptyLists) {
  auto write = MutableFingerprintStore::Create(SmallConfig(), 0);
  ASSERT_TRUE(write.ok());
  VersionedStore store(std::move(write).value());
  SnapshotQueryEngine engine(&store);
  auto query = Shf::Create(SmallConfig().num_bits);
  ASSERT_TRUE(query.ok());
  auto result = engine.QueryBatch({&*query, 1}, 3);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_TRUE((*result)[0].empty());
}

}  // namespace
}  // namespace gf
