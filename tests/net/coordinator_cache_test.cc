// Coordinator-side serving cache (DESIGN.md §17): repeat batches are
// served from the merged-answer cache without touching the transport,
// SetCacheEpoch invalidates everything, mixed hit/miss batches merge
// back bit-exactly, and partial answers are never cached.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "knn/query.h"
#include "net/coordinator.h"
#include "net/net_test_util.h"
#include "obs/metrics.h"
#include "obs/pipeline_context.h"

namespace gf::net {
namespace {

ClusterCoordinator::Options CachedOptions(std::size_t capacity = 64) {
  ClusterCoordinator::Options options;
  options.cache_capacity = capacity;
  return options;
}

TEST(CoordinatorCacheTest, RepeatBatchIsServedWithoutTheTransport) {
  Rng rng(0xCACE01);
  const auto store = RandomStore(48, 128, rng);
  const auto queries = FirstQueries(store, 5);
  FakeClock clock;
  obs::MetricRegistry registry;
  obs::PipelineContext obs{.metrics = &registry};
  constexpr std::size_t kShards = 3, kReplicas = 2;
  TestCluster cluster(store, kShards, kReplicas, &clock);
  ClusterCoordinator coordinator(cluster.config, &cluster.transport,
                                 CachedOptions(), &obs);

  auto first = coordinator.QueryBatch(queries, 4);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->complete());
  EXPECT_EQ(registry.GetCounter("net.cache.misses")->value(),
            queries.size());

  // Kill every replica: a repeat batch can only succeed from the cache.
  for (std::size_t s = 0; s < kShards; ++s) {
    for (std::size_t r = 0; r < kReplicas; ++r) {
      cluster.transport.UnregisterHandler(ReplicaAddress(s, r));
    }
  }
  auto second = coordinator.QueryBatch(queries, 4);
  ASSERT_TRUE(second.ok()) << second.status().message();
  EXPECT_TRUE(second->complete());
  EXPECT_TRUE(BitIdentical(second->results, first->results));
  EXPECT_EQ(registry.GetCounter("net.cache.hits")->value(), queries.size());
}

TEST(CoordinatorCacheTest, MixedHitMissBatchMergesBackExactly) {
  Rng rng(0xCACE02);
  const auto store = RandomStore(40, 128, rng);
  const auto warm = FirstQueries(store, 3);
  FakeClock clock;
  TestCluster cluster(store, 2, 1, &clock);
  ClusterCoordinator coordinator(cluster.config, &cluster.transport,
                                 CachedOptions());
  ASSERT_TRUE(coordinator.QueryBatch(warm, 6).ok());

  // Interleave cached and novel queries; the merged answer must be
  // indistinguishable from an uncached coordinator's.
  std::vector<Shf> mixed = {warm[1], store.Extract(20), warm[0],
                            store.Extract(25), warm[2]};
  auto got = coordinator.QueryBatch(mixed, 6);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->complete());

  ClusterCoordinator uncached(cluster.config, &cluster.transport);
  auto reference = uncached.QueryBatch(mixed, 6);
  ASSERT_TRUE(reference.ok());
  EXPECT_TRUE(BitIdentical(got->results, reference->results));
}

TEST(CoordinatorCacheTest, SetCacheEpochInvalidatesEverything) {
  Rng rng(0xCACE03);
  const auto store = RandomStore(32, 128, rng);
  const auto queries = FirstQueries(store, 4);
  FakeClock clock;
  obs::MetricRegistry registry;
  obs::PipelineContext obs{.metrics = &registry};
  TestCluster cluster(store, 2, 1, &clock);
  ClusterCoordinator coordinator(cluster.config, &cluster.transport,
                                 CachedOptions(), &obs);

  ASSERT_TRUE(coordinator.QueryBatch(queries, 3).ok());
  ASSERT_TRUE(coordinator.QueryBatch(queries, 3).ok());
  EXPECT_EQ(registry.GetCounter("net.cache.hits")->value(), queries.size());

  // The replicas now serve a new store epoch: declared answers from
  // epoch 0 must die on their next probe.
  coordinator.SetCacheEpoch(1);
  EXPECT_EQ(coordinator.cache_epoch(), 1u);
  auto after = coordinator.QueryBatch(queries, 3);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->complete());
  EXPECT_EQ(registry.GetCounter("net.cache.hits")->value(), queries.size())
      << "no hit may survive SetCacheEpoch";
  EXPECT_GE(
      registry.GetCounter("net.cache.stale_epoch_evictions")->value(),
      queries.size());

  // And the refill serves epoch 1 repeats from cache again.
  ASSERT_TRUE(coordinator.QueryBatch(queries, 3).ok());
  EXPECT_EQ(registry.GetCounter("net.cache.hits")->value(),
            2 * queries.size());
}

TEST(CoordinatorCacheTest, PartialAnswersAreNeverCached) {
  Rng rng(0xCACE04);
  const auto store = RandomStore(36, 128, rng);
  const auto queries = FirstQueries(store, 3);
  FakeClock clock;
  obs::MetricRegistry registry;
  obs::PipelineContext obs{.metrics = &registry};
  constexpr std::size_t kShards = 3;
  TestCluster cluster(store, kShards, 1, &clock);
  // Shard 2 is dead from the start; partial answers keep batches alive.
  cluster.transport.UnregisterHandler(ReplicaAddress(2, 0));
  ClusterCoordinator coordinator(cluster.config, &cluster.transport,
                                 CachedOptions(), &obs);

  auto partial = coordinator.QueryBatch(queries, 4);
  ASSERT_TRUE(partial.ok());
  EXPECT_FALSE(partial->complete());
  EXPECT_EQ(registry.GetCounter("net.cache.inserts")->value(), 0u)
      << "a partial answer must never be replayable as exact";

  // A repeat batch scatters again (misses), it cannot hit.
  auto repeat = coordinator.QueryBatch(queries, 4);
  ASSERT_TRUE(repeat.ok());
  EXPECT_EQ(registry.GetCounter("net.cache.hits")->value(), 0u);
}

}  // namespace
}  // namespace gf::net
