// The distributed-serving correctness property: the coordinator's
// merged top-k is BIT-IDENTICAL to per-pair ScanQueryEngine::Query over
// the union of the answering shards' rows — across store sizes, replica
// counts, k (including k > n), and injected failures. Doubles cross the
// wire, floats appear only in the final Take, and the id tie-break
// survives because shard carving preserves global id order.

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
#include "testing/test_util.h"

namespace gf::net {
namespace {

/// Single-box reference over the union of the answering shards' rows,
/// neighbor ids mapped back to global. The map is monotone (shards are
/// contiguous and concatenated in order), so the selector's id
/// tie-break is the same before and after mapping.
std::vector<std::vector<Neighbor>> UnionReference(
    const FingerprintStore& full, const ClusterConfig& config,
    const std::vector<bool>& answered, std::span<const Shf> queries,
    std::size_t k) {
  std::vector<uint64_t> words;
  std::vector<uint32_t> cards;
  std::vector<UserId> to_global;
  for (std::size_t s = 0; s < config.num_shards(); ++s) {
    if (!answered[s]) continue;
    for (UserId u = config.ShardBeginOf(s); u < config.ShardEndOf(s); ++u) {
      const auto row = full.WordsOf(u);
      words.insert(words.end(), row.begin(), row.end());
      cards.push_back(full.CardinalityOf(u));
      to_global.push_back(u);
    }
  }
  const std::size_t union_users = cards.size();
  FingerprintStore store =
      FingerprintStore::FromRaw(full.config(), union_users, std::move(words),
                                std::move(cards))
          .value();
  auto results = testing::PerPairScan(store, queries, k);
  for (auto& neighbors : results) {
    for (Neighbor& neighbor : neighbors) neighbor.id = to_global[neighbor.id];
  }
  return results;
}

TEST(ClusterBitExactTest, FullQuorumMatrixMatchesSingleBoxScan) {
  Rng rng(0xB17E);
  for (const std::size_t users : {33u, 64u}) {
    const auto store = RandomStore(users, 128, rng);
    // Half the queries are stored rows, half arbitrary fingerprints.
    auto queries = FirstQueries(store, 3);
    const auto foreign = RandomStore(3, 128, rng);
    for (UserId u = 0; u < 3; ++u) queries.push_back(foreign.Extract(u));

    for (const std::size_t shards : {1u, 2u, 3u, 4u}) {
      for (const std::size_t replicas : {1u, 2u, 3u, 5u}) {
        for (const std::size_t k :
             {std::size_t{1}, std::size_t{5}, users + 7}) {
          FakeClock clock;
          TestCluster cluster(store, shards, replicas, &clock);
          ClusterCoordinator coordinator(cluster.config, &cluster.transport);
          auto answer = coordinator.QueryBatch(queries, k);
          ASSERT_TRUE(answer.ok()) << answer.status().message();
          EXPECT_TRUE(answer->complete());
          EXPECT_TRUE(BitIdentical(answer->results,
                                   testing::PerPairScan(store, queries, k)))
              << "users=" << users << " shards=" << shards
              << " replicas=" << replicas << " k=" << k;
        }
      }
    }
  }
}

TEST(ClusterBitExactTest, SurvivingQuorumAfterPrimaryDeathsIsStillExact) {
  Rng rng(0x5EED);
  const auto store = RandomStore(48, 128, rng);
  const auto queries = FirstQueries(store, 5);

  for (const std::size_t replicas : {2u, 3u, 5u}) {
    FakeClock clock;
    obs::MetricRegistry registry;
    obs::PipelineContext obs{.metrics = &registry};
    constexpr std::size_t kShards = 3;
    TestCluster cluster(store, kShards, replicas, &clock);
    // Kill exactly the replica each shard's FIRST attempt targets
    // (rotation: attempt 0 of shard s goes to (s + 0) % R), so every
    // shard fails over exactly once and still answers.
    for (std::size_t s = 0; s < kShards; ++s) {
      cluster.transport.UnregisterHandler(ReplicaAddress(s, s % replicas));
    }
    ClusterCoordinator coordinator(cluster.config, &cluster.transport,
                                   ClusterCoordinator::Options{}, &obs);
    auto answer = coordinator.QueryBatch(queries, 7);
    ASSERT_TRUE(answer.ok());
    EXPECT_TRUE(answer->complete());
    EXPECT_EQ(registry.GetCounter("net.failovers")->value(), kShards);
    EXPECT_TRUE(BitIdentical(answer->results,
                             testing::PerPairScan(store, queries, 7)))
        << "replicas=" << replicas;
  }
}

TEST(ClusterBitExactTest, DeadShardDegradesToTheAnsweredUnion) {
  Rng rng(0xDEAD5);
  const auto store = RandomStore(60, 128, rng);
  const auto queries = FirstQueries(store, 4);

  FakeClock clock;
  obs::MetricRegistry registry;
  obs::PipelineContext obs{.metrics = &registry};
  TestCluster cluster(store, /*shards=*/3, /*replicas=*/2, &clock);
  // Shard 1 loses BOTH replicas: no failover target remains.
  cluster.transport.UnregisterHandler(ReplicaAddress(1, 0));
  cluster.transport.UnregisterHandler(ReplicaAddress(1, 1));

  ClusterCoordinator coordinator(cluster.config, &cluster.transport,
                                 ClusterCoordinator::Options{}, &obs);
  auto answer = coordinator.QueryBatch(queries, 6);
  ASSERT_TRUE(answer.ok());
  EXPECT_FALSE(answer->complete());
  EXPECT_EQ(answer->shards_answered, 2u);
  EXPECT_EQ(answer->shard_status[1].code(), StatusCode::kUnavailable);
  EXPECT_TRUE(answer->shard_status[0].ok());
  EXPECT_TRUE(answer->shard_status[2].ok());
  EXPECT_EQ(registry.GetCounter("net.partial_responses")->value(), 1u);

  const std::vector<bool> answered = {true, false, true};
  EXPECT_TRUE(BitIdentical(
      answer->results,
      UnionReference(store, cluster.config, answered, queries, 6)));
}

TEST(ClusterBitExactTest, RandomFailureMatrixMatchesTheSurvivingUnion) {
  Rng rng(0xFA117);
  const auto store = RandomStore(50, 128, rng);
  auto queries = FirstQueries(store, 2);
  const auto foreign = RandomStore(2, 128, rng);
  for (UserId u = 0; u < 2; ++u) queries.push_back(foreign.Extract(u));

  const std::size_t replica_choices[] = {1, 2, 3, 5};
  const std::size_t k_choices[] = {1, 5, 57};
  for (int trial = 0; trial < 24; ++trial) {
    const std::size_t shards = 1 + rng.Next() % 4;
    const std::size_t replicas = replica_choices[rng.Next() % 4];
    const std::size_t k = k_choices[rng.Next() % 3];

    FakeClock clock;
    TestCluster cluster(store, shards, replicas, &clock);
    std::vector<bool> answered(shards);
    std::size_t alive_shards = 0;
    for (std::size_t s = 0; s < shards; ++s) {
      bool alive = false;
      for (std::size_t r = 0; r < replicas; ++r) {
        if (rng.Next() % 10 < 3) {
          cluster.transport.UnregisterHandler(ReplicaAddress(s, r));
        } else {
          alive = true;
        }
      }
      answered[s] = alive;
      alive_shards += alive ? 1 : 0;
    }

    // An attempt budget of R makes the rotation try every replica, so
    // a shard answers exactly when it still has a live replica.
    ClusterCoordinator::Options options;
    options.max_attempts_per_shard = replicas;
    ClusterCoordinator coordinator(cluster.config, &cluster.transport,
                                   options);
    auto answer = coordinator.QueryBatch(queries, k);
    if (alive_shards == 0) {
      ASSERT_FALSE(answer.ok()) << "trial " << trial;
      EXPECT_EQ(answer.status().code(), StatusCode::kUnavailable);
      continue;
    }
    ASSERT_TRUE(answer.ok()) << "trial " << trial << ": "
                             << answer.status().message();
    EXPECT_EQ(answer->shards_answered, alive_shards) << "trial " << trial;
    EXPECT_TRUE(BitIdentical(
        answer->results,
        UnionReference(store, cluster.config, answered, queries, k)))
        << "trial " << trial << " shards=" << shards
        << " replicas=" << replicas << " k=" << k;
  }
}

}  // namespace
}  // namespace gf::net
