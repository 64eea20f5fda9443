#include "core/sharded_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/bit_util.h"
#include "common/random.h"
#include "obs/metrics.h"

namespace gf {
namespace {

FingerprintStore RandomStore(std::size_t users, std::size_t bits, Rng& rng) {
  const std::size_t words_per_shf = bits::WordsForBits(bits);
  std::vector<uint64_t> words(users * words_per_shf);
  for (auto& w : words) w = rng.Next() & rng.Next();
  std::vector<uint32_t> cards(users);
  for (std::size_t u = 0; u < users; ++u) {
    cards[u] =
        bits::PopCount({words.data() + u * words_per_shf, words_per_shf});
  }
  FingerprintConfig config;
  config.num_bits = bits;
  return FingerprintStore::FromRaw(config, users, std::move(words),
                                   std::move(cards))
      .value();
}

// Every global user must live in exactly one shard, at the row implied
// by ShardBegin, bit-for-bit identical to the source store.
void ExpectExactPartition(const FingerprintStore& source,
                          const ShardedFingerprintStore& sharded) {
  ASSERT_EQ(sharded.num_users(), source.num_users());
  std::size_t covered = 0;
  for (std::size_t s = 0; s < sharded.num_shards(); ++s) {
    const FingerprintStore& shard = sharded.shard(s);
    const UserId base = sharded.ShardBegin(s);
    EXPECT_EQ(base, static_cast<UserId>(covered)) << "shard " << s;
    for (std::size_t r = 0; r < shard.num_users(); ++r) {
      const auto global = static_cast<UserId>(base + r);
      const Shf expected = source.Extract(global);
      const Shf got = shard.Extract(static_cast<UserId>(r));
      ASSERT_EQ(got.words().size(), expected.words().size());
      for (std::size_t w = 0; w < expected.words().size(); ++w) {
        ASSERT_EQ(got.words()[w], expected.words()[w])
            << "user " << global << " word " << w;
      }
      EXPECT_EQ(got.cardinality(), expected.cardinality());
    }
    covered += shard.num_users();
  }
  EXPECT_EQ(covered, source.num_users());
}

// Shard bounds can come from a file (GFIX, io/gfix.h), so every
// malformed cut is refused rather than read past the arena.
TEST(ShardedStoreTest, RejectsMalformedBegins) {
  Rng rng(1);
  const auto store = RandomStore(10, 128, rng);
  const std::vector<std::vector<UserId>> malformed = {
      {},          // no shard
      {1, 5},      // the first shard does not begin at user 0
      {0, 6, 4},   // decreasing
      {0, 4, 11},  // a begin past the last user
  };
  for (const auto& begins : malformed) {
    EXPECT_FALSE(ShardedFingerprintStore::ViewOf(store, begins).ok())
        << "begins of size " << begins.size();
  }
}

TEST(ShardedStoreTest, SingleShardIsTheWholeStore) {
  Rng rng(2);
  const auto store = RandomStore(17, 256, rng);
  auto sharded = ShardedFingerprintStore::ViewOf(
      store, ShardedFingerprintStore::BalancedBegins(17, 1));
  ASSERT_TRUE(sharded.ok());
  EXPECT_EQ(sharded->num_shards(), 1u);
  ExpectExactPartition(store, *sharded);
}

TEST(ShardedStoreTest, UnevenSplitIsBalancedAndExact) {
  Rng rng(3);
  const auto store = RandomStore(23, 192, rng);  // 23 users over 5 shards
  auto sharded = ShardedFingerprintStore::ViewOf(
      store, ShardedFingerprintStore::BalancedBegins(23, 5));
  ASSERT_TRUE(sharded.ok());
  ASSERT_EQ(sharded->num_shards(), 5u);
  // Shard sizes differ by at most one user: 23 = 3 x 5 + 2x4... (5,5,5,4,4).
  std::size_t smallest = store.num_users();
  std::size_t largest = 0;
  for (std::size_t s = 0; s < 5; ++s) {
    smallest = std::min(smallest, sharded->shard(s).num_users());
    largest = std::max(largest, sharded->shard(s).num_users());
  }
  EXPECT_LE(largest - smallest, 1u);
  ExpectExactPartition(store, *sharded);
}

TEST(ShardedStoreTest, MoreShardsThanUsersLeavesEmptyShards) {
  Rng rng(4);
  const auto store = RandomStore(3, 128, rng);
  auto sharded = ShardedFingerprintStore::ViewOf(
      store, ShardedFingerprintStore::BalancedBegins(3, 8));
  ASSERT_TRUE(sharded.ok());
  ASSERT_EQ(sharded->num_shards(), 8u);
  ExpectExactPartition(store, *sharded);
  std::size_t empty = 0;
  for (std::size_t s = 0; s < 8; ++s) {
    if (sharded->shard(s).num_users() == 0) ++empty;
  }
  EXPECT_EQ(empty, 5u);
}

TEST(ShardedStoreTest, EmitsViewMetrics) {
  Rng rng(7);
  const auto store = RandomStore(20, 128, rng);
  obs::MetricRegistry registry;
  obs::PipelineContext obs{.metrics = &registry};
  ASSERT_TRUE(ShardedFingerprintStore::ViewOf(
                  store, ShardedFingerprintStore::BalancedBegins(20, 4), &obs)
                  .ok());
  EXPECT_EQ(registry.GetCounter("store.shard.views")->value(), 1u);
  EXPECT_EQ(registry.GetGauge("store.shard.count")->value(), 4.0);
}

}  // namespace
}  // namespace gf
