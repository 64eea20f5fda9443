// ScanQueryEngine over sharded stores (DESIGN.md §12): the scan over
// zero-copy shards — sequential, or row chunks on a shared pool whatever
// the shard count — merges to the answer of per-pair Query, bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/bit_util.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/sharded_store.h"
#include "knn/query.h"
#include "obs/metrics.h"
#include "obs/pipeline_context.h"
#include "testing/test_util.h"

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

// `store` (which must outlive the result) cut into `shards` balanced
// zero-copy views.
std::shared_ptr<const ShardedFingerprintStore> Shard(
    const FingerprintStore& store, std::size_t shards) {
  return std::make_shared<const ShardedFingerprintStore>(
      ShardedFingerprintStore::ViewOf(
          store, ShardedFingerprintStore::BalancedBegins(store.num_users(),
                                                         shards))
          .value());
}

// The engine over `store` cut into `shards`, in each scatter mode:
// sequential, and on a shared pool.
struct ScatterModes {
  ThreadPool pool{3};
  std::vector<std::unique_ptr<ScanQueryEngine>> engines;

  ScatterModes(const FingerprintStore& store, std::size_t shards) {
    const auto sharded = Shard(store, shards);
    engines.push_back(std::make_unique<ScanQueryEngine>(sharded));
    engines.push_back(std::make_unique<ScanQueryEngine>(sharded, &pool));
  }
};

// Bit-exact: same ids, same float similarities, same order.
void ExpectIdentical(const std::vector<std::vector<Neighbor>>& got,
                     const std::vector<std::vector<Neighbor>>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t q = 0; q < want.size(); ++q) {
    ASSERT_EQ(got[q].size(), want[q].size()) << "query " << q;
    for (std::size_t i = 0; i < want[q].size(); ++i) {
      EXPECT_EQ(got[q][i].id, want[q][i].id) << "query " << q << " pos " << i;
      EXPECT_EQ(got[q][i].similarity, want[q][i].similarity)
          << "query " << q << " pos " << i;
    }
  }
}

TEST(ShardedQueryTest, SharedOwnershipViewOverSnapshotOutlivesItsHandles) {
  // The seam path SnapshotQueryEngine uses internally: a zero-copy view
  // over an owned snapshot, handed to the engine as shared ownership.
  // Dropping both the snapshot handle and the view handle must leave
  // the engine fully serviceable (the chain engine -> view -> snapshot
  // keeps the epoch's arena alive).
  Rng rng(0x51AB);
  FingerprintStore owned = RandomStore(50, 128, rng);
  std::vector<Shf> queries;
  for (std::size_t q = 0; q < 5; ++q) {
    queries.push_back(owned.Extract(static_cast<UserId>(rng.Below(50))));
  }
  const auto want = testing::PerPairScan(owned, queries, 4);

  SnapshotPtr snapshot = StoreSnapshot::Own(std::move(owned), 5);
  const auto begins = ShardedFingerprintStore::BalancedBegins(50, 3);
  auto view = ShardedFingerprintStore::ViewOf(snapshot, begins);
  ASSERT_TRUE(view.ok());
  auto shared =
      std::make_shared<const ShardedFingerprintStore>(std::move(view).value());
  const ScanQueryEngine engine(shared);
  snapshot.reset();
  shared.reset();

  auto got = engine.QueryBatch(queries, 4);
  ASSERT_TRUE(got.ok());
  ExpectIdentical(*got, want);
}

TEST(ShardedQueryTest, ValidatesArguments) {
  Rng rng(1);
  const auto store = RandomStore(30, 128, rng);
  const ScanQueryEngine engine(Shard(store, 3));
  EXPECT_FALSE(engine.Query(*Shf::Create(64), 3).ok());   // wrong length
  EXPECT_FALSE(engine.Query(*Shf::Create(128), 0).ok());  // k == 0
  const Shf wrong = *Shf::Create(64);
  EXPECT_FALSE(engine.QueryBatch({&wrong, 1}, 3).ok());
  EXPECT_FALSE(engine.QueryBatch({}, 0).ok());
}

// The scatter property: across shard counts x k — including one user
// per shard, shards exceeding the user count (empty shards), and
// k > n up to SIZE_MAX — and in every scatter mode, the merged result is
// bit-identical to the per-pair scan.
TEST(ShardedQueryTest, BitExactWithScanAcrossShardCountsAndK) {
  Rng rng(2);
  const std::size_t users = 67;  // prime: every split is uneven
  const auto store = RandomStore(users, 256, rng);
  std::vector<Shf> queries;
  for (std::size_t q = 0; q < 9; ++q) {
    queries.push_back(store.Extract(static_cast<UserId>(rng.Below(users))));
  }
  for (const std::size_t shards : {1u, 2u, 3u, 5u, 8u, 67u, 80u}) {
    const ScatterModes modes(store, shards);
    // Any k above n (1000, SIZE_MAX) answers exactly what k = n does.
    for (const std::size_t k : {1ul, 5ul, 1000ul, SIZE_MAX}) {
      const auto want =
          testing::PerPairScan(store, queries, std::min(k, users));
      for (std::size_t m = 0; m < modes.engines.size(); ++m) {
        SCOPED_TRACE("shards=" + std::to_string(shards) +
                     " k=" + std::to_string(k) +
                     " mode=" + std::to_string(m));
        ExpectIdentical(modes.engines[m]->QueryBatch(queries, k).value(),
                        want);
      }
    }
  }
}

TEST(ShardedQueryTest, BitExactOnSharedPoolAndConcurrentCallers) {
  Rng rng(3);
  const std::size_t users = 120;
  const auto store = RandomStore(users, 512, rng);
  std::vector<Shf> queries;
  for (std::size_t q = 0; q < 17; ++q) {
    queries.push_back(store.Extract(static_cast<UserId>(rng.Below(users))));
  }
  const auto want = testing::PerPairScan(store, queries, 10);

  ThreadPool pool(3);
  const ScanQueryEngine engine(Shard(store, 4), &pool);
  ExpectIdentical(engine.QueryBatch(queries, 10).value(), want);
  // Concurrent batches share the pool safely.
  ThreadPool callers(3);
  ParallelFor(&callers, 6, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      ExpectIdentical(engine.QueryBatch(queries, 10).value(), want);
    }
  });
}

// The tile loop's edges inside every shard: at b = 1024 each of 4
// shards spans several 256-row tiles (the last one partial), and the
// batch spans two full 16-query groups of the multi-query kernel plus
// a partial third — sequential and on the shared pool.
TEST(ShardedQueryTest, MultiTileShardsAndQueryGroupsMatchScan) {
  Rng rng(7);
  const std::size_t users = 3001;
  const auto store = RandomStore(users, 1024, rng);
  std::vector<Shf> queries;
  for (std::size_t q = 0; q < 37; ++q) {
    queries.push_back(store.Extract(static_cast<UserId>(rng.Below(users))));
  }
  const auto want = testing::PerPairScan(store, queries, 10);

  ThreadPool pool(3);
  const ScanQueryEngine shared(Shard(store, 4), &pool);
  ExpectIdentical(shared.QueryBatch(queries, 10).value(), want);
  const ScanQueryEngine sequential(Shard(store, 4));
  ExpectIdentical(sequential.QueryBatch(queries, 10).value(), want);
}

// Ties at the k-th best score. 40 distinct fingerprints are stored 25
// times each, shuffled so the copies straddle 256-row tiles and shard
// boundaries, next to zero-cardinality rows. A query drawn from the
// store ties with all 25 copies of itself, so k = 24, 25 and 26 cut
// inside, at and just past a tie group; the all-zero query scores 0
// against every row, so its answer is decided by id alone. Every
// partitioning, with and without a pool, answers what per-pair Query
// does, bit for bit.
TEST(ShardedQueryTest, TiesAtTheFloorMatchScan) {
  Rng rng(8);
  constexpr std::size_t kDistinct = 40;
  constexpr std::size_t kCopies = 25;
  constexpr std::size_t kZeroRows = 13;
  const std::size_t bits = 1024;
  const std::size_t words_per_shf = bits::WordsForBits(bits);
  std::vector<uint64_t> distinct(kDistinct * words_per_shf);
  for (auto& w : distinct) w = rng.Next() & rng.Next();
  // Each row's fingerprint index; kDistinct marks an all-zero row.
  std::vector<std::size_t> labels;
  for (std::size_t d = 0; d < kDistinct; ++d) {
    labels.insert(labels.end(), kCopies, d);
  }
  labels.insert(labels.end(), kZeroRows, kDistinct);
  rng.Shuffle(labels);
  const std::size_t users = labels.size();

  std::vector<uint64_t> words(users * words_per_shf, 0);
  std::vector<uint32_t> cards(users, 0);
  for (std::size_t u = 0; u < users; ++u) {
    if (labels[u] == kDistinct) continue;
    std::copy_n(distinct.begin() + labels[u] * words_per_shf, words_per_shf,
                words.begin() + u * words_per_shf);
    cards[u] = bits::PopCount(
        {words.data() + u * words_per_shf, words_per_shf});
  }
  FingerprintConfig config;
  config.num_bits = bits;
  const auto store = FingerprintStore::FromRaw(config, users,
                                               std::move(words),
                                               std::move(cards))
                         .value();

  std::vector<Shf> queries;
  while (queries.size() < 37) {
    const auto u = static_cast<UserId>(rng.Below(users));
    if (labels[u] != kDistinct) queries.push_back(store.Extract(u));
  }
  queries.push_back(*Shf::Create(bits));

  ThreadPool pool(4);
  std::vector<std::unique_ptr<ScanQueryEngine>> engines;
  engines.push_back(std::make_unique<ScanQueryEngine>(store));
  engines.push_back(std::make_unique<ScanQueryEngine>(store, &pool));
  for (const std::size_t shards : {1u, 3u, 7u}) {
    engines.push_back(std::make_unique<ScanQueryEngine>(Shard(store, shards)));
    engines.push_back(
        std::make_unique<ScanQueryEngine>(Shard(store, shards), &pool));
  }
  for (const std::size_t k : {1ul, 5ul, 24ul, 25ul, 26ul, users}) {
    const auto want = testing::PerPairScan(store, queries, k);
    for (std::size_t e = 0; e < engines.size(); ++e) {
      SCOPED_TRACE("k=" + std::to_string(k) + " engine=" + std::to_string(e));
      ExpectIdentical(engines[e]->QueryBatch(queries, k).value(), want);
    }
  }
}

TEST(ShardedQueryTest, ZeroCardinalityQueriesAndRowsMatchScan) {
  // All-zero fingerprints exercise the estimator's 0/0 guard on both
  // sides of the scatter; ranking ties then resolve purely by id.
  Rng rng(4);
  const std::size_t users = 20;
  const std::size_t bits = 128;
  const std::size_t words_per_shf = bits::WordsForBits(bits);
  std::vector<uint64_t> words(users * words_per_shf, 0);
  std::vector<uint32_t> cards(users, 0);
  // Half the rows get real content; the rest stay zero-cardinality.
  for (std::size_t u = 0; u < users / 2; ++u) {
    for (std::size_t w = 0; w < words_per_shf; ++w) {
      words[u * words_per_shf + w] = rng.Next() & rng.Next();
    }
    cards[u] = bits::PopCount(
        {words.data() + u * words_per_shf, words_per_shf});
  }
  FingerprintConfig config;
  config.num_bits = bits;
  const auto store = FingerprintStore::FromRaw(config, users,
                                               std::move(words),
                                               std::move(cards))
                         .value();
  std::vector<Shf> queries;
  queries.push_back(store.Extract(0));           // non-zero query
  queries.push_back(store.Extract(users - 1));   // zero-cardinality query
  queries.push_back(*Shf::Create(bits));         // external empty query

  const auto want = testing::PerPairScan(store, queries, 7);
  for (const std::size_t shards : {2u, 5u, 30u}) {
    const ScatterModes modes(store, shards);
    for (std::size_t m = 0; m < modes.engines.size(); ++m) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " mode=" + std::to_string(m));
      ExpectIdentical(modes.engines[m]->QueryBatch(queries, 7).value(), want);
    }
  }
}

// A sharded store splits like any other: a 4-shard engine on a 3-thread
// pool scans the pool's row chunks (ParallelFor makes 3 per thread),
// each one timed as a partition, not one task per shard.
TEST(ShardedQueryTest, FourShardEngineScansRowChunksOnThePool) {
  Rng rng(9);
  const std::size_t users = 1000;
  const auto store = RandomStore(users, 1024, rng);
  std::vector<Shf> queries;
  for (std::size_t q = 0; q < 20; ++q) {
    queries.push_back(store.Extract(static_cast<UserId>(rng.Below(users))));
  }

  ThreadPool pool(3);
  obs::MetricRegistry registry;
  obs::PipelineContext obs{.metrics = &registry};
  constexpr std::size_t kShards = 4;
  const ScanQueryEngine engine(Shard(store, kShards), &pool, &obs);
  const auto got = engine.QueryBatch(queries, 10).value();

  const obs::Histogram* scans =
      registry.FindHistogram("query.shard.scan_micros");
  ASSERT_NE(scans, nullptr);
  EXPECT_GT(scans->count(), kShards);
  ExpectIdentical(got, testing::PerPairScan(store, queries, 10));
}

TEST(ShardedQueryTest, SingleQueryMatchesBatch) {
  Rng rng(5);
  const auto store = RandomStore(40, 256, rng);
  const ScanQueryEngine engine(Shard(store, 3));
  const Shf query = store.Extract(7);
  const auto single = engine.Query(query, 5).value();
  const auto batch = engine.QueryBatch({&query, 1}, 5).value();
  ASSERT_EQ(batch.size(), 1u);
  ASSERT_EQ(single.size(), batch[0].size());
  for (std::size_t i = 0; i < single.size(); ++i) {
    EXPECT_EQ(single[i].id, batch[0][i].id);
    EXPECT_EQ(single[i].similarity, batch[0][i].similarity);
  }
  EXPECT_EQ(single[0].id, 7u);  // self-query: the user itself leads
}

TEST(ShardedQueryTest, EmptyBatchIsAnEmptyResult) {
  Rng rng(6);
  const auto store = RandomStore(10, 128, rng);
  const ScanQueryEngine engine(Shard(store, 2));
  EXPECT_TRUE(engine.QueryBatch({}, 3).value().empty());
}

}  // namespace
}  // namespace gf
