#include "knn/query.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "common/bit_util.h"
#include "common/random.h"
#include "core/similarity.h"
#include "obs/json_export.h"
#include "testing/test_util.h"

namespace gf {
namespace {

FingerprintStore BuildStore(const Dataset& d, std::size_t bits = 1024) {
  FingerprintConfig config;
  config.num_bits = bits;
  return FingerprintStore::Build(d, config).value();
}

// A store of `users` random fingerprints at ~1/4 bit density (the AND
// of two random words), built through the FromRaw deserialization path.
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

// The profile's fingerprint under the store's own config.
Shf Fingerprint(const FingerprintStore& store,
                std::span<const ItemId> profile) {
  return Fingerprinter::Create(store.config()).value().Fingerprint(profile);
}

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

TEST(ScanQueryTest, ValidatesArguments) {
  const Dataset d = testing::TinyDataset();
  const auto store = BuildStore(d, 128);
  ScanQueryEngine engine(store);
  EXPECT_FALSE(engine.Query(*Shf::Create(64), 3).ok());  // wrong length
  EXPECT_FALSE(engine.Query(*Shf::Create(128), 0).ok());  // k == 0
}

TEST(ScanQueryTest, FindsIdenticalUser) {
  const Dataset d = testing::TinyDataset();  // u0 == u2
  const auto store = BuildStore(d, 256);
  ScanQueryEngine engine(store);
  // Query with exactly u0's profile.
  auto result = engine.Query(Fingerprint(store, d.Profile(0)), 2);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 2u);
  // Both u0 and u2 match with estimate 1.
  EXPECT_EQ((*result)[0].id, 0u);
  EXPECT_EQ((*result)[1].id, 2u);
  EXPECT_FLOAT_EQ((*result)[0].similarity, 1.0f);
  EXPECT_FLOAT_EQ((*result)[1].similarity, 1.0f);
}

TEST(ScanQueryTest, MatchesBruteForceOrdering) {
  const Dataset d = testing::SmallSynthetic(150);
  const auto store = BuildStore(d);
  ScanQueryEngine engine(store);
  // Query with user 7's own profile: the top hit must be user 7.
  auto result = engine.Query(Fingerprint(store, d.Profile(7)), 5);
  ASSERT_TRUE(result.ok());
  ASSERT_GE(result->size(), 1u);
  EXPECT_EQ((*result)[0].id, 7u);
  // Results sorted descending.
  for (std::size_t i = 1; i < result->size(); ++i) {
    EXPECT_LE((*result)[i].similarity, (*result)[i - 1].similarity);
  }
}

TEST(ScanQueryTest, ExternalProfileGetsPlausibleNeighbors) {
  const Dataset d = testing::SmallSynthetic(200, 41);
  const auto store = BuildStore(d);
  ScanQueryEngine engine(store);
  // A synthetic external visitor: half of user 3's profile.
  const auto base = d.Profile(3);
  std::vector<ItemId> visitor(base.begin(),
                              base.begin() + static_cast<long>(base.size() / 2));
  auto result = engine.Query(Fingerprint(store, visitor), 10);
  ASSERT_TRUE(result.ok());
  // User 3 must rank highly.
  bool found = false;
  for (const auto& nb : *result) found |= (nb.id == 3);
  EXPECT_TRUE(found);
}

TEST(ScanQueryTest, KLargerThanStore) {
  const Dataset d = testing::TinyDataset();
  const auto store = BuildStore(d, 128);
  ScanQueryEngine engine(store);
  auto result = engine.Query(Fingerprint(store, d.Profile(0)), 50);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 4u);  // everything in the store
}

// The core contract: QueryBatch is bit-exact with sequential Query —
// same ids, same float similarities, same tie-breaks — across bit
// lengths, batch sizes, k (including k > n) and thread counts, on a
// store large enough that every row-chunk partition of the 4-thread
// pool spans several 256-row tiles (7001 / 12 chunks = 584 rows: two
// full tiles and a partial one).
TEST(ScanQueryTest, QueryBatchBitExactWithSequentialQuery) {
  Rng rng(77);
  ThreadPool pool(4);
  const std::size_t users = 7001;
  for (const std::size_t bits : {64ul, 256ul, 1024ul}) {
    const FingerprintStore store = RandomStore(users, bits, rng);
    std::vector<Shf> queries;
    for (std::size_t q = 0; q < 17; ++q) {
      queries.push_back(
          store.Extract(static_cast<UserId>(rng.Below(users))));
    }
    for (const std::size_t batch : {1ul, 3ul, 17ul}) {
      for (const std::size_t k : {1ul, 5ul, 10'000ul}) {  // 10'000 > n
        for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
          const ScanQueryEngine engine(store, p);
          const std::span<const Shf> q_span(queries.data(), batch);
          auto got = engine.QueryBatch(q_span, k);
          ASSERT_TRUE(got.ok());
          ASSERT_EQ(got->size(), batch);
          for (std::size_t q = 0; q < batch; ++q) {
            auto want = engine.Query(queries[q], k);
            ASSERT_TRUE(want.ok());
            const auto& got_q = (*got)[q];
            ASSERT_EQ(got_q.size(), want->size())
                << "bits=" << bits << " batch=" << batch << " k=" << k;
            for (std::size_t i = 0; i < got_q.size(); ++i) {
              ASSERT_EQ(got_q[i].id, (*want)[i].id)
                  << "bits=" << bits << " k=" << k << " q=" << q
                  << " rank " << i;
              ASSERT_EQ(got_q[i].similarity, (*want)[i].similarity)
                  << "bits=" << bits << " k=" << k << " q=" << q
                  << " rank " << i;
            }
          }
        }
      }
    }
  }
}

TEST(ScanQueryTest, PinnedSnapshotEngineMatchesRawReference) {
  // The snapshot seam: an engine constructed over a SnapshotPtr answers
  // bit-identically to one over the raw store, and keeps its epoch
  // alive on its own (the owning handle can be dropped).
  Rng rng(0x9E51);
  const FingerprintStore store = RandomStore(64, 256, rng);
  std::vector<Shf> queries;
  for (std::size_t q = 0; q < 8; ++q) {
    queries.push_back(store.Extract(static_cast<UserId>(rng.Below(64))));
  }
  const ScanQueryEngine raw(store);
  auto want = raw.QueryBatch(queries, 5);
  ASSERT_TRUE(want.ok());

  SnapshotPtr snapshot = StoreSnapshot::Own(FingerprintStore(store), 7);
  const std::weak_ptr<const StoreSnapshot> epoch = snapshot;
  const ScanQueryEngine pinned(std::move(snapshot));
  EXPECT_FALSE(epoch.expired());  // the engine alone keeps it alive
  auto got = pinned.QueryBatch(queries, 5);
  ASSERT_TRUE(got.ok());
  ExpectIdentical(*got, *want);
}

// k above the row count selects every row: k = SIZE_MAX must answer
// exactly what k = n does (and never size a buffer by k).
TEST(ScanQueryTest, KAtSizeMaxMatchesKEqualsN) {
  Rng rng(0x5A11);
  const std::size_t users = 300;
  const FingerprintStore store = RandomStore(users, 256, rng);
  std::vector<Shf> queries;
  for (std::size_t q = 0; q < 5; ++q) {
    queries.push_back(store.Extract(static_cast<UserId>(rng.Below(users))));
  }
  ThreadPool pool(3);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    const ScanQueryEngine engine(store, p);
    const auto want = engine.QueryBatch(queries, users).value();
    ExpectIdentical(engine.QueryBatch(queries, SIZE_MAX).value(), want);
    const auto single = engine.Query(queries[0], SIZE_MAX).value();
    ExpectIdentical({single}, {want[0]});
    EXPECT_EQ(single.size(), users);
  }
}

TEST(ScanQueryTest, QueryBatchValidatesArguments) {
  const Dataset d = testing::TinyDataset();
  const auto store = BuildStore(d, 128);
  const ScanQueryEngine engine(store);
  std::vector<Shf> wrong;
  wrong.push_back(*Shf::Create(64));
  EXPECT_FALSE(engine.QueryBatch(wrong, 3).ok());
  std::vector<Shf> right;
  right.push_back(*Shf::Create(128));
  EXPECT_FALSE(engine.QueryBatch(right, 0).ok());
  EXPECT_TRUE(engine.QueryBatch(right, 3).ok());
}

TEST(ScanQueryTest, QueryBatchOnEmptyStoreAndEmptyBatch) {
  FingerprintConfig config;
  config.num_bits = 128;
  const FingerprintStore store =
      FingerprintStore::FromRaw(config, 0, {}, {}).value();
  const ScanQueryEngine engine(store);

  auto empty_batch = engine.QueryBatch({}, 3);
  ASSERT_TRUE(empty_batch.ok());
  EXPECT_TRUE(empty_batch->empty());

  std::vector<Shf> queries;
  queries.push_back(*Shf::Create(128));
  auto result = engine.QueryBatch(queries, 3);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_TRUE((*result)[0].empty());
}

TEST(ScanQueryTest, ZeroCardinalityQueryScoresZeroEverywhere) {
  Rng rng(5);
  const FingerprintStore store = RandomStore(20, 128, rng);
  const ScanQueryEngine engine(store);
  std::vector<Shf> queries;
  queries.push_back(*Shf::Create(128));  // no bits set
  auto batch = engine.QueryBatch(queries, 5);
  ASSERT_TRUE(batch.ok());
  auto single = engine.Query(queries[0], 5);
  ASSERT_TRUE(single.ok());
  ASSERT_EQ((*batch)[0].size(), single->size());
  for (std::size_t i = 0; i < single->size(); ++i) {
    EXPECT_EQ((*batch)[0][i].id, (*single)[i].id);
    EXPECT_EQ((*batch)[0][i].similarity, 0.0f);
  }
}

TEST(QueryMetricsTest, EnginesExportLatencyAndCandidateMetrics) {
  const Dataset d = testing::SmallSynthetic(60);
  const auto store = BuildStore(d, 256);
  obs::MetricRegistry registry;
  obs::PipelineContext ctx;
  ctx.metrics = &registry;

  const ScanQueryEngine scan(store, nullptr, &ctx);
  std::vector<Shf> queries;
  queries.push_back(store.Extract(7));
  queries.push_back(store.Extract(8));
  ASSERT_TRUE(scan.Query(queries[0], 3).ok());
  ASSERT_TRUE(scan.QueryBatch(queries, 3).ok());

  // Counters: 1 sequential + 2 batched scan queries; the scan visits
  // all 60 users per query.
  EXPECT_EQ(registry.GetCounter("query.sharded.queries")->value(), 3u);
  EXPECT_EQ(registry.GetCounter("query.batches")->value(), 1u);
  EXPECT_GE(registry.GetCounter("query.candidates")->value(), 3u * 60u);

  // Latency histogram: one observation per query.
  const obs::Histogram* latency = registry.FindHistogram("query.latency");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count(), 3u);
  // The batch's partition scans (one: the engine has no pool).
  const obs::Histogram* scans =
      registry.FindHistogram("query.shard.scan_micros");
  ASSERT_NE(scans, nullptr);
  EXPECT_EQ(scans->count(), 1u);

  // The exported JSON carries the histogram buckets and counters the
  // acceptance criteria name.
  const std::string json = obs::ExportJson(registry);
  EXPECT_NE(json.find("query.latency"), std::string::npos);
  EXPECT_NE(json.find("query.candidates"), std::string::npos);
  EXPECT_NE(json.find("boundaries"), std::string::npos);
}

}  // namespace
}  // namespace gf
