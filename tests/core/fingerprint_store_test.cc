#include "core/fingerprint_store.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "testing/test_util.h"

namespace gf {
namespace {

FingerprintConfig Config(std::size_t bits) {
  FingerprintConfig c;
  c.num_bits = bits;
  return c;
}

TEST(FingerprintStoreTest, BuildValidatesConfig) {
  const Dataset d = testing::TinyDataset();
  EXPECT_FALSE(FingerprintStore::Build(d, Config(0)).ok());
  EXPECT_FALSE(FingerprintStore::Build(d, Config(65)).ok());
  EXPECT_TRUE(FingerprintStore::Build(d, Config(64)).ok());
}

TEST(FingerprintStoreTest, MatchesPerProfileFingerprinter) {
  const Dataset d = testing::SmallSynthetic(50);
  const FingerprintConfig config = Config(256);
  auto store = FingerprintStore::Build(d, config);
  ASSERT_TRUE(store.ok());
  auto fp = Fingerprinter::Create(config);
  ASSERT_TRUE(fp.ok());
  for (UserId u = 0; u < d.NumUsers(); ++u) {
    const Shf expected = fp->Fingerprint(d.Profile(u));
    EXPECT_EQ(store->Extract(u), expected) << "user " << u;
    EXPECT_EQ(store->CardinalityOf(u), expected.cardinality());
  }
}

TEST(FingerprintStoreTest, EstimateJaccardMatchesShfPath) {
  const Dataset d = testing::SmallSynthetic(40);
  auto store = FingerprintStore::Build(d, Config(512));
  ASSERT_TRUE(store.ok());
  for (UserId a = 0; a < 10; ++a) {
    for (UserId b = 0; b < 10; ++b) {
      const Shf sa = store->Extract(a);
      const Shf sb = store->Extract(b);
      EXPECT_DOUBLE_EQ(store->EstimateJaccard(a, b),
                       Shf::EstimateJaccard(sa, sb));
    }
  }
}

TEST(FingerprintStoreTest, ParallelBuildMatchesSequential) {
  const Dataset d = testing::SmallSynthetic(120);
  ThreadPool pool(4);
  auto seq = FingerprintStore::Build(d, Config(256), nullptr);
  auto par = FingerprintStore::Build(d, Config(256), &pool);
  ASSERT_TRUE(seq.ok() && par.ok());
  for (UserId u = 0; u < d.NumUsers(); ++u) {
    EXPECT_EQ(seq->Extract(u), par->Extract(u));
  }
}

TEST(FingerprintStoreTest, PayloadBytesAreCompact) {
  const Dataset d = testing::SmallSynthetic(100);
  auto store = FingerprintStore::Build(d, Config(1024));
  ASSERT_TRUE(store.ok());
  // 1024 bits = 128 bytes + 4-byte cardinality per user.
  EXPECT_EQ(store->PayloadBytes(), 100u * (128 + 4));
}

TEST(FingerprintStoreTest, EmptyProfileHasZeroCardinality) {
  auto d = Dataset::FromProfiles({{}, {1, 2}}, 4);
  ASSERT_TRUE(d.ok());
  auto store = FingerprintStore::Build(*d, Config(64));
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store->CardinalityOf(0), 0u);
  EXPECT_GT(store->CardinalityOf(1), 0u);
  EXPECT_DOUBLE_EQ(store->EstimateJaccard(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(store->EstimateJaccard(0, 1), 0.0);
}

TEST(FingerprintStoreTest, IdenticalProfilesGetIdenticalFingerprints) {
  const Dataset d = testing::TinyDataset();  // u0 and u2 identical
  auto store = FingerprintStore::Build(d, Config(128));
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store->Extract(0), store->Extract(2));
  EXPECT_DOUBLE_EQ(store->EstimateJaccard(0, 2), 1.0);
}

TEST(FingerprintStoreTest, ModelledAccessesAreCounted) {
  const Dataset d = testing::TinyDataset();
  auto store = FingerprintStore::Build(d, Config(1024));
  ASSERT_TRUE(store.ok());
  AccessCounter::Instance().Reset();
  AccessCounter::Enable(true);
  store->EstimateJaccard(0, 1);
  AccessCounter::Enable(false);
  // 2 * 16 words + 2 cardinalities.
  EXPECT_EQ(AccessCounter::Instance().loads(), 34u);
  AccessCounter::Instance().Reset();
}

TEST(FingerprintStoreTest, BatchEstimatesEqualPerPairForAllPairs) {
  // Bit-exact equality (not just closeness) between the batched SIMD
  // path and the per-pair scalar path, over every pair of a synthetic
  // dataset and at several fingerprint lengths: Eq. 4 from CountBatch's
  // counts, and the cosine batch. 300 users also makes the candidate
  // list longer than the cosine batch's 256-entry chunk.
  const Dataset d = testing::SmallSynthetic(300);
  for (std::size_t bits : {64ul, 192ul, 1024ul}) {
    auto store = FingerprintStore::Build(d, Config(bits));
    ASSERT_TRUE(store.ok());
    const std::size_t n = store->num_users();
    std::vector<UserId> all(n);
    for (UserId v = 0; v < n; ++v) all[v] = v;
    std::vector<uint32_t> counts(n);
    std::vector<double> cos(n);
    for (UserId u = 0; u < n; ++u) {
      store->CountBatch(u, all, counts);
      store->EstimateCosineBatch(u, all, cos);
      for (UserId v = 0; v < n; ++v) {
        ASSERT_EQ(JaccardFromCounts(store->CardinalityOf(u),
                                    store->CardinalityOf(v), counts[v]),
                  store->EstimateJaccard(u, v))
            << "b=" << bits << " pair (" << u << "," << v << ")";
        ASSERT_EQ(cos[v], store->EstimateCosine(u, v))
            << "b=" << bits << " pair (" << u << "," << v << ")";
      }
    }
  }
}

TEST(FingerprintStoreTest, BatchCountsSameModelledTrafficAsPerPair) {
  const Dataset d = testing::TinyDataset();
  auto store = FingerprintStore::Build(d, Config(1024));
  ASSERT_TRUE(store.ok());
  const std::vector<UserId> candidates = {1, 2, 3};
  std::vector<uint32_t> counts(candidates.size());
  std::vector<double> out(candidates.size());
  AccessCounter::Instance().Reset();
  AccessCounter::Enable(true);
  store->CountBatch(0, candidates, counts);
  AccessCounter::Enable(false);
  // Same 2 * words + 2 model per pair as EstimateJaccard.
  EXPECT_EQ(AccessCounter::Instance().loads(), 3u * 34u);
  AccessCounter::Instance().Reset();
  AccessCounter::Enable(true);
  store->EstimateCosineBatch(0, candidates, out);
  AccessCounter::Enable(false);
  EXPECT_EQ(AccessCounter::Instance().loads(), 3u * 34u);
  AccessCounter::Instance().Reset();
}

// CountBatch's counts rebuild the per-pair estimates exactly: Eq. 4
// through JaccardFromCounts, and the cosine batch through
// CosineFromCounts.
TEST(FingerprintStoreTest, CountBatchRebuildsBatchEstimates) {
  const Dataset d = testing::SmallSynthetic(60);
  auto store = FingerprintStore::Build(d, Config(1024));
  ASSERT_TRUE(store.ok());
  std::vector<UserId> candidates;
  for (UserId v = 0; v < d.NumUsers(); v += 3) candidates.push_back(v);
  std::vector<double> cos(candidates.size());
  std::vector<uint32_t> counts(candidates.size());
  for (const UserId u : {UserId{0}, UserId{17}, UserId{59}}) {
    store->CountBatch(u, candidates, counts);
    store->EstimateCosineBatch(u, candidates, cos);
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const UserId v = candidates[i];
      EXPECT_EQ(JaccardFromCounts(store->CardinalityOf(u),
                                  store->CardinalityOf(v), counts[i]),
                store->EstimateJaccard(u, v))
          << "pair " << u << "," << v;
      EXPECT_EQ(CosineFromCounts(store->CardinalityOf(u),
                                 store->CardinalityOf(v), counts[i]),
                cos[i])
          << "pair " << u << "," << v;
    }
  }
}

// Build's arena, and the arena an owning copy makes, start on a cache
// line, so each row of a multiple of 8 words covers whole lines. FromRaw
// adopts its caller's vector as it is.
TEST(FingerprintStoreTest, OwnedArenasStartOnACacheLine) {
  const Dataset d = testing::SmallSynthetic(40);
  for (const std::size_t bits : {64, 1024}) {
    auto built = FingerprintStore::Build(d, Config(bits));
    ASSERT_TRUE(built.ok());
    const auto address = [](const FingerprintStore& store) {
      return reinterpret_cast<std::uintptr_t>(store.WordsArena().data());
    };
    EXPECT_EQ(address(*built) % 64, 0u) << bits << " bits";
    const FingerprintStore copy = *built;
    EXPECT_EQ(address(copy) % 64, 0u) << bits << " bits";
    EXPECT_NE(address(copy), address(*built));

    const auto arena = built->WordsArena();
    const auto cards = built->Cardinalities();
    std::vector<uint64_t> words(arena.begin(), arena.end());
    const uint64_t* adopted = words.data();
    auto raw = FingerprintStore::FromRaw(
        Config(bits), d.NumUsers(), std::move(words),
        std::vector<uint32_t>(cards.begin(), cards.end()));
    ASSERT_TRUE(raw.ok());
    EXPECT_EQ(raw->WordsArena().data(), adopted) << bits << " bits";
    const FingerprintStore raw_copy = *raw;
    EXPECT_EQ(address(raw_copy) % 64, 0u) << bits << " bits";
    for (UserId u = 0; u < d.NumUsers(); ++u) {
      EXPECT_EQ(raw_copy.Extract(u), built->Extract(u));
    }
  }
}

}  // namespace
}  // namespace gf
