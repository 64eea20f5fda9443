#include "io/serialization.h"

#include <gtest/gtest.h>

#include "knn/brute_force.h"
#include "knn/similarity_provider.h"
#include "testing/test_util.h"

namespace gf::io {
namespace {

void ExpectDatasetsEqual(const Dataset& a, const Dataset& b) {
  ASSERT_EQ(a.NumUsers(), b.NumUsers());
  ASSERT_EQ(a.NumItems(), b.NumItems());
  ASSERT_EQ(a.NumEntries(), b.NumEntries());
  EXPECT_EQ(a.name(), b.name());
  for (UserId u = 0; u < a.NumUsers(); ++u) {
    const auto pa = a.Profile(u);
    const auto pb = b.Profile(u);
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t i = 0; i < pa.size(); ++i) EXPECT_EQ(pa[i], pb[i]);
  }
}

TEST(SerializationTest, DatasetRoundTrip) {
  const Dataset original = testing::SmallSynthetic(60);
  const std::string bytes = SerializeDataset(original);
  auto loaded = DeserializeDataset(bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectDatasetsEqual(original, *loaded);
}

TEST(SerializationTest, EmptyDatasetRoundTrip) {
  const Dataset original = Dataset::FromProfiles({}, 5, "empty").value();
  auto loaded = DeserializeDataset(SerializeDataset(original));
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->NumUsers(), 0u);
  EXPECT_EQ(loaded->NumItems(), 5u);
}

TEST(SerializationTest, FingerprintStoreRoundTrip) {
  const Dataset d = testing::SmallSynthetic(50);
  FingerprintConfig config;
  config.num_bits = 512;
  config.seed = 99;
  config.hash = hash::HashKind::kMurmur3;
  const auto original = FingerprintStore::Build(d, config).value();
  auto loaded = DeserializeFingerprintStore(
      SerializeFingerprintStore(original));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_bits(), 512u);
  EXPECT_EQ(loaded->config().seed, 99u);
  EXPECT_EQ(loaded->config().hash, hash::HashKind::kMurmur3);
  ASSERT_EQ(loaded->num_users(), original.num_users());
  for (UserId u = 0; u < original.num_users(); ++u) {
    EXPECT_EQ(loaded->Extract(u), original.Extract(u));
  }
}

TEST(SerializationTest, KnnGraphRoundTrip) {
  const Dataset d = testing::SmallSynthetic(40);
  ExactJaccardProvider provider(d);
  const KnnGraph original = BruteForceKnn(provider, 5).value();
  auto loaded = DeserializeKnnGraph(SerializeKnnGraph(original));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->NumUsers(), original.NumUsers());
  ASSERT_EQ(loaded->k(), original.k());
  for (UserId u = 0; u < original.NumUsers(); ++u) {
    const auto a = original.NeighborsOf(u);
    const auto b = loaded->NeighborsOf(u);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id);
      EXPECT_EQ(a[i].similarity, b[i].similarity);
    }
  }
}

TEST(SerializationTest, FileRoundTrip) {
  const Dataset original = testing::SmallSynthetic(30);
  const std::string path = ::testing::TempDir() + "/dataset.gfsz";
  ASSERT_TRUE(WriteDataset(original, path).ok());
  auto loaded = ReadDataset(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectDatasetsEqual(original, *loaded);
}

// Regression: a missing artifact used to surface as a generic
// IOError; the Env seam maps ENOENT to NotFound so callers can tell
// "wrong path" from "flaky disk" (only the latter is retryable).
TEST(SerializationTest, MissingFileIsNotFound) {
  auto r = ReadDataset("/nonexistent/nothing.gfsz");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(SerializationTest, BadMagicRejected) {
  std::string bytes = SerializeDataset(testing::TinyDataset());
  bytes[0] = 'X';
  auto r = DeserializeDataset(bytes);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
}

TEST(SerializationTest, WrongKindRejected) {
  const std::string bytes = SerializeDataset(testing::TinyDataset());
  auto r = DeserializeKnnGraph(bytes);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(SerializationTest, TruncationRejected) {
  const std::string bytes = SerializeDataset(testing::TinyDataset());
  for (std::size_t cut : {std::size_t{3}, std::size_t{10}, bytes.size() - 1}) {
    auto r = DeserializeDataset(std::string_view(bytes).substr(0, cut));
    EXPECT_FALSE(r.ok()) << "cut at " << cut;
    EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  }
}

TEST(SerializationTest, PayloadBitFlipCaughtByCrc) {
  std::string bytes = SerializeDataset(testing::SmallSynthetic(20));
  bytes[bytes.size() / 2] ^= 0x40;  // somewhere inside the payload
  auto r = DeserializeDataset(bytes);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  EXPECT_NE(r.status().message().find("CRC"), std::string::npos);
}

TEST(SerializationTest, FingerprintCardinalityTamperCaught) {
  // Even with a recomputed CRC, FromRaw cross-checks cardinalities
  // against the bit arrays. Build a payload whose CRC is valid but whose
  // cardinality array lies: easiest is to serialize, flip a cardinality
  // byte AND fix the CRC — simulated here through FromRaw directly. One
  // lying row (the first, a middle one or the last) is enough, at one-
  // word, odd multi-word and the default widths.
  const Dataset d = testing::SmallSynthetic(9);
  for (const std::size_t bits : {64u, 192u, 1024u}) {
    FingerprintConfig config;
    config.num_bits = bits;
    const auto store = FingerprintStore::Build(d, config).value();
    std::vector<uint64_t> words;
    std::vector<uint32_t> cards;
    for (UserId u = 0; u < store.num_users(); ++u) {
      for (uint64_t w : store.WordsOf(u)) words.push_back(w);
      cards.push_back(store.CardinalityOf(u));
    }
    ASSERT_TRUE(FingerprintStore::FromRaw(config, store.num_users(), words,
                                          cards)
                    .ok())
        << bits << " bits";
    const std::size_t n = store.num_users();
    for (const std::size_t liar : {std::size_t{0}, n / 2, n - 1}) {
      std::vector<uint32_t> lying = cards;
      lying[liar] += 1;
      auto r = FingerprintStore::FromRaw(config, n, words, std::move(lying));
      EXPECT_FALSE(r.ok()) << bits << " bits, row " << liar;
      EXPECT_EQ(r.status().code(), StatusCode::kCorruption)
          << bits << " bits, row " << liar;
    }
  }
}

TEST(SerializationTest, UnsupportedVersionRejected) {
  std::string bytes = SerializeDataset(testing::TinyDataset());
  bytes[4] = 9;  // version field, little-endian low byte
  auto r = DeserializeDataset(bytes);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("version"), std::string::npos);
}

}  // namespace
}  // namespace gf::io
