// GFIX index coverage: the mmap serving path must be bit-exact with
// the in-memory store, and every malformed byte pattern — truncation,
// structural bit flips, crafted hostile headers, torn writes — must
// come back as a clean Corruption without oversized allocation (the
// suite runs under ASan in CI, which turns an absurd allocation into a
// hard failure).

#include "io/gfix.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/random.h"
#include "io/container.h"
#include "io/crc32.h"
#include "io/fault_env.h"
#include "knn/query.h"
#include "testing/test_util.h"

namespace gf::io {
namespace {

using Fault = FaultInjectingEnv::Fault;

constexpr std::size_t kHeaderBytes = 64;
constexpr std::size_t kTocEntryBytes = 32;
constexpr std::size_t kFooterBytes = 16;

std::string TempDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/gfix_test_" + name;
  EXPECT_TRUE(PosixEnv().CreateDirs(dir).ok());
  return dir;
}

FingerprintConfig TestConfig() {
  FingerprintConfig config;
  config.num_bits = 256;
  return config;
}

// ---- byte patching + CRC resealing -------------------------------------

uint32_t GetU32(const std::string& s, std::size_t off) {
  uint32_t v = 0;
  std::memcpy(&v, s.data() + off, sizeof(v));
  return v;
}
uint64_t GetU64(const std::string& s, std::size_t off) {
  uint64_t v = 0;
  std::memcpy(&v, s.data() + off, sizeof(v));
  return v;
}
void SetU32(std::string& s, std::size_t off, uint32_t v) {
  std::memcpy(s.data() + off, &v, sizeof(v));
}
void SetU64(std::string& s, std::size_t off, uint64_t v) {
  std::memcpy(s.data() + off, &v, sizeof(v));
}

struct TocEntry {
  uint32_t id = 0;
  uint32_t crc = 0;
  uint64_t offset = 0;
  uint64_t bytes = 0;
  std::size_t toc_pos = 0;  // entry's own offset within the file
};

std::vector<TocEntry> ParseToc(const std::string& file) {
  const uint32_t count = GetU32(file, 12);
  std::vector<TocEntry> entries;
  for (uint32_t s = 0; s < count; ++s) {
    TocEntry e;
    e.toc_pos = kHeaderBytes + s * kTocEntryBytes;
    e.id = GetU32(file, e.toc_pos);
    e.crc = GetU32(file, e.toc_pos + 4);
    e.offset = GetU64(file, e.toc_pos + 8);
    e.bytes = GetU64(file, e.toc_pos + 16);
    entries.push_back(e);
  }
  return entries;
}

TocEntry FindSection(const std::string& file, GfixSection id) {
  for (const TocEntry& e : ParseToc(file)) {
    if (e.id == static_cast<uint32_t>(id)) return e;
  }
  ADD_FAILURE() << "section " << static_cast<uint32_t>(id) << " not found";
  return {};
}

// Recomputes toc_crc, the footer's section checksum and the header CRC
// after a test tampered with TOC fields or section bytes — so the
// crafted file is structurally self-consistent and the tampered VALUE
// (not a stale checksum) is what the reader must reject.
void Reseal(std::string& file) {
  const uint32_t count = GetU32(file, 12);
  const std::size_t toc_bytes = std::size_t{count} * kTocEntryBytes;
  SetU32(file, 40, Crc32(file.data() + kHeaderBytes, toc_bytes));
  std::string crcs;
  for (uint32_t s = 0; s < count; ++s) {
    PutU32(crcs, GetU32(file, kHeaderBytes + s * kTocEntryBytes + 4));
  }
  SetU32(file, file.size() - 12, Crc32(crcs.data(), crcs.size()));
  SetU32(file, 60, Crc32(file.data(), 60));
}

// Recomputes a tampered section's CRC in the TOC, then reseals, so the
// crafted file also passes GfixVerify::kFull — proving the semantic
// validation itself (not just a checksum) rejects the hostile value.
void ResealSection(std::string& file, GfixSection id) {
  const TocEntry e = FindSection(file, id);
  SetU32(file, e.toc_pos + 4, Crc32(file.data() + e.offset, e.bytes));
  Reseal(file);
}

// ---- fixtures ----------------------------------------------------------

int g_file_seq = 0;

// ctest runs every case in its own process, all sharing TempDir(): the
// pid keeps one process's files from overwriting another's.
std::string WritePath(const std::string& name) {
  return TempDir("files") + "/" + name + "_" + std::to_string(::getpid()) +
         "_" + std::to_string(++g_file_seq) + ".gfix";
}

// A written index (with shard bounds) read back as raw bytes.
std::string ValidIndexBytes(const FingerprintStore& store) {
  PosixEnv env;
  const std::string path = WritePath("valid");
  GfixWriteOptions options;
  options.shard_begins = {0, static_cast<UserId>(store.num_users() / 3),
                          static_cast<UserId>(2 * store.num_users() / 3)};
  if (store.num_users() == 0) options.shard_begins = {0};
  EXPECT_TRUE(WriteGfixIndex(store, path, options, &env).ok());
  return env.ReadFile(path).value();
}

Status OpenBytes(const std::string& bytes,
                 GfixVerify verify = GfixVerify::kStructure) {
  PosixEnv env;
  const std::string path = WritePath("open");
  EXPECT_TRUE(env.WriteFileAtomic(path, bytes).ok());
  auto mapped = MappedFingerprintStore::Open(
      path, MappedFingerprintStore::OpenOptions{verify}, &env);
  return mapped.ok() ? Status::OK() : mapped.status();
}

// ---- round trip + bit-exactness (the property test) --------------------

TEST(GfixTest, MappedStoreIsBitExactWithInMemoryStore) {
  const Dataset d = gf::testing::SmallSynthetic(120);
  const FingerprintStore store =
      FingerprintStore::Build(d, TestConfig()).value();

  PosixEnv env;
  const std::string path = WritePath("bitexact");
  GfixWriteOptions write_options;
  write_options.shard_begins = {0, 40, 80};
  ASSERT_TRUE(WriteGfixIndex(store, path, write_options, &env).ok());

  auto mapped = MappedFingerprintStore::Open(path, &env);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ASSERT_EQ(mapped->num_users(), store.num_users());
  ASSERT_EQ(mapped->num_bits(), store.num_bits());
  EXPECT_TRUE(mapped->store().borrowed());

  // Arenas byte-for-byte.
  const auto mapped_words = mapped->store().WordsArena();
  const auto words = store.WordsArena();
  ASSERT_EQ(mapped_words.size(), words.size());
  EXPECT_EQ(std::memcmp(mapped_words.data(), words.data(),
                        words.size() * sizeof(uint64_t)),
            0);
  for (UserId u = 0; u < store.num_users(); ++u) {
    EXPECT_EQ(mapped->CardinalityOf(u), store.CardinalityOf(u));
  }

  // Scan queries (sequential and batched) bit-exact against the
  // in-memory path: same ids, same similarities, same tie-breaks.
  const Fingerprinter fp = Fingerprinter::Create(store.config()).value();
  std::vector<Shf> queries;
  queries.push_back(store.Extract(0));
  queries.push_back(store.Extract(57));
  const std::vector<ItemId> novel = {1, 5, 9, 444};
  queries.push_back(fp.Fingerprint(novel));
  const ScanQueryEngine memory_scan(store);
  const ScanQueryEngine mapped_scan(mapped->store());
  for (const Shf& q : queries) {
    const auto expect = memory_scan.Query(q, 10).value();
    const auto got = mapped_scan.Query(q, 10).value();
    ASSERT_EQ(got.size(), expect.size());
    for (std::size_t i = 0; i < expect.size(); ++i) {
      EXPECT_EQ(got[i].id, expect[i].id);
      EXPECT_EQ(got[i].similarity, expect[i].similarity);
    }
  }
  const auto expect_batch = memory_scan.QueryBatch(queries, 10).value();
  const auto got_batch = mapped_scan.QueryBatch(queries, 10).value();
  ASSERT_EQ(got_batch.size(), expect_batch.size());
  for (std::size_t q = 0; q < expect_batch.size(); ++q) {
    ASSERT_EQ(got_batch[q].size(), expect_batch[q].size());
    for (std::size_t i = 0; i < expect_batch[q].size(); ++i) {
      EXPECT_EQ(got_batch[q][i].id, expect_batch[q][i].id);
      EXPECT_EQ(got_batch[q][i].similarity, expect_batch[q][i].similarity);
    }
  }

  // Zero-copy shard views hold exactly the source rows.
  ASSERT_EQ(mapped->shard_begins().size(), 3u);
  auto shards = mapped->Shards();
  ASSERT_TRUE(shards.ok()) << shards.status().ToString();
  ASSERT_EQ(shards->num_shards(), 3u);
  for (std::size_t s = 0; s < shards->num_shards(); ++s) {
    const FingerprintStore& shard = shards->shard(s);
    EXPECT_TRUE(shard.borrowed());
    const UserId begin = shards->ShardBegin(s);
    for (std::size_t r = 0; r < shard.num_users(); ++r) {
      const UserId local = static_cast<UserId>(r);
      const UserId global = begin + local;
      // Same bytes AND the same address: the view aliases the mapping.
      EXPECT_EQ(shard.WordsOf(local).data(), mapped->WordsOf(global).data());
      EXPECT_EQ(shard.CardinalityOf(local), store.CardinalityOf(global));
    }
  }
}

TEST(GfixTest, FullVerifyAcceptsAnIntactFile) {
  const Dataset d = gf::testing::SmallSynthetic(60);
  const FingerprintStore store =
      FingerprintStore::Build(d, TestConfig()).value();
  EXPECT_TRUE(OpenBytes(ValidIndexBytes(store), GfixVerify::kFull).ok());
}

TEST(GfixTest, EmptyStoreRoundTrips) {
  const FingerprintStore store =
      FingerprintStore::FromRaw(TestConfig(), 0, {}, {}).value();
  PosixEnv env;
  const std::string path = WritePath("empty");
  ASSERT_TRUE(WriteGfixIndex(store, path, {}, &env).ok());
  auto mapped = MappedFingerprintStore::Open(path, &env);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(mapped->num_users(), 0u);
  auto shards = mapped->Shards();
  ASSERT_TRUE(shards.ok());
  EXPECT_EQ(shards->num_shards(), 1u);
}

TEST(GfixTest, MissingFileIsNotFound) {
  auto mapped = MappedFingerprintStore::Open("/nonexistent/index.gfix");
  EXPECT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kNotFound);
}

// ---- files from before the banded index was retired -------------------

// index_with_bands_v1.gfix is the golden index as written while section
// 5 still held a banded-LSH query index: TinyDataset at 64 bits, seed
// 42, shards {0, 2}, and 16-bit bands. Readers now skip id 5, so the
// file must open under both verify levels and serve exactly what the
// in-memory store answers, while full verify still checks section 5's
// CRC.
TEST(GfixTest, IndexWithRetiredBandsSectionStillServes) {
  FingerprintConfig config;
  config.num_bits = 64;
  config.seed = 42;
  const FingerprintStore store =
      FingerprintStore::Build(gf::testing::TinyDataset(), config).value();
  PosixEnv env;
  const std::string path =
      std::string(GF_IO_TESTDATA_DIR) + "/index_with_bands_v1.gfix";
  const std::string bytes = env.ReadFile(path).value();
  const TocEntry retired = FindSection(bytes, GfixSection::kRetiredBands);
  ASSERT_GT(retired.bytes, 0u);

  std::vector<Shf> queries;
  for (UserId u = 0; u < store.num_users(); ++u) {
    queries.push_back(store.Extract(u));
  }
  const std::vector<ItemId> novel = {1, 4, 7};
  queries.push_back(Fingerprinter::Create(config).value().Fingerprint(novel));
  const ScanQueryEngine memory_scan(store);
  const auto want = memory_scan.QueryBatch(queries, 3).value();

  for (const GfixVerify verify : {GfixVerify::kStructure, GfixVerify::kFull}) {
    auto mapped = MappedFingerprintStore::Open(
        path, MappedFingerprintStore::OpenOptions{verify}, &env);
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    ASSERT_EQ(mapped->num_users(), store.num_users());
    EXPECT_EQ(mapped->shard_begins().size(), 2u);
    const ScanQueryEngine mapped_scan(mapped->store());
    const auto got = mapped_scan.QueryBatch(queries, 3).value();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t q = 0; q < want.size(); ++q) {
      const auto single = mapped_scan.Query(queries[q], 3).value();
      ASSERT_EQ(got[q].size(), want[q].size());
      ASSERT_EQ(single.size(), want[q].size());
      for (std::size_t i = 0; i < want[q].size(); ++i) {
        EXPECT_EQ(got[q][i].id, want[q][i].id);
        EXPECT_EQ(got[q][i].similarity, want[q][i].similarity);
        EXPECT_EQ(single[i].id, want[q][i].id);
        EXPECT_EQ(single[i].similarity, want[q][i].similarity);
      }
    }
  }

  // A flip inside section 5 goes unread under kStructure and fails its
  // CRC under kFull.
  std::string mutated = bytes;
  const std::size_t pos = retired.offset + retired.bytes / 2;
  mutated[pos] = static_cast<char>(static_cast<unsigned char>(mutated[pos]) ^
                                   0x10u);
  EXPECT_TRUE(OpenBytes(mutated, GfixVerify::kStructure).ok());
  EXPECT_EQ(OpenBytes(mutated, GfixVerify::kFull).code(),
            StatusCode::kCorruption);

  // Today's writer emits no section 5.
  GfixWriteOptions options;
  options.shard_begins = {0, 2};
  const std::string fresh_path = WritePath("fresh");
  ASSERT_TRUE(WriteGfixIndex(store, fresh_path, options, &env).ok());
  for (const TocEntry& e : ParseToc(env.ReadFile(fresh_path).value())) {
    EXPECT_NE(e.id, static_cast<uint32_t>(GfixSection::kRetiredBands));
  }
}

// ---- corruption fuzzing -------------------------------------------------

TEST(GfixFuzzTest, EveryTruncationIsCorruption) {
  const Dataset d = gf::testing::SmallSynthetic(50);
  const FingerprintStore store =
      FingerprintStore::Build(d, TestConfig()).value();
  const std::string bytes = ValidIndexBytes(store);

  PosixEnv base;
  const std::string path = WritePath("trunc");
  ASSERT_TRUE(base.WriteFileAtomic(path, bytes).ok());
  // Every prefix below the structural minimum, then a coarse sweep (a
  // short read behind the mapping simulates truncation-under-reader).
  for (std::size_t len = 0; len < bytes.size();
       len = len < 2 * kHeaderBytes ? len + 1 : len + 37) {
    FaultInjectingEnv env(&base);
    env.InjectReadFault(1,
                        {.kind = Fault::Kind::kShortRead, .keep_bytes = len});
    auto mapped = MappedFingerprintStore::Open(path, &env);
    ASSERT_FALSE(mapped.ok()) << "truncation to " << len << " bytes";
    EXPECT_EQ(mapped.status().code(), StatusCode::kCorruption)
        << "truncated to " << len << " of " << bytes.size()
        << " bytes: " << mapped.status().ToString();
  }
}

TEST(GfixFuzzTest, TrailingGarbageIsCorruption) {
  const Dataset d = gf::testing::SmallSynthetic(40);
  const FingerprintStore store =
      FingerprintStore::Build(d, TestConfig()).value();
  const std::string bytes = ValidIndexBytes(store) + "junk";
  EXPECT_EQ(OpenBytes(bytes).code(), StatusCode::kCorruption);
}

TEST(GfixFuzzTest, EveryStructuralBitFlipIsDetected) {
  const Dataset d = gf::testing::SmallSynthetic(40);
  const FingerprintStore store =
      FingerprintStore::Build(d, TestConfig()).value();
  const std::string bytes = ValidIndexBytes(store);
  const std::size_t toc_bytes = GetU32(bytes, 12) * kTocEntryBytes;

  std::vector<std::size_t> positions;
  for (std::size_t b = 0; b < kHeaderBytes + toc_bytes; ++b) {
    positions.push_back(b);
  }
  for (std::size_t b = bytes.size() - kFooterBytes; b < bytes.size(); ++b) {
    positions.push_back(b);
  }
  for (std::size_t byte : positions) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = bytes;
      mutated[byte] = static_cast<char>(
          static_cast<unsigned char>(mutated[byte]) ^ (1u << bit));
      const Status status = OpenBytes(mutated);
      EXPECT_EQ(status.code(), StatusCode::kCorruption)
          << "flip of bit " << bit << " at byte " << byte
          << " went undetected: " << status.ToString();
    }
  }
}

TEST(GfixFuzzTest, SectionBitFlipsAreDetectedUnderFullVerify) {
  const Dataset d = gf::testing::SmallSynthetic(40);
  const FingerprintStore store =
      FingerprintStore::Build(d, TestConfig()).value();
  const std::string bytes = ValidIndexBytes(store);

  Rng rng(20260807);
  const auto toc = ParseToc(bytes);
  constexpr int kFlipsPerSection = 60;
  for (const TocEntry& e : toc) {
    for (int i = 0; i < kFlipsPerSection; ++i) {
      if (e.bytes == 0) continue;
      const std::size_t bit = rng.Below(e.bytes * 8);
      std::string mutated = bytes;
      const std::size_t pos = e.offset + bit / 8;
      mutated[pos] = static_cast<char>(
          static_cast<unsigned char>(mutated[pos]) ^ (1u << (bit % 8)));
      const Status status = OpenBytes(mutated, GfixVerify::kFull);
      EXPECT_EQ(status.code(), StatusCode::kCorruption)
          << "flip in section " << e.id << " at section bit " << bit
          << " survived full verify: " << status.ToString();
    }
  }
}

TEST(GfixFuzzTest, TornWriteIsDetected) {
  const Dataset d = gf::testing::SmallSynthetic(40);
  const FingerprintStore store =
      FingerprintStore::Build(d, TestConfig()).value();
  PosixEnv base;
  FaultInjectingEnv env(&base);
  const std::string path = WritePath("torn");
  env.InjectWriteFault(1, {.kind = Fault::Kind::kTornWrite,
                           .keep_bytes = 200});
  EXPECT_EQ(WriteGfixIndex(store, path, {}, &env).code(),
            StatusCode::kIOError);
  auto mapped = MappedFingerprintStore::Open(path, &env);
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kCorruption);
}

// ---- crafted hostile headers (CRCs re-sealed, so only semantic
// validation stands between the value and a giant allocation) ----------

class GfixCraftedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const Dataset d = gf::testing::SmallSynthetic(60);
    store_.emplace(FingerprintStore::Build(d, TestConfig()).value());
    bytes_ = ValidIndexBytes(*store_);
  }

  void ExpectCorruption(const std::string& file, const char* what) {
    EXPECT_EQ(OpenBytes(file, GfixVerify::kStructure).code(),
              StatusCode::kCorruption)
        << what << " (structure verify)";
    EXPECT_EQ(OpenBytes(file, GfixVerify::kFull).code(),
              StatusCode::kCorruption)
        << what << " (full verify)";
  }

  std::optional<FingerprintStore> store_;
  std::string bytes_;
};

TEST_F(GfixCraftedTest, FutureVersionIsRejected) {
  std::string file = bytes_;
  SetU32(file, 4, kGfixVersion + 1);
  Reseal(file);
  ExpectCorruption(file, "future version");
}

TEST_F(GfixCraftedTest, WrongPayloadKindIsRejected) {
  std::string file = bytes_;
  SetU32(file, 8, 3);  // kKnnGraph
  Reseal(file);
  ExpectCorruption(file, "wrong payload kind");
}

TEST_F(GfixCraftedTest, HugeUserCountIsRejectedWithoutAllocation) {
  const TocEntry meta = FindSection(bytes_, GfixSection::kMeta);
  for (const uint64_t users :
       {uint64_t{1} << 40, uint64_t{1} << 62, uint64_t{0xFFFFFFFFFFFFFFFF}}) {
    std::string file = bytes_;
    SetU64(file, meta.offset + 28, users);  // num_users field
    ResealSection(file, GfixSection::kMeta);
    ExpectCorruption(file, "huge user count");
  }
}

TEST_F(GfixCraftedTest, HostileBitLengthIsRejected) {
  const TocEntry meta = FindSection(bytes_, GfixSection::kMeta);
  for (const uint64_t num_bits :
       {uint64_t{0}, uint64_t{100}, uint64_t{1} << 63,
        uint64_t{0xFFFFFFFFFFFFFFC0}}) {
    std::string file = bytes_;
    SetU64(file, meta.offset, num_bits);
    ResealSection(file, GfixSection::kMeta);
    ExpectCorruption(file, "hostile num_bits");
  }
}

TEST_F(GfixCraftedTest, SectionOffsetOutsideFileIsRejected) {
  const TocEntry words = FindSection(bytes_, GfixSection::kWords);
  std::string file = bytes_;
  SetU64(file, words.toc_pos + 8, uint64_t{1} << 50);  // offset
  Reseal(file);
  ExpectCorruption(file, "section offset outside file");

  file = bytes_;
  SetU64(file, words.toc_pos + 16, uint64_t{1} << 50);  // bytes
  Reseal(file);
  ExpectCorruption(file, "section length outside file");
}

TEST_F(GfixCraftedTest, MisalignedSectionIsRejected) {
  const TocEntry words = FindSection(bytes_, GfixSection::kWords);
  std::string file = bytes_;
  SetU64(file, words.toc_pos + 8, words.offset + 8);
  Reseal(file);
  ExpectCorruption(file, "misaligned section");
}

TEST_F(GfixCraftedTest, DuplicateSectionIsRejected) {
  const TocEntry meta = FindSection(bytes_, GfixSection::kMeta);
  const TocEntry cards = FindSection(bytes_, GfixSection::kCardinalities);
  std::string file = bytes_;
  SetU32(file, cards.toc_pos, meta.id);
  Reseal(file);
  ExpectCorruption(file, "duplicate section id");
}

TEST_F(GfixCraftedTest, MissingRequiredSectionIsRejected) {
  const TocEntry words = FindSection(bytes_, GfixSection::kWords);
  std::string file = bytes_;
  SetU32(file, words.toc_pos, 99);  // unknown id: ignored, Words now absent
  Reseal(file);
  ExpectCorruption(file, "missing Words section");
}

TEST_F(GfixCraftedTest, ShardBoundsCountBeyondPayloadIsRejected) {
  const TocEntry bounds = FindSection(bytes_, GfixSection::kShardBounds);
  std::string file = bytes_;
  SetU64(file, bounds.offset, uint64_t{1} << 40);
  ResealSection(file, GfixSection::kShardBounds);
  ExpectCorruption(file, "huge shard count");
}

TEST_F(GfixCraftedTest, NonMonotonicShardBoundsAreRejected) {
  const TocEntry bounds = FindSection(bytes_, GfixSection::kShardBounds);
  // Layout: u64 count, then u32 begins — begins[1] is at offset 12.
  std::string file = bytes_;
  SetU32(file, bounds.offset + 8 + 4, 0xFFFF);  // begins[1] past num_users
  ResealSection(file, GfixSection::kShardBounds);
  ExpectCorruption(file, "shard begin past the store");

  file = bytes_;
  SetU32(file, bounds.offset + 8, 5);  // begins[0] != 0
  ResealSection(file, GfixSection::kShardBounds);
  ExpectCorruption(file, "first shard not at 0");
}

}  // namespace
}  // namespace gf::io
