#include "common/simd_popcount.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/bit_util.h"
#include "common/random.h"

namespace gf::bits {
namespace {

// Random row-major candidate table (n_rows x words) plus a query row.
struct KernelInput {
  std::vector<uint64_t> query;
  std::vector<uint64_t> rows;
  std::size_t n_rows = 0;
  std::size_t words = 0;
};

KernelInput RandomInput(std::size_t n_rows, std::size_t words, Rng& rng) {
  KernelInput in;
  in.n_rows = n_rows;
  in.words = words;
  in.query.resize(words);
  in.rows.resize(n_rows * words);
  for (auto& w : in.query) w = rng.Next();
  for (auto& w : in.rows) w = rng.Next();
  return in;
}

// Sizes chosen to hit every kernel regime: words < 4 (scalar inside
// AVX2), the 4-word vector width, non-multiple-of-4 tails, and rows
// crossing the 31-vector byte-accumulator flush (words >= 128). Row
// counts cover the words==1 four-rows-per-vector tail and the 256-row
// chunking of FingerprintStore.
constexpr std::size_t kWordSizes[] = {1, 2, 3, 4, 5, 7, 8, 16, 17, 64, 130};
constexpr std::size_t kRowCounts[] = {1, 2, 3, 4, 5, 31, 64, 255, 256, 257};

// The per-pair entry point dispatches to the AVX-512 or the POPCNT
// kernel where the CPU has them; every kernel returns the portable
// loop's counts.
TEST(SimdPopcountTest, PerPairKernelsAgreeBitExactly) {
  Rng rng(10);
  for (std::size_t words : kWordSizes) {
    const KernelInput in = RandomInput(2, words, rng);
    const uint64_t* a = in.rows.data();
    const uint64_t* b = a + words;
    uint32_t want = 0;
    for (std::size_t i = 0; i < words; ++i) {
      want += static_cast<uint32_t>(std::popcount(a[i] & b[i]));
    }
    EXPECT_EQ(detail::AndPopCountScalar(a, b, words), want) << words;
    EXPECT_EQ(AndPopCount(a, b, words), want) << words;
    if (PopcntAvailable()) {
      EXPECT_EQ(detail::AndPopCountPopcnt(a, b, words), want) << words;
    }
    if (Avx512Available()) {
      EXPECT_EQ(detail::AndPopCountAvx512(a, b, words), want) << words;
    }
  }
}

TEST(SimdPopcountTest, ScalarTileMatchesPerPairKernel) {
  Rng rng(11);
  for (std::size_t words : kWordSizes) {
    for (std::size_t n_rows : kRowCounts) {
      const KernelInput in = RandomInput(n_rows, words, rng);
      std::vector<uint32_t> got(n_rows, 0xdeadbeef);
      detail::AndPopCountTileScalar(in.query.data(), in.rows.data(), n_rows,
                                    words, got.data());
      for (std::size_t r = 0; r < n_rows; ++r) {
        EXPECT_EQ(got[r], AndPopCount(in.query.data(),
                                      in.rows.data() + r * words, words))
            << "words=" << words << " row " << r;
      }
    }
  }
}

TEST(SimdPopcountTest, Avx2TileAgreesWithScalarBitExactly) {
  if (!Avx2Available()) GTEST_SKIP() << "no AVX2 on this machine";
  Rng rng(12);
  for (std::size_t words : kWordSizes) {
    for (std::size_t n_rows : kRowCounts) {
      const KernelInput in = RandomInput(n_rows, words, rng);
      std::vector<uint32_t> scalar(n_rows, 0), avx2(n_rows, 0);
      detail::AndPopCountTileScalar(in.query.data(), in.rows.data(), n_rows,
                                    words, scalar.data());
      detail::AndPopCountTileAvx2(in.query.data(), in.rows.data(), n_rows,
                                  words, avx2.data());
      EXPECT_EQ(scalar, avx2) << "words=" << words << " n_rows=" << n_rows;
    }
  }
}

TEST(SimdPopcountTest, Avx2BatchAgreesWithScalarBitExactly) {
  if (!Avx2Available()) GTEST_SKIP() << "no AVX2 on this machine";
  Rng rng(13);
  for (std::size_t words : kWordSizes) {
    for (std::size_t n_ids : kRowCounts) {
      const KernelInput in = RandomInput(64, words, rng);
      // Gather list with repeats and arbitrary order.
      std::vector<uint32_t> ids(n_ids);
      for (auto& id : ids) id = static_cast<uint32_t>(rng.Below(in.n_rows));
      std::vector<uint32_t> scalar(n_ids, 0), avx2(n_ids, 0);
      detail::AndPopCountBatchScalar(in.query.data(), in.rows.data(), words,
                                     ids.data(), n_ids, scalar.data());
      detail::AndPopCountBatchAvx2(in.query.data(), in.rows.data(), words,
                                   ids.data(), n_ids, avx2.data());
      EXPECT_EQ(scalar, avx2) << "words=" << words << " n_ids=" << n_ids;
    }
  }
}

TEST(SimdPopcountTest, DispatchedEntryPointsMatchScalar) {
  Rng rng(14);
  const std::size_t words = 16;  // b = 1024, the paper's headline length
  const KernelInput in = RandomInput(100, words, rng);
  std::vector<uint32_t> ids = {0, 99, 7, 7, 42, 3};
  std::vector<uint32_t> want_tile(in.n_rows), got_tile(in.n_rows);
  std::vector<uint32_t> want_batch(ids.size()), got_batch(ids.size());

  detail::AndPopCountTileScalar(in.query.data(), in.rows.data(), in.n_rows,
                                words, want_tile.data());
  AndPopCountTileMulti(in.query.data(), 1, in.rows.data(), in.n_rows, words,
                       got_tile.data());
  EXPECT_EQ(want_tile, got_tile);

  detail::AndPopCountBatchScalar(in.query.data(), in.rows.data(), words,
                                 ids.data(), ids.size(), want_batch.data());
  AndPopCountBatch(in.query.data(), in.rows.data(), words, ids.data(),
                   ids.size(), got_batch.data());
  EXPECT_EQ(want_batch, got_batch);
}

TEST(SimdPopcountTest, BackendReportingIsConsistent) {
  const PopcountBackend backend = ActivePopcountBackend();
  if (Avx512Available()) {
    EXPECT_EQ(backend, PopcountBackend::kAvx512);
    EXPECT_STREQ(PopcountBackendName(backend), "avx512");
  } else if (Avx2Available()) {
    EXPECT_EQ(backend, PopcountBackend::kAvx2);
    EXPECT_STREQ(PopcountBackendName(backend), "avx2");
  } else {
    EXPECT_EQ(backend, PopcountBackend::kScalar);
    EXPECT_STREQ(PopcountBackendName(backend), "scalar");
  }
}

TEST(SimdPopcountTest, ScalarTileMultiMatchesPerQueryTile) {
  Rng rng(15);
  // Odd and even query counts exercise the AVX2 query-pairing and its
  // odd-tail fallback; 17 crosses FingerprintStore's 16-query group.
  constexpr std::size_t kQueryCounts[] = {1, 2, 3, 5, 16, 17};
  for (std::size_t words : kWordSizes) {
    for (std::size_t n_queries : kQueryCounts) {
      const KernelInput in = RandomInput(33, words, rng);
      std::vector<uint64_t> queries(n_queries * words);
      for (auto& w : queries) w = rng.Next();

      std::vector<uint32_t> got(n_queries * in.n_rows, 0xdeadbeef);
      detail::AndPopCountTileMultiScalar(queries.data(), n_queries,
                                         in.rows.data(), in.n_rows, words,
                                         got.data());
      std::vector<uint32_t> want(in.n_rows);
      for (std::size_t q = 0; q < n_queries; ++q) {
        detail::AndPopCountTileScalar(queries.data() + q * words,
                                      in.rows.data(), in.n_rows, words,
                                      want.data());
        for (std::size_t r = 0; r < in.n_rows; ++r) {
          ASSERT_EQ(got[q * in.n_rows + r], want[r])
              << "words=" << words << " q=" << q << " row " << r;
        }
      }
    }
  }
}

TEST(SimdPopcountTest, Avx2TileMultiAgreesWithScalarBitExactly) {
  if (!Avx2Available()) GTEST_SKIP() << "no AVX2 on this machine";
  Rng rng(16);
  constexpr std::size_t kQueryCounts[] = {1, 2, 3, 5, 16, 17};
  for (std::size_t words : kWordSizes) {
    for (std::size_t n_queries : kQueryCounts) {
      const KernelInput in = RandomInput(57, words, rng);
      std::vector<uint64_t> queries(n_queries * words);
      for (auto& w : queries) w = rng.Next();

      std::vector<uint32_t> want(n_queries * in.n_rows, 0xaaaaaaaa);
      std::vector<uint32_t> got(n_queries * in.n_rows, 0xdeadbeef);
      detail::AndPopCountTileMultiScalar(queries.data(), n_queries,
                                         in.rows.data(), in.n_rows, words,
                                         want.data());
      detail::AndPopCountTileMultiAvx2(queries.data(), n_queries,
                                       in.rows.data(), in.n_rows, words,
                                       got.data());
      ASSERT_EQ(got, want) << "words=" << words << " queries=" << n_queries;
    }
  }
}

TEST(SimdPopcountTest, DispatchedTileMultiMatchesScalar) {
  Rng rng(17);
  const std::size_t words = 16;  // b = 1024
  const KernelInput in = RandomInput(100, words, rng);
  const std::size_t n_queries = 7;
  std::vector<uint64_t> queries(n_queries * words);
  for (auto& w : queries) w = rng.Next();

  std::vector<uint32_t> want(n_queries * in.n_rows);
  std::vector<uint32_t> got(n_queries * in.n_rows);
  detail::AndPopCountTileMultiScalar(queries.data(), n_queries,
                                     in.rows.data(), in.n_rows, words,
                                     want.data());
  AndPopCountTileMulti(queries.data(), n_queries, in.rows.data(), in.n_rows,
                       words, got.data());
  EXPECT_EQ(want, got);
}

// The AVX-512 backend's regimes: one-word rows (eight rows per
// vector), zero-masked tails of every length under a vector (words
// 1..9, 15, 17), whole vectors (8, 16, 24, 64, 128), row counts around
// its eight-row blocks and the 256-row tile, and query counts around
// the 16-query group. Outputs carry guard words past the end, so a
// store outside the n counts fails too.
constexpr std::size_t kAvx512Words[] = {1, 2,  3,  4,  5,  6,  7,  8,
                                        9, 15, 16, 17, 24, 64, 128};
constexpr std::size_t kAvx512Rows[] = {0, 1, 7, 8, 9, 255, 256, 257};
constexpr std::size_t kAvx512Queries[] = {1, 2, 3, 15, 16, 17};
constexpr uint32_t kGuard = 0xdeadbeef;

// n counts followed by 16 guard words.
std::vector<uint32_t> GuardedOutput(std::size_t n) {
  return std::vector<uint32_t>(n + 16, kGuard);
}

TEST(SimdPopcountTest, Avx512TileAgreesWithScalarBitExactly) {
  if (!Avx512Available()) GTEST_SKIP() << "no AVX-512 VPOPCNTDQ here";
  Rng rng(18);
  for (std::size_t words : kAvx512Words) {
    for (std::size_t n_rows : kAvx512Rows) {
      const KernelInput in = RandomInput(n_rows, words, rng);
      std::vector<uint32_t> want = GuardedOutput(n_rows);
      std::vector<uint32_t> got = GuardedOutput(n_rows);
      detail::AndPopCountTileScalar(in.query.data(), in.rows.data(), n_rows,
                                    words, want.data());
      detail::AndPopCountTileMultiAvx512(in.query.data(), 1, in.rows.data(),
                                         n_rows, words, got.data());
      ASSERT_EQ(got, want) << "words=" << words << " n_rows=" << n_rows;
    }
  }
}

TEST(SimdPopcountTest, Avx512BatchAgreesWithScalarBitExactly) {
  if (!Avx512Available()) GTEST_SKIP() << "no AVX-512 VPOPCNTDQ here";
  Rng rng(19);
  for (std::size_t words : kAvx512Words) {
    for (std::size_t n_ids : kAvx512Rows) {
      const KernelInput in = RandomInput(64, words, rng);
      // Unsorted ids with repeats: a descending run, then random draws.
      std::vector<uint32_t> ids(n_ids);
      for (std::size_t i = 0; i < n_ids; ++i) {
        ids[i] = i < 10 ? static_cast<uint32_t>(63 - i % 3)
                        : static_cast<uint32_t>(rng.Below(in.n_rows));
      }
      std::vector<uint32_t> want = GuardedOutput(n_ids);
      std::vector<uint32_t> got = GuardedOutput(n_ids);
      detail::AndPopCountBatchScalar(in.query.data(), in.rows.data(), words,
                                     ids.data(), n_ids, want.data());
      detail::AndPopCountBatchAvx512(in.query.data(), in.rows.data(), words,
                                     ids.data(), n_ids, got.data());
      ASSERT_EQ(got, want) << "words=" << words << " n_ids=" << n_ids;
    }
  }
}

TEST(SimdPopcountTest, Avx512TileMultiAgreesWithScalarBitExactly) {
  if (!Avx512Available()) GTEST_SKIP() << "no AVX-512 VPOPCNTDQ here";
  Rng rng(20);
  for (std::size_t words : kAvx512Words) {
    for (std::size_t n_rows : kAvx512Rows) {
      for (std::size_t n_queries : kAvx512Queries) {
        const KernelInput in = RandomInput(n_rows, words, rng);
        std::vector<uint64_t> queries(n_queries * words);
        for (auto& w : queries) w = rng.Next();
        std::vector<uint32_t> want = GuardedOutput(n_queries * n_rows);
        std::vector<uint32_t> got = GuardedOutput(n_queries * n_rows);
        detail::AndPopCountTileMultiScalar(queries.data(), n_queries,
                                           in.rows.data(), n_rows, words,
                                           want.data());
        detail::AndPopCountTileMultiAvx512(queries.data(), n_queries,
                                           in.rows.data(), n_rows, words,
                                           got.data());
        ASSERT_EQ(got, want) << "words=" << words << " n_rows=" << n_rows
                             << " queries=" << n_queries;
      }
    }
  }
}

// The floor test keeps a row exactly when !(i < floor * u): rows that
// tie the floor pass, and every row passes floors of -1 and 0.
TEST(SimdPopcountTest, ScalarFloorKernelKeepsRowsThatCanEnter) {
  const uint32_t card_q = 10;
  // (i, u) = (5, 15), (2, 18), (10, 10), (0, 10).
  const std::vector<uint32_t> inter = {5, 2, 10, 0};
  const std::vector<uint32_t> cards = {10, 10, 10, 0};
  std::vector<uint32_t> rows(inter.size());
  const auto passing = [&](double floor) {
    const std::size_t n = detail::RowsPassingFloorScalar(
        inter.data(), cards.data(), inter.size(), card_q, floor, rows.data());
    return std::vector<uint32_t>(rows.begin(), rows.begin() + n);
  };
  EXPECT_EQ(passing(1.0 / 3.0), (std::vector<uint32_t>{0, 2}));
  EXPECT_EQ(passing(0.5), (std::vector<uint32_t>{2}));
  EXPECT_EQ(passing(-1.0), (std::vector<uint32_t>{0, 1, 2, 3}));
  EXPECT_EQ(passing(0.0), (std::vector<uint32_t>{0, 1, 2, 3}));
}

// The AVX-512 floor test (and the dispatched one) against the scalar
// loop: row counts around its eight-row blocks and the 256-row tile,
// empty queries and rows (unions of 0), floors of -1 and 0, and floors
// equal to a row's exact i/u, where the test is decided by the last bit
// of floor * u.
TEST(SimdPopcountTest, Avx512FloorKernelAgreesWithScalar) {
  if (!Avx512Available()) GTEST_SKIP() << "no AVX-512 VPOPCNTDQ here";
  Rng rng(21);
  for (const std::size_t n_rows : {0, 1, 7, 8, 9, 255, 256}) {
    for (const uint32_t card_q : {0u, 200u}) {
      std::vector<uint32_t> inter(n_rows);
      std::vector<uint32_t> cards(n_rows);
      for (std::size_t i = 0; i < n_rows; ++i) {
        if (i % 5 == 4) continue;  // an empty row
        cards[i] = static_cast<uint32_t>(rng.Below(1025));
        inter[i] =
            static_cast<uint32_t>(rng.Below(std::min(card_q, cards[i]) + 1));
      }
      std::vector<double> floors = {-1.0, 0.0, 0.25, 1.0};
      for (std::size_t i = 0; i < std::min<std::size_t>(n_rows, 12); ++i) {
        const uint32_t u = card_q + cards[i] - inter[i];
        if (u != 0) floors.push_back(double(inter[i]) / double(u));
      }
      for (const double floor : floors) {
        std::vector<uint32_t> want = GuardedOutput(n_rows);
        std::vector<uint32_t> got = GuardedOutput(n_rows);
        std::vector<uint32_t> dispatched = GuardedOutput(n_rows);
        const std::size_t n_want = detail::RowsPassingFloorScalar(
            inter.data(), cards.data(), n_rows, card_q, floor, want.data());
        EXPECT_EQ(detail::RowsPassingFloorAvx512(inter.data(), cards.data(),
                                                 n_rows, card_q, floor,
                                                 got.data()),
                  n_want);
        EXPECT_EQ(RowsPassingFloor(inter.data(), cards.data(), n_rows, card_q,
                                   floor, dispatched.data()),
                  n_want);
        ASSERT_EQ(got, want) << "n_rows=" << n_rows << " card_q=" << card_q
                             << " floor=" << floor;
        ASSERT_EQ(dispatched, want);
      }
    }
  }
}

TEST(SimdPopcountTest, AllOnesAndDisjointPatterns) {
  // Degenerate inputs with known answers: full overlap and no overlap.
  const std::size_t words = 5;
  std::vector<uint64_t> ones(words, ~uint64_t{0});
  std::vector<uint64_t> rows(2 * words);
  for (std::size_t i = 0; i < words; ++i) {
    rows[i] = ~uint64_t{0};           // row 0: all ones
    rows[words + i] = 0;              // row 1: empty
  }
  uint32_t out[2] = {123, 456};
  AndPopCountTileMulti(ones.data(), 1, rows.data(), 2, words, out);
  EXPECT_EQ(out[0], 64u * words);
  EXPECT_EQ(out[1], 0u);
}

}  // namespace
}  // namespace gf::bits
