#include "common/simd_popcount.h"

#include <algorithm>
#include <bit>

#include "common/bit_util.h"

// The AVX2, AVX-512 and POPCNT kernels are compiled with per-function
// target attributes (no global -mavx2 / -mavx512f / -mpopcnt), so the
// library still runs on machines without them: the dispatcher simply
// never takes those branches there. Non-x86 builds compile only the
// scalar backend.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define GF_SIMD_X86 1
#include <immintrin.h>
#else
#define GF_SIMD_X86 0
#endif

namespace gf::bits {
namespace detail {

namespace {

inline uint32_t AndPopCountRowScalar(const uint64_t* a, const uint64_t* b,
                                     std::size_t words) {
  uint32_t total = 0;
  for (std::size_t i = 0; i < words; ++i) {
    total += static_cast<uint32_t>(std::popcount(a[i] & b[i]));
  }
  return total;
}

}  // namespace

uint32_t AndPopCountScalar(const uint64_t* a, const uint64_t* b,
                           std::size_t n_words) {
  return AndPopCountRowScalar(a, b, n_words);
}

void AndPopCountTileScalar(const uint64_t* query, const uint64_t* tile,
                           std::size_t n_rows, std::size_t words_per_row,
                           uint32_t* out_counts) {
  for (std::size_t r = 0; r < n_rows; ++r) {
    out_counts[r] =
        AndPopCountRowScalar(query, tile + r * words_per_row, words_per_row);
  }
}

void AndPopCountBatchScalar(const uint64_t* query, const uint64_t* base,
                            std::size_t words_per_row,
                            const uint32_t* row_ids, std::size_t n_rows,
                            uint32_t* out_counts) {
  for (std::size_t r = 0; r < n_rows; ++r) {
    const uint64_t* row =
        base + static_cast<std::size_t>(row_ids[r]) * words_per_row;
    out_counts[r] = AndPopCountRowScalar(query, row, words_per_row);
  }
}

void AndPopCountTileMultiScalar(const uint64_t* queries,
                                std::size_t n_queries, const uint64_t* tile,
                                std::size_t n_rows, std::size_t words_per_row,
                                uint32_t* out_counts) {
  for (std::size_t q = 0; q < n_queries; ++q) {
    AndPopCountTileScalar(queries + q * words_per_row, tile, n_rows,
                          words_per_row, out_counts + q * n_rows);
  }
}

std::size_t RowsPassingFloorScalar(const uint32_t* inter,
                                   const uint32_t* cards, std::size_t n_rows,
                                   uint32_t card_q, double floor,
                                   uint32_t* out_rows) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < n_rows; ++i) {
    if (PassesFloor(inter[i], cards[i], card_q, floor)) {
      out_rows[n++] = static_cast<uint32_t>(i);
    }
  }
  return n;
}

#if GF_SIMD_X86

// The scalar loop, inlined where std::popcount becomes one POPCNT per
// word instead of a libgcc call.
__attribute__((target("popcnt"))) uint32_t AndPopCountPopcnt(
    const uint64_t* a, const uint64_t* b, std::size_t n_words) {
  return AndPopCountRowScalar(a, b, n_words);
}

namespace {

// Per-byte popcount of a 32-byte vector via the classic vpshufb nibble
// LUT (each nibble indexes its popcount in the table).
__attribute__((target("avx2"))) inline __m256i PopcountBytes(__m256i v) {
  const __m256i lut =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
                       0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  return _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                         _mm256_shuffle_epi8(lut, hi));
}

// popcount(a AND b) over one row of `words` words. Byte counters are
// accumulated across up to 31 vectors (31 * 8 = 248 < 255, no overflow)
// before widening with vpsadbw; the <4-word tail is scalar.
__attribute__((target("avx2"))) inline uint32_t AndPopCountRowAvx2(
    const uint64_t* a, const uint64_t* b, std::size_t words) {
  const __m256i zero = _mm256_setzero_si256();
  __m256i acc64 = zero;
  std::size_t i = 0;
  while (i + 4 <= words) {
    std::size_t vectors = (words - i) / 4;
    if (vectors > 31) vectors = 31;
    __m256i acc8 = zero;
    for (std::size_t v = 0; v < vectors; ++v, i += 4) {
      const __m256i va =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
      const __m256i vb =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
      acc8 = _mm256_add_epi8(acc8, PopcountBytes(_mm256_and_si256(va, vb)));
    }
    acc64 = _mm256_add_epi64(acc64, _mm256_sad_epu8(acc8, zero));
  }
  uint64_t lanes[4];
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes), acc64);
  uint32_t total =
      static_cast<uint32_t>(lanes[0] + lanes[1] + lanes[2] + lanes[3]);
  for (; i < words; ++i) {
    total += static_cast<uint32_t>(std::popcount(a[i] & b[i]));
  }
  return total;
}

// popcount(qa AND row) and popcount(qb AND row) in one pass: the row
// vectors are loaded once and ANDed against both queries, halving the
// tile bandwidth of two AndPopCountRowAvx2 calls. Same accumulation
// discipline (<= 31 byte-wise vectors before widening), same results.
__attribute__((target("avx2"))) inline void AndPopCountRow2Avx2(
    const uint64_t* qa, const uint64_t* qb, const uint64_t* row,
    std::size_t words, uint32_t* out_a, uint32_t* out_b) {
  const __m256i zero = _mm256_setzero_si256();
  __m256i acc64a = zero;
  __m256i acc64b = zero;
  std::size_t i = 0;
  while (i + 4 <= words) {
    std::size_t vectors = (words - i) / 4;
    if (vectors > 31) vectors = 31;
    __m256i acc8a = zero;
    __m256i acc8b = zero;
    for (std::size_t v = 0; v < vectors; ++v, i += 4) {
      const __m256i vr =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + i));
      const __m256i va =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(qa + i));
      const __m256i vb =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(qb + i));
      acc8a = _mm256_add_epi8(acc8a, PopcountBytes(_mm256_and_si256(vr, va)));
      acc8b = _mm256_add_epi8(acc8b, PopcountBytes(_mm256_and_si256(vr, vb)));
    }
    acc64a = _mm256_add_epi64(acc64a, _mm256_sad_epu8(acc8a, zero));
    acc64b = _mm256_add_epi64(acc64b, _mm256_sad_epu8(acc8b, zero));
  }
  uint64_t lanes[4];
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes), acc64a);
  uint32_t total_a =
      static_cast<uint32_t>(lanes[0] + lanes[1] + lanes[2] + lanes[3]);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes), acc64b);
  uint32_t total_b =
      static_cast<uint32_t>(lanes[0] + lanes[1] + lanes[2] + lanes[3]);
  for (; i < words; ++i) {
    total_a += static_cast<uint32_t>(std::popcount(qa[i] & row[i]));
    total_b += static_cast<uint32_t>(std::popcount(qb[i] & row[i]));
  }
  *out_a = total_a;
  *out_b = total_b;
}

// words_per_row == 1 tile specialization (b = 64): four consecutive
// rows fit one vector, and vpsadbw's per-64-bit-lane sums are exactly
// the four per-row counts.
__attribute__((target("avx2"))) void AndPopCountTileAvx2Words1(
    const uint64_t* query, const uint64_t* tile, std::size_t n_rows,
    uint32_t* out_counts) {
  const __m256i q = _mm256_set1_epi64x(static_cast<long long>(query[0]));
  const __m256i zero = _mm256_setzero_si256();
  std::size_t r = 0;
  for (; r + 4 <= n_rows; r += 4) {
    const __m256i rows =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(tile + r));
    const __m256i sums =
        _mm256_sad_epu8(PopcountBytes(_mm256_and_si256(rows, q)), zero);
    uint64_t lanes[4];
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes), sums);
    out_counts[r] = static_cast<uint32_t>(lanes[0]);
    out_counts[r + 1] = static_cast<uint32_t>(lanes[1]);
    out_counts[r + 2] = static_cast<uint32_t>(lanes[2]);
    out_counts[r + 3] = static_cast<uint32_t>(lanes[3]);
  }
  for (; r < n_rows; ++r) {
    out_counts[r] = static_cast<uint32_t>(std::popcount(query[0] & tile[r]));
  }
}

}  // namespace

__attribute__((target("avx2"))) void AndPopCountTileAvx2(
    const uint64_t* query, const uint64_t* tile, std::size_t n_rows,
    std::size_t words_per_row, uint32_t* out_counts) {
  if (words_per_row == 1) {
    AndPopCountTileAvx2Words1(query, tile, n_rows, out_counts);
    return;
  }
  if (words_per_row < 4) {
    // 2-3 word rows don't fill a vector; scalar popcnt wins.
    AndPopCountTileScalar(query, tile, n_rows, words_per_row, out_counts);
    return;
  }
  for (std::size_t r = 0; r < n_rows; ++r) {
    out_counts[r] =
        AndPopCountRowAvx2(query, tile + r * words_per_row, words_per_row);
  }
}

__attribute__((target("avx2"))) void AndPopCountTileMultiAvx2(
    const uint64_t* queries, std::size_t n_queries, const uint64_t* tile,
    std::size_t n_rows, std::size_t words_per_row, uint32_t* out_counts) {
  if (words_per_row < 4) {
    // Short rows (b <= 192) reduce to the single-query dispatch, which
    // has its own b = 64 specialization.
    for (std::size_t q = 0; q < n_queries; ++q) {
      AndPopCountTileAvx2(queries + q * words_per_row, tile, n_rows,
                          words_per_row, out_counts + q * n_rows);
    }
    return;
  }
  std::size_t q = 0;
  for (; q + 2 <= n_queries; q += 2) {
    const uint64_t* qa = queries + q * words_per_row;
    const uint64_t* qb = qa + words_per_row;
    uint32_t* out_a = out_counts + q * n_rows;
    uint32_t* out_b = out_a + n_rows;
    for (std::size_t r = 0; r < n_rows; ++r) {
      AndPopCountRow2Avx2(qa, qb, tile + r * words_per_row, words_per_row,
                          out_a + r, out_b + r);
    }
  }
  if (q < n_queries) {
    AndPopCountTileAvx2(queries + q * words_per_row, tile, n_rows,
                        words_per_row, out_counts + q * n_rows);
  }
}

__attribute__((target("avx2"))) void AndPopCountBatchAvx2(
    const uint64_t* query, const uint64_t* base, std::size_t words_per_row,
    const uint32_t* row_ids, std::size_t n_rows, uint32_t* out_counts) {
  if (words_per_row < 4) {
    AndPopCountBatchScalar(query, base, words_per_row, row_ids, n_rows,
                           out_counts);
    return;
  }
  for (std::size_t r = 0; r < n_rows; ++r) {
    if (r + 1 < n_rows) {
      // Gathered rows defeat the hardware prefetcher; hint the next one.
      __builtin_prefetch(
          base + static_cast<std::size_t>(row_ids[r + 1]) * words_per_row);
    }
    const uint64_t* row =
        base + static_cast<std::size_t>(row_ids[r]) * words_per_row;
    out_counts[r] = AndPopCountRowAvx2(query, row, words_per_row);
  }
}

namespace {

#define GF_TARGET_AVX512 __attribute__((target("avx512f,avx512vpopcntdq")))
// The block helpers take row accessors; inlining them into each entry
// point lets the accessor fold into the loads' addressing.
#define GF_INLINE_AVX512 \
  GF_TARGET_AVX512 inline __attribute__((always_inline))

// The horizontal sums of the eight 64-bit-lane vectors acc[0..7], as
// the low eight dwords (sum j in dword j). Each pair's count fits a
// dword (a row has fewer than 2^32 bits), so accumulators are packed
// two to a vector (odd one in the high dwords; no carry crosses) and
// then summed by three rounds of lane shuffles shared by all eight.
// The shifts and shuffles are the zero-masked forms under a full mask:
// GCC 12's unmasked forms, like _mm512_reduce_add_epi64 and
// _mm512_castsi512_si256, pass an undefined vector that trips
// -Wmaybe-uninitialized inside avx512fintrin.h, and -Werror with it.
GF_INLINE_AVX512 __m512i SumLanes8(const __m512i* acc) {
  constexpr __mmask8 kAll = 0xff;
  __m512i packed[4];
  for (int k = 0; k < 4; ++k) {
    packed[k] = _mm512_add_epi64(
        acc[2 * k], _mm512_maskz_slli_epi64(kAll, acc[2 * k + 1], 32));
  }
  // Per 128-bit lane L: {sum of packed[2m] lanes 2L..2L+1, same for
  // packed[2m + 1]}.
  const __m512i s01 = _mm512_add_epi64(
      _mm512_maskz_unpacklo_epi64(kAll, packed[0], packed[1]),
      _mm512_maskz_unpackhi_epi64(kAll, packed[0], packed[1]));
  const __m512i s23 = _mm512_add_epi64(
      _mm512_maskz_unpacklo_epi64(kAll, packed[2], packed[3]),
      _mm512_maskz_unpackhi_epi64(kAll, packed[2], packed[3]));
  // Fold 128-bit lanes pairwise: {s01 0-3, s01 4-7, s23 0-3, s23 4-7}.
  const __m512i u = _mm512_add_epi64(
      _mm512_maskz_shuffle_i64x2(kAll, s01, s23, _MM_SHUFFLE(2, 0, 2, 0)),
      _mm512_maskz_shuffle_i64x2(kAll, s01, s23, _MM_SHUFFLE(3, 1, 3, 1)));
  return _mm512_add_epi64(
      _mm512_maskz_shuffle_i64x2(kAll, u, u, _MM_SHUFFLE(2, 0, 2, 0)),
      _mm512_maskz_shuffle_i64x2(kAll, u, u, _MM_SHUFFLE(3, 1, 3, 1)));
}

// popcount(query AND row_at(j)) for j < 8, as the low eight dwords:
// one vpopcntq per eight words of each pair, the < 8-word tail through
// zero-masked loads, one SumLanes8 for all eight pairs.
template <typename RowAt>
GF_INLINE_AVX512 __m512i AndPopCountRows8Avx512(const uint64_t* query,
                                                RowAt row_at,
                                                std::size_t words) {
  __m512i acc[8];
  for (int j = 0; j < 8; ++j) acc[j] = _mm512_setzero_si512();
  std::size_t w = 0;
  for (; w + 8 <= words; w += 8) {
    const __m512i q = _mm512_loadu_si512(query + w);
    for (int j = 0; j < 8; ++j) {
      const __m512i row = _mm512_loadu_si512(row_at(j) + w);
      acc[j] = _mm512_add_epi64(
          acc[j], _mm512_popcnt_epi64(_mm512_and_si512(q, row)));
    }
  }
  if (w < words) {
    const auto tail = static_cast<__mmask8>((1u << (words - w)) - 1);
    const __m512i q = _mm512_maskz_loadu_epi64(tail, query + w);
    for (int j = 0; j < 8; ++j) {
      const __m512i row = _mm512_maskz_loadu_epi64(tail, row_at(j) + w);
      acc[j] = _mm512_add_epi64(
          acc[j], _mm512_popcnt_epi64(_mm512_and_si512(q, row)));
    }
  }
  return SumLanes8(acc);
}

// Scores the n_rows rows row_at(0), row_at(1), ... against `query`,
// eight at a time. The last block repeats its final row so the kernel
// never reads past the input, and stores only its valid counts.
template <typename RowAt>
GF_INLINE_AVX512 void AndPopCountRowsAvx512(const uint64_t* query,
                                            RowAt row_at, std::size_t n_rows,
                                            std::size_t words,
                                            uint32_t* out_counts) {
  std::size_t r = 0;
  for (; r + 8 <= n_rows; r += 8) {
    _mm512_mask_storeu_epi32(
        out_counts + r, 0xff,
        AndPopCountRows8Avx512(
            query, [&](std::size_t j) { return row_at(r + j); }, words));
  }
  if (r < n_rows) {
    const std::size_t last = n_rows - 1;
    _mm512_mask_storeu_epi32(
        out_counts + r, static_cast<__mmask16>((1u << (n_rows - r)) - 1),
        AndPopCountRows8Avx512(
            query,
            [&](std::size_t j) { return row_at(std::min(r + j, last)); },
            words));
  }
}

}  // namespace

// One pair: vpopcntq over eight words at a time, the tail through
// zero-masked loads. Rows under eight words gain nothing from a vector
// and run POPCNT.
GF_TARGET_AVX512 uint32_t AndPopCountAvx512(const uint64_t* a,
                                            const uint64_t* b,
                                            std::size_t n_words) {
  if (n_words < 8) return AndPopCountPopcnt(a, b, n_words);
  __m512i acc = _mm512_setzero_si512();
  std::size_t w = 0;
  for (; w + 8 <= n_words; w += 8) {
    acc = _mm512_add_epi64(
        acc, _mm512_popcnt_epi64(_mm512_and_si512(_mm512_loadu_si512(a + w),
                                                  _mm512_loadu_si512(b + w))));
  }
  if (w < n_words) {
    const auto tail = static_cast<__mmask8>((1u << (n_words - w)) - 1);
    acc = _mm512_add_epi64(
        acc, _mm512_popcnt_epi64(
                 _mm512_and_si512(_mm512_maskz_loadu_epi64(tail, a + w),
                                  _mm512_maskz_loadu_epi64(tail, b + w))));
  }
  uint64_t lanes[8];
  _mm512_storeu_si512(lanes, acc);
  uint64_t total = 0;
  for (const uint64_t lane : lanes) total += lane;
  return static_cast<uint32_t>(total);
}

// Rows of one to three words (b <= 192) run the AVX2 backend's code: a
// 512-bit vector per row would be mostly mask. At b = 128 the block
// kernel took 1.7-2.2 ns per pair of a 16-query pass, the AVX2 code
// 1.1-1.3 (bench_kernel_popcount). Every wider row runs the eight-pair
// block kernel.
GF_TARGET_AVX512 void AndPopCountTileMultiAvx512(
    const uint64_t* queries, std::size_t n_queries, const uint64_t* tile,
    std::size_t n_rows, std::size_t words_per_row, uint32_t* out_counts) {
  if (words_per_row < 4) {
    AndPopCountTileMultiAvx2(queries, n_queries, tile, n_rows, words_per_row,
                             out_counts);
    return;
  }
  // Blocks of 64 rows, every query against a block while it is in L1:
  // the tile streams from memory once per call.
  constexpr std::size_t kBlockRows = 64;
  for (std::size_t r = 0; r < n_rows; r += kBlockRows) {
    const std::size_t m = std::min(kBlockRows, n_rows - r);
    const uint64_t* block = tile + r * words_per_row;
    for (std::size_t q = 0; q < n_queries; ++q) {
      AndPopCountRowsAvx512(
          queries + q * words_per_row,
          [&](std::size_t i) { return block + i * words_per_row; }, m,
          words_per_row, out_counts + q * n_rows + r);
    }
  }
}

GF_TARGET_AVX512 void AndPopCountBatchAvx512(
    const uint64_t* query, const uint64_t* base, std::size_t words_per_row,
    const uint32_t* row_ids, std::size_t n_rows, uint32_t* out_counts) {
  if (words_per_row == 1) {
    AndPopCountBatchAvx2(query, base, words_per_row, row_ids, n_rows,
                         out_counts);
    return;
  }
  const auto row_at = [&](std::size_t r) {
    return base + static_cast<std::size_t>(row_ids[r]) * words_per_row;
  };
  for (std::size_t r = 0; r < n_rows; r += 8) {
    // Gathered rows defeat the hardware prefetcher; hint the next eight.
    for (std::size_t j = r + 8; j < std::min(n_rows, r + 16); ++j) {
      __builtin_prefetch(row_at(j));
    }
    AndPopCountRowsAvx512(
        query, [&](std::size_t j) { return row_at(r + j); },
        std::min<std::size_t>(8, n_rows - r), words_per_row, out_counts + r);
  }
}

// Eight rows per compare: vcvtudq2pd converts the counts and unions
// exactly, vmulpd rounds floor * union as mulsd does, and the compare is
// the scalar test's negation (not-less-than, true on NaN), so the rows
// that pass are the scalar loop's. Almost no row passes, so a block
// costs one mask test; the < 8-row tail runs the scalar loop. The
// conversions are the zero-masked forms under a full mask: GCC 12's
// unmasked _mm512_cvtepu32_pd passes an undefined vector, like the forms
// SumLanes8 avoids, and trips -Wuninitialized.
GF_TARGET_AVX512 std::size_t RowsPassingFloorAvx512(
    const uint32_t* inter, const uint32_t* cards, std::size_t n_rows,
    uint32_t card_q, double floor, uint32_t* out_rows) {
  constexpr __mmask8 kAll = 0xff;
  const __m256i q = _mm256_set1_epi32(static_cast<int>(card_q));
  const __m512d f = _mm512_set1_pd(floor);
  std::size_t n = 0;
  std::size_t r = 0;
  for (; r + 8 <= n_rows; r += 8) {
    const __m256i i32 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(inter + r));
    const __m256i c32 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cards + r));
    const __m256i u32 = _mm256_sub_epi32(_mm256_add_epi32(q, c32), i32);
    unsigned pass = _mm512_cmp_pd_mask(
        _mm512_maskz_cvtepu32_pd(kAll, i32),
        _mm512_mul_pd(f, _mm512_maskz_cvtepu32_pd(kAll, u32)), _CMP_NLT_UQ);
    while (pass != 0) {
      out_rows[n++] = static_cast<uint32_t>(r + std::countr_zero(pass));
      pass &= pass - 1;
    }
  }
  for (; r < n_rows; ++r) {
    if (PassesFloor(inter[r], cards[r], card_q, floor)) {
      out_rows[n++] = static_cast<uint32_t>(r);
    }
  }
  return n;
}

#undef GF_INLINE_AVX512
#undef GF_TARGET_AVX512

#else  // !GF_SIMD_X86

uint32_t AndPopCountPopcnt(const uint64_t* a, const uint64_t* b,
                           std::size_t n_words) {
  return AndPopCountRowScalar(a, b, n_words);
}

uint32_t AndPopCountAvx512(const uint64_t* a, const uint64_t* b,
                           std::size_t n_words) {
  return AndPopCountRowScalar(a, b, n_words);
}

void AndPopCountTileAvx2(const uint64_t* query, const uint64_t* tile,
                         std::size_t n_rows, std::size_t words_per_row,
                         uint32_t* out_counts) {
  AndPopCountTileScalar(query, tile, n_rows, words_per_row, out_counts);
}

void AndPopCountBatchAvx2(const uint64_t* query, const uint64_t* base,
                          std::size_t words_per_row, const uint32_t* row_ids,
                          std::size_t n_rows, uint32_t* out_counts) {
  AndPopCountBatchScalar(query, base, words_per_row, row_ids, n_rows,
                         out_counts);
}

void AndPopCountTileMultiAvx2(const uint64_t* queries, std::size_t n_queries,
                              const uint64_t* tile, std::size_t n_rows,
                              std::size_t words_per_row,
                              uint32_t* out_counts) {
  AndPopCountTileMultiScalar(queries, n_queries, tile, n_rows, words_per_row,
                             out_counts);
}

void AndPopCountBatchAvx512(const uint64_t* query, const uint64_t* base,
                            std::size_t words_per_row,
                            const uint32_t* row_ids, std::size_t n_rows,
                            uint32_t* out_counts) {
  AndPopCountBatchScalar(query, base, words_per_row, row_ids, n_rows,
                         out_counts);
}

void AndPopCountTileMultiAvx512(const uint64_t* queries,
                                std::size_t n_queries, const uint64_t* tile,
                                std::size_t n_rows, std::size_t words_per_row,
                                uint32_t* out_counts) {
  AndPopCountTileMultiScalar(queries, n_queries, tile, n_rows, words_per_row,
                             out_counts);
}

std::size_t RowsPassingFloorAvx512(const uint32_t* inter,
                                   const uint32_t* cards, std::size_t n_rows,
                                   uint32_t card_q, double floor,
                                   uint32_t* out_rows) {
  return RowsPassingFloorScalar(inter, cards, n_rows, card_q, floor,
                                out_rows);
}

#endif  // GF_SIMD_X86

}  // namespace detail

bool Avx2Available() {
#if GF_SIMD_X86
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

bool PopcntAvailable() {
#if GF_SIMD_X86
  return __builtin_cpu_supports("popcnt");
#else
  return false;
#endif
}

bool Avx512Available() {
#if GF_SIMD_X86
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512vpopcntdq");
#else
  return false;
#endif
}

namespace {

using PairFn = uint32_t (*)(const uint64_t*, const uint64_t*, std::size_t);
using BatchFn = void (*)(const uint64_t*, const uint64_t*, std::size_t,
                         const uint32_t*, std::size_t, uint32_t*);
using TileMultiFn = void (*)(const uint64_t*, std::size_t, const uint64_t*,
                             std::size_t, std::size_t, uint32_t*);
using FloorFn = std::size_t (*)(const uint32_t*, const uint32_t*, std::size_t,
                                uint32_t, double, uint32_t*);

struct Dispatch {
  PopcountBackend backend;
  BatchFn batch;
  TileMultiFn tile_multi;
  FloorFn floor;
  // Below AVX-512 the per-pair kernel follows POPCNT alone: every AVX2
  // CPU has it, and a scalar-backend CPU may.
  PairFn pair;
};

// Resolved once (thread-safe static init) from CPUID; every later call
// is one indirect jump.
const Dispatch& ActiveDispatch() {
  static const Dispatch dispatch = [] {
    const PairFn pair = PopcntAvailable() ? &detail::AndPopCountPopcnt
                                          : &detail::AndPopCountScalar;
    if (Avx512Available()) {
      return Dispatch{PopcountBackend::kAvx512,
                      &detail::AndPopCountBatchAvx512,
                      &detail::AndPopCountTileMultiAvx512,
                      &detail::RowsPassingFloorAvx512,
                      &detail::AndPopCountAvx512};
    }
    if (Avx2Available()) {
      return Dispatch{PopcountBackend::kAvx2, &detail::AndPopCountBatchAvx2,
                      &detail::AndPopCountTileMultiAvx2,
                      &detail::RowsPassingFloorScalar, pair};
    }
    return Dispatch{PopcountBackend::kScalar, &detail::AndPopCountBatchScalar,
                    &detail::AndPopCountTileMultiScalar,
                    &detail::RowsPassingFloorScalar, pair};
  }();
  return dispatch;
}

}  // namespace

PopcountBackend ActivePopcountBackend() { return ActiveDispatch().backend; }

const char* PopcountBackendName(PopcountBackend backend) {
  switch (backend) {
    case PopcountBackend::kScalar:
      return "scalar";
    case PopcountBackend::kAvx2:
      return "avx2";
    case PopcountBackend::kAvx512:
      return "avx512";
  }
  return "unknown";
}

uint32_t AndPopCount(const uint64_t* a, const uint64_t* b,
                     std::size_t n_words) {
  return ActiveDispatch().pair(a, b, n_words);
}

void AndPopCountBatch(const uint64_t* query, const uint64_t* base,
                      std::size_t words_per_row, const uint32_t* row_ids,
                      std::size_t n_rows, uint32_t* out_counts) {
  ActiveDispatch().batch(query, base, words_per_row, row_ids, n_rows,
                         out_counts);
}

void AndPopCountTileMulti(const uint64_t* queries, std::size_t n_queries,
                          const uint64_t* tile, std::size_t n_rows,
                          std::size_t words_per_row, uint32_t* out_counts) {
  ActiveDispatch().tile_multi(queries, n_queries, tile, n_rows, words_per_row,
                              out_counts);
}

std::size_t RowsPassingFloor(const uint32_t* inter, const uint32_t* cards,
                             std::size_t n_rows, uint32_t card_q, double floor,
                             uint32_t* out_rows) {
  return ActiveDispatch().floor(inter, cards, n_rows, card_q, floor,
                                out_rows);
}

}  // namespace gf::bits
