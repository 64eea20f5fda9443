// Batched AND+popcount kernels — the vectorized form of the Eq. 4 hot
// path. Where bits::AndPopCount (bit_util.h; defined and dispatched
// here too) scores one fingerprint pair at a time, these
// kernels score one query fingerprint against many candidate rows laid
// out the way FingerprintStore stores them (row-major, words_per_row
// contiguous uint64_t words per candidate). Batching amortizes call
// overhead, keeps the query words hot, and opens the door to SIMD
// popcount.
//
// Backends: a portable scalar implementation, an AVX2 one (vpshufb
// nibble-LUT) and an AVX-512 one (vpopcntq, AVX512_VPOPCNTDQ). The
// backend is selected once, at first use, from CPUID (via
// __builtin_cpu_supports), widest first, and is bit-exact with scalar:
// all compute sums of per-word integer popcounts, so every backend
// returns identical uint32_t counts on identical inputs — results never
// depend on the machine the library runs on.
//
// The entry points cover the candidate layouts the KNN algorithms and
// the query serving engine produce:
//   AndPopCountBatch     — one query against an arbitrary id list
//                          gathered from a common base (every KNN
//                          construction's candidate batches);
//   AndPopCountTileMulti — a batch of queries against one contiguous
//                          tile (the serving engine's batched scan):
//                          the tile is streamed once per PAIR of
//                          queries on AVX2 (each row vector is ANDed
//                          against two query vectors) and once per
//                          call on AVX-512 (every query is scored
//                          against a block of rows while it sits in
//                          L1), instead of once per query;
//   RowsPassingFloor     — the scan's prune over one query's counts
//                          from that kernel: eight rows per compare on
//                          AVX-512, so only the few rows that can enter
//                          a top-k leave the vector unit.

#ifndef GF_COMMON_SIMD_POPCOUNT_H_
#define GF_COMMON_SIMD_POPCOUNT_H_

#include <cstddef>
#include <cstdint>

namespace gf::bits {

/// Kernel backends. Dispatch prefers kAvx512, then kAvx2, then kScalar.
enum class PopcountBackend { kScalar, kAvx2, kAvx512 };

/// The backend the dispatched entry points use on this machine.
PopcountBackend ActivePopcountBackend();

/// Human-readable backend name ("scalar", "avx2", "avx512") for logs
/// and benches.
const char* PopcountBackendName(PopcountBackend backend);

/// True when the CPU (and compiler) support the AVX2 backend.
bool Avx2Available();

/// True when the CPU (and compiler) support the AVX-512 backend:
/// AVX512F plus the VPOPCNTDQ vector popcount.
bool Avx512Available();

/// out_counts[i] = popcount(query AND row_{ids[i]}) where row r lives at
/// base + r * words_per_row. Ids may repeat and appear in any order.
void AndPopCountBatch(const uint64_t* query, const uint64_t* base,
                      std::size_t words_per_row, const uint32_t* row_ids,
                      std::size_t n_rows, uint32_t* out_counts);

/// out_counts[q * n_rows + r] = popcount(query_q AND row_r) for the
/// `n_queries` queries packed at queries + q * words_per_row and the
/// `n_rows` contiguous rows starting at `tile` (row r at tile + r *
/// words_per_row). Bit-exact with one call per query; faster because
/// each tile row is loaded from memory once for several query
/// fingerprints.
void AndPopCountTileMulti(const uint64_t* queries, std::size_t n_queries,
                          const uint64_t* tile, std::size_t n_rows,
                          std::size_t words_per_row, uint32_t* out_counts);

/// The serving scan's prune test for one row: false when inter < floor *
/// union, the union being card_q + card_r - inter in uint32_t as in
/// Eq. 4. Such a row cannot enter a top-k whose k-th best score is
/// `floor` (knn/query.cc has the argument).
inline bool PassesFloor(uint32_t inter, uint32_t card_r, uint32_t card_q,
                        double floor) {
  const uint32_t union_estimate = card_q + card_r - inter;
  return !(static_cast<double>(inter) <
           floor * static_cast<double>(union_estimate));
}

/// PassesFloor over one query's counts against `n_rows` rows (inter[i],
/// cards[i]): writes the passing rows to out_rows in ascending order
/// and returns how many it wrote. Every backend returns the same rows:
/// the integers convert to doubles exactly, and the one multiply and
/// compare are IEEE operations on either side.
std::size_t RowsPassingFloor(const uint32_t* inter, const uint32_t* cards,
                             std::size_t n_rows, uint32_t card_q, double floor,
                             uint32_t* out_rows);

/// True when the CPU (and compiler) have the POPCNT instruction. The
/// per-pair bits::AndPopCount runs on it, or, on the AVX-512 backend,
/// on vpopcntq for rows of 8 words or more.
bool PopcntAvailable();

// Fixed-backend implementations, exposed so tests can assert that every
// backend agrees bit-exactly and benches can compare them. The Avx2
// variants require Avx2Available(), the Avx512 ones Avx512Available()
// and the Popcnt one PopcntAvailable(); on non-x86 builds all are the
// scalar code.
namespace detail {

uint32_t AndPopCountScalar(const uint64_t* a, const uint64_t* b,
                           std::size_t n_words);
uint32_t AndPopCountPopcnt(const uint64_t* a, const uint64_t* b,
                           std::size_t n_words);
uint32_t AndPopCountAvx512(const uint64_t* a, const uint64_t* b,
                           std::size_t n_words);

void AndPopCountTileScalar(const uint64_t* query, const uint64_t* tile,
                           std::size_t n_rows, std::size_t words_per_row,
                           uint32_t* out_counts);
void AndPopCountBatchScalar(const uint64_t* query, const uint64_t* base,
                            std::size_t words_per_row,
                            const uint32_t* row_ids, std::size_t n_rows,
                            uint32_t* out_counts);
void AndPopCountTileMultiScalar(const uint64_t* queries,
                                std::size_t n_queries, const uint64_t* tile,
                                std::size_t n_rows, std::size_t words_per_row,
                                uint32_t* out_counts);

void AndPopCountTileAvx2(const uint64_t* query, const uint64_t* tile,
                         std::size_t n_rows, std::size_t words_per_row,
                         uint32_t* out_counts);
void AndPopCountBatchAvx2(const uint64_t* query, const uint64_t* base,
                          std::size_t words_per_row, const uint32_t* row_ids,
                          std::size_t n_rows, uint32_t* out_counts);
void AndPopCountTileMultiAvx2(const uint64_t* queries, std::size_t n_queries,
                              const uint64_t* tile, std::size_t n_rows,
                              std::size_t words_per_row, uint32_t* out_counts);

void AndPopCountBatchAvx512(const uint64_t* query, const uint64_t* base,
                            std::size_t words_per_row,
                            const uint32_t* row_ids, std::size_t n_rows,
                            uint32_t* out_counts);
void AndPopCountTileMultiAvx512(const uint64_t* queries,
                                std::size_t n_queries, const uint64_t* tile,
                                std::size_t n_rows, std::size_t words_per_row,
                                uint32_t* out_counts);

// The scalar loop serves the scalar and AVX2 backends.
std::size_t RowsPassingFloorScalar(const uint32_t* inter,
                                   const uint32_t* cards, std::size_t n_rows,
                                   uint32_t card_q, double floor,
                                   uint32_t* out_rows);
std::size_t RowsPassingFloorAvx512(const uint32_t* inter,
                                   const uint32_t* cards, std::size_t n_rows,
                                   uint32_t card_q, double floor,
                                   uint32_t* out_rows);

}  // namespace detail

}  // namespace gf::bits

#endif  // GF_COMMON_SIMD_POPCOUNT_H_
