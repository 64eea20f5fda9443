// Word-level bit manipulation kernels shared by the fingerprint (SHF) code
// and the theory module. All bit arrays in the library are arrays of
// uint64_t words, least-significant bit first within a word.

#ifndef GF_COMMON_BIT_UTIL_H_
#define GF_COMMON_BIT_UTIL_H_

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>

namespace gf::bits {

/// Number of 64-bit words needed to hold `nbits` bits.
constexpr std::size_t WordsForBits(std::size_t nbits) {
  return (nbits + 63) / 64;
}

/// True when `nbits` is a supported fingerprint length: a positive
/// multiple of 64. (The paper uses powers of two from 64 to 8192; we
/// accept any multiple of 64 so sweeps are not artificially restricted.)
constexpr bool IsValidBitLength(std::size_t nbits) {
  return nbits > 0 && nbits % 64 == 0;
}

/// Sets bit `pos` in the word array `words`.
inline void SetBit(uint64_t* words, std::size_t pos) {
  words[pos >> 6] |= (uint64_t{1} << (pos & 63));
}

/// Clears bit `pos` in the word array `words`.
inline void ClearBit(uint64_t* words, std::size_t pos) {
  words[pos >> 6] &= ~(uint64_t{1} << (pos & 63));
}

/// Returns bit `pos` of the word array `words`.
inline bool TestBit(const uint64_t* words, std::size_t pos) {
  return (words[pos >> 6] >> (pos & 63)) & 1;
}

/// Population count of a word span.
inline uint32_t PopCount(std::span<const uint64_t> words) {
  uint32_t total = 0;
  for (uint64_t w : words) total += static_cast<uint32_t>(std::popcount(w));
  return total;
}

/// popcount(a AND b) over two equal-length word spans. This is the hot
/// kernel of the whole library: one AND and one popcount per word
/// (Eq. 4 of the paper needs exactly this plus two cached cardinalities).
/// Defined in simd_popcount.cc: the tree is built for baseline x86-64,
/// where std::popcount is a libgcc call per word, so the per-pair
/// kernel is picked at run time, like the batched ones, and runs the
/// POPCNT instruction where the CPU has it. Every choice returns the
/// same count.
uint32_t AndPopCount(const uint64_t* a, const uint64_t* b,
                     std::size_t n_words);

/// popcount(a OR b) over two equal-length word spans (û in the paper's
/// Theorem-1 notation).
inline uint32_t OrPopCount(const uint64_t* a, const uint64_t* b,
                           std::size_t n_words) {
  uint32_t total = 0;
  for (std::size_t i = 0; i < n_words; ++i) {
    total += static_cast<uint32_t>(std::popcount(a[i] | b[i]));
  }
  return total;
}

/// Index (0-based) of the `rank`-th set bit of `w` (rank 0 = lowest set
/// bit). Precondition: popcount(w) > rank — violations trip this debug
/// assert; release builds return 64, which is out of range for any bit
/// index, so callers must never use the result without honouring the
/// precondition.
inline unsigned SelectBit(uint64_t w, unsigned rank) {
  assert(rank < static_cast<unsigned>(std::popcount(w)) &&
         "SelectBit: rank must be < popcount(w)");
  for (unsigned i = 0; i < rank; ++i) w &= w - 1;  // clear lowest set bits
  return static_cast<unsigned>(std::countr_zero(w));
}

}  // namespace gf::bits

#endif  // GF_COMMON_BIT_UTIL_H_
