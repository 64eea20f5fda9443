// CandidateSet: the id-ordered dedup the KNN constructions run on every
// candidate list (Hyrec's neighbors-of-neighbors, the incremental
// repair, banded LSH's bucket union). A bitmap over user ids [0, n)
// with one summary bit per 64-bit word: Insert and Erase are O(1), and
// Drain appends the ids in ascending order while resetting only the
// words the set touched, so one set is reused for every user of a
// ParallelFor chunk. The output equals sort + unique of the inserted
// ids minus the erased ones, and ascending order is part of the
// contract: NeighborLists::Insert keeps the first of equal scores, so
// the order in which candidates are offered shapes the graph.

#ifndef GF_KNN_CANDIDATE_SET_H_
#define GF_KNN_CANDIDATE_SET_H_

#include <bit>
#include <cstdint>
#include <vector>

#include "dataset/types.h"

namespace gf {

class CandidateSet {
 public:
  /// A set over ids [0, num_users): n/64 words plus n/4096 summary
  /// words, all zero.
  explicit CandidateSet(std::size_t num_users)
      : words_((num_users + 63) / 64), summary_((words_.size() + 63) / 64) {}

  /// Adds `id` (< num_users); returns true when it was absent.
  bool Insert(UserId id) {
    const std::size_t w = id >> 6;
    const uint64_t bit = uint64_t{1} << (id & 63);
    const uint64_t old = words_[w];
    words_[w] = old | bit;
    summary_[w >> 6] |= uint64_t{1} << (w & 63);
    return (old & bit) == 0;
  }

  /// Removes `id` (< num_users; a no-op when absent). Its word stays
  /// marked in the summary; the next Drain visits it and finds it empty.
  void Erase(UserId id) { words_[id >> 6] &= ~(uint64_t{1} << (id & 63)); }

  /// Appends the set's ids to `out` in ascending order and empties the
  /// set. Reads the summary (n/4096 words) plus the words marked since
  /// the last drain.
  void Drain(std::vector<UserId>& out) {
    for (std::size_t s = 0; s < summary_.size(); ++s) {
      uint64_t marked = summary_[s];
      if (marked == 0) continue;
      summary_[s] = 0;
      do {
        const std::size_t w = s * 64 + std::countr_zero(marked);
        marked &= marked - 1;
        uint64_t bits = words_[w];
        words_[w] = 0;
        while (bits != 0) {
          out.push_back(static_cast<UserId>(w * 64 + std::countr_zero(bits)));
          bits &= bits - 1;
        }
      } while (marked != 0);
    }
  }

 private:
  std::vector<uint64_t> words_;    // bit id of word id / 64
  std::vector<uint64_t> summary_;  // bit w: words_[w] may be non-zero
};

}  // namespace gf

#endif  // GF_KNN_CANDIDATE_SET_H_
