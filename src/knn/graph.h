// KNN graph containers: the immutable result graph handed to callers,
// and the bounded mutable neighbor lists the construction algorithms
// refine (paper Eq. 1: each user keeps its k most similar peers).

#ifndef GF_KNN_GRAPH_H_
#define GF_KNN_GRAPH_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "core/shf.h"
#include "dataset/types.h"
#include "knn/candidate_set.h"
#include "knn/provider_concepts.h"

namespace gf {

/// One directed KNN edge endpoint.
struct Neighbor {
  UserId id = kInvalidUser;
  float similarity = -1.0f;
};

/// A neighbor carrying the selection order's full-precision double
/// score. This is the form per-shard top-k crosses process boundaries
/// in (net/wire.h): the distributed coordinator re-offers doubles
/// through TopKSelector and rounds to Neighbor's float only at the very
/// end, exactly like the single-box batch scan — rounding earlier could
/// collapse distinct scores into equal floats and flip id tie-breaks.
struct ScoredNeighbor {
  UserId id = kInvalidUser;
  double similarity = -1.0;
};

/// Immutable KNN graph: up to k neighbors per user, sorted by
/// decreasing similarity.
class KnnGraph {
 public:
  KnnGraph() = default;
  KnnGraph(std::size_t num_users, std::size_t k,
           std::vector<Neighbor> edges, std::vector<uint32_t> counts)
      : num_users_(num_users),
        k_(k),
        edges_(std::move(edges)),
        counts_(std::move(counts)) {}

  std::size_t NumUsers() const { return num_users_; }
  std::size_t k() const { return k_; }

  /// The (validly filled) neighbors of `u`, most similar first.
  std::span<const Neighbor> NeighborsOf(UserId u) const {
    return {edges_.data() + static_cast<std::size_t>(u) * k_, counts_[u]};
  }

  /// Total number of directed edges.
  std::size_t NumEdges() const;

  /// Mean of the stored edge similarities (whatever metric built the
  /// graph). For the paper's quality metric use knn/quality.h, which
  /// re-scores edges with the exact similarity.
  double AverageStoredSimilarity() const;

 private:
  std::size_t num_users_ = 0;
  std::size_t k_ = 0;
  std::vector<Neighbor> edges_;    // num_users * k, row-major
  std::vector<uint32_t> counts_;   // valid entries per user
};

/// Mutable bounded neighbor lists used while constructing a graph.
/// Each user owns a fixed-capacity array of k entries; Insert() keeps
/// the best k seen so far, rejecting duplicates. Thread-safety: callers
/// partition users, so each row has one writer at a time.
class NeighborLists {
 public:
  struct Entry {
    UserId id = kInvalidUser;
    float similarity = -1.0f;
    /// Set by every Insert. NNDescent clears it once the entry has
    /// taken part in a local join; Hyrec's snapshot copy clears it, so
    /// a flagged entry is one inserted since the last step's snapshot.
    bool is_new = true;
  };

  NeighborLists(std::size_t num_users, std::size_t k);

  std::size_t num_users() const { return num_users_; }
  std::size_t k() const { return k_; }

  std::span<const Entry> Of(UserId u) const {
    return {entries_.data() + static_cast<std::size_t>(u) * k_, sizes_[u]};
  }
  /// Mutable view of u's entries. Callers may flip the is_new flags
  /// (NNDescent's join bookkeeping, Hyrec's snapshot copy) but must NOT
  /// rewrite ids or similarities — Insert's worst-similarity floor is
  /// cached per row and would go stale. Row rewrites go through
  /// RestoreRow.
  std::span<Entry> MutableOf(UserId u) {
    return {entries_.data() + static_cast<std::size_t>(u) * k_, sizes_[u]};
  }

  /// Offers (v, sim) to u's list. Returns true when the list changed
  /// (v was absent and either the list had room or sim beats the
  /// current worst entry). Not thread-safe for the same `u`. A full
  /// row's cached worst similarity short-circuits offers at or below
  /// the floor — the common case in the late iterations of the greedy
  /// algorithms — without scanning the row for duplicates.
  bool Insert(UserId u, UserId v, double sim);

  /// The floor Insert tests offers against: Insert(u, v, sim) returns
  /// false, changing nothing, whenever float(sim) <= Floor(u). That is
  /// the worst similarity of a full row, and -infinity while u's row
  /// has room. Not thread-safe against writers of u's row.
  float Floor(UserId u) const {
    return sizes_[u] == k_ ? worst_sims_[u]
                           : -std::numeric_limits<float>::infinity();
  }

  /// Overwrites u's list with `entries` verbatim (at most k), including
  /// the is_new flags. Checkpoint/resume support: restoring every row
  /// from a snapshot reproduces the exact mutable state of the build.
  void RestoreRow(UserId u, std::span<const Entry> entries);

  /// Fills every (empty) list with min(k, n-1) distinct random
  /// neighbors != u, the standard random initialization of the greedy
  /// algorithms; returns the similarities computed. The draws run first,
  /// in one Rng sequence: row u takes ids until it holds the quota of
  /// distinct ones or 100k+100 draws ran out. Then each row offers all
  /// its draws, repeats included, through OfferCandidates on `pool`, in
  /// draw order, so the lists and the count do not depend on the pool.
  template <typename Provider>
  uint64_t InitRandom(Rng& rng, const Provider& provider,
                      ThreadPool* pool = nullptr);

  /// Sorts each list by decreasing similarity and freezes the result.
  /// Rows are sorted independently, on `pool` when non-null.
  KnnGraph Finalize(ThreadPool* pool = nullptr) const;

 private:
  /// Sentinel floor for a row that is not full yet (above any real
  /// similarity, so the short-circuit never fires on it).
  static constexpr float kNoFloor = 2.0f;

  std::size_t num_users_;
  std::size_t k_;
  std::vector<Entry> entries_;                    // num_users * k
  std::vector<uint32_t> sizes_;                   // valid entries per user
  std::vector<float> worst_sims_;                 // per-row floor, kNoFloor
                                                  // until the row fills
};

/// Which rows OfferCandidates offers a pair (u, v) to.
enum class OfferRows {
  kOwn,   // u's row only (brute force, the random init, banded LSH, Hyrec)
  kBoth,  // u's row, then v's (bisection leaves, the repair, NNDescent)
};

/// Per-thread scratch of OfferCandidates, reused across calls.
struct OfferScratch {
  std::vector<uint32_t> counts;
  std::vector<double> sims;
};

/// Unions below this bound make floor * union exact in a double: a
/// float's 24-bit significand times a 29-bit integer fits in 53 bits.
/// A union is at most the fingerprint's bit count, so every real one
/// is far below it.
inline constexpr uint32_t kExactUnionBound = uint32_t{1} << 29;

/// True when a pair with Eq. 4 parts (inter, uni) cannot enter a row
/// whose NeighborLists::Floor is `floor`: inter <= floor * uni. Exact:
/// with uni below kExactUnionBound the product is exact in a double,
/// so the test is the real-number one. When it holds, inter / uni <=
/// floor, so the rounded quotient, and its rounding to float, are <=
/// floor too, and Insert would reject the pair. A union of 0 scores 0,
/// at or below any floor >= 0. No negative floor prunes: -infinity (a
/// row with room) and any floor below 0 admit every pair.
inline bool BelowFloor(uint32_t inter, uint32_t uni, float floor) {
  return floor >= 0.0f && uni < kExactUnionBound &&
         static_cast<double>(inter) <=
             static_cast<double>(floor) * static_cast<double>(uni);
}

/// Scores u against `candidates` and makes the offers in order:
/// offer(u, v, sim) for each candidate v, then, with OfferRows::kBoth,
/// offer(v, u, sim). `offer(row, id, sim)` returns whether it changed
/// the row; the overload below passes lists.Insert. Returns how many
/// offers changed a row. An offer is left out only when its row's
/// floor refuses it, so with lists.Insert the rows and the count are
/// those of the score-then-insert loop.
///
/// A provider with counts (IntersectionCountProvider) takes the fused
/// path: one CountBatch, then each pair is tested against the floor of
/// the row it is offered to (BelowFloor) and only the survivors are
/// divided and offered. A skipped pair is one Insert would have
/// rejected without a side effect, and only an offer that changes u's
/// row moves u's floor, so u's floor is re-read only after those. Every
/// other provider scores all pairs first (ScoreCandidates) and tests
/// each offer as Insert first does: float(sim) <= Floor(row).
template <typename Provider, typename Offer>
uint64_t OfferCandidates(const Provider& provider, UserId u,
                         std::span<const UserId> candidates,
                         const NeighborLists& lists, OfferScratch& scratch,
                         OfferRows rows, Offer&& offer) {
  uint64_t updates = 0;
  if constexpr (IntersectionCountProvider<Provider>) {
    scratch.counts.resize(candidates.size());
    provider.CountBatch(u, candidates, scratch.counts);
    const uint32_t card_u = provider.Cardinality(u);
    float floor_u = lists.Floor(u);
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const UserId v = candidates[i];
      const uint32_t inter = scratch.counts[i];
      const uint32_t card_v = provider.Cardinality(v);
      const uint32_t uni = card_u + card_v - inter;
      const bool to_u = !BelowFloor(inter, uni, floor_u);
      const bool to_v =
          rows == OfferRows::kBoth && !BelowFloor(inter, uni, lists.Floor(v));
      if (!to_u && !to_v) continue;
      const double sim = JaccardFromCounts(card_u, card_v, inter);
      if (to_u && offer(u, v, sim)) {
        ++updates;
        floor_u = lists.Floor(u);
      }
      if (to_v) updates += offer(v, u, sim);
    }
  } else {
    scratch.sims.resize(candidates.size());
    ScoreCandidates(provider, u, candidates, scratch.sims);
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const UserId v = candidates[i];
      const double sim = scratch.sims[i];
      const auto fsim = static_cast<float>(sim);
      if (!(fsim <= lists.Floor(u))) updates += offer(u, v, sim);
      if (rows == OfferRows::kBoth && !(fsim <= lists.Floor(v))) {
        updates += offer(v, u, sim);
      }
    }
  }
  return updates;
}

/// OfferCandidates with every offer inserted: lists.Insert(row, id, sim).
template <typename Provider>
uint64_t OfferCandidates(const Provider& provider, UserId u,
                         std::span<const UserId> candidates,
                         NeighborLists& lists, OfferScratch& scratch,
                         OfferRows rows = OfferRows::kOwn) {
  return OfferCandidates(provider, u, candidates, lists, scratch, rows,
                         [&lists](UserId row, UserId id, double sim) {
                           return lists.Insert(row, id, sim);
                         });
}

template <typename Provider>
uint64_t NeighborLists::InitRandom(Rng& rng, const Provider& provider,
                                   ThreadPool* pool) {
  const std::size_t want = std::min(k_, num_users_ - 1);
  std::vector<UserId> draws;
  std::vector<std::size_t> row_start(num_users_ + 1, 0);
  CandidateSet distinct(num_users_);
  std::vector<UserId> drained;
  for (UserId u = 0; u < num_users_; ++u) {
    std::size_t have = 0;
    std::size_t guard = 0;
    while (have < want && guard++ < 100 * k_ + 100) {
      const auto v = static_cast<UserId>(rng.Below(num_users_));
      if (v == u) continue;
      draws.push_back(v);
      have += distinct.Insert(v);
    }
    drained.clear();
    distinct.Drain(drained);
    row_start[u + 1] = draws.size();
  }
  ParallelFor(pool, num_users_, [&](std::size_t begin, std::size_t end) {
    OfferScratch scratch;
    for (std::size_t u = begin; u < end; ++u) {
      OfferCandidates(provider, static_cast<UserId>(u),
                      {draws.data() + row_start[u],
                       row_start[u + 1] - row_start[u]},
                      *this, scratch);
    }
  });
  return draws.size();
}

}  // namespace gf

#endif  // GF_KNN_GRAPH_H_
