// Incremental KNN graph maintenance.
//
// The paper's motivating workloads (§1.2) recompute their KNN graphs
// "in short intervals on fresh data". When only a fraction of the
// profiles changed between intervals, rebuilding from scratch wastes
// almost all of its similarity budget. RefreshKnnGraph repairs an
// existing graph after a set of users changed:
//
//   1. every changed user's row is re-scored from scratch, seeded with
//      its previous neighbors, its previous reverse neighbors, their
//      neighbors (the Hyrec neighbors-of-neighbors step), and a few
//      random probes (so a user whose taste changed completely can
//      escape its old neighborhood);
//   2. edges pointing AT a changed user are re-scored in place;
//   3. changed users are offered to their candidates' rows (their rise
//      in similarity may displace someone else's neighbor).
//
// Unchanged-to-unchanged edges keep their stored similarity: with a
// deterministic provider those scores are still exact, so the repair
// concentrates the similarity budget on the changed region.
//
// A changed user's candidates (steps 1 and 3, and each refinement pass)
// are marked in one CandidateSet (knn/candidate_set.h) and drained in
// ascending id order into OfferCandidates (knn/graph.h), which scores
// them in one batch and offers each pair both ways in that order; with
// a counting provider a pair that cannot enter a row is not divided.

#ifndef GF_KNN_INCREMENTAL_H_
#define GF_KNN_INCREMENTAL_H_

#include <vector>

#include "common/random.h"
#include "common/timer.h"
#include "knn/candidate_set.h"
#include "knn/graph.h"
#include "knn/stats.h"

namespace gf {

/// Random probes added per changed user (escape hatch from a stale
/// neighborhood).
inline constexpr std::size_t kRefreshRandomProbes = 8;
/// Hyrec-style neighbor-of-neighbor passes over the changed users after
/// seeding. At small change fractions the seed candidates suffice; at
/// heavy churn the extra passes let changed users find each other
/// through the repaired graph.
inline constexpr std::size_t kRefreshRefineIterations = 2;
/// Seed of the random probes.
inline constexpr uint64_t kRefreshSeed = 0xF5E5;

/// Repairs `previous` after the profiles behind `changed_users` were
/// modified (the provider must already reflect the new data). Returns
/// the refreshed graph; `stats` reports the similarity budget spent.
template <typename Provider>
KnnGraph RefreshKnnGraph(const KnnGraph& previous, const Provider& provider,
                         std::vector<UserId> changed_users,
                         KnnBuildStats* stats = nullptr) {
  WallTimer timer;
  const std::size_t n = previous.NumUsers();
  const std::size_t k = previous.k();
  uint64_t computations = 0;

  CandidateSet marked(n);
  for (UserId u : changed_users) marked.Insert(u);
  changed_users.clear();
  marked.Drain(changed_users);
  std::vector<bool> changed(n, false);
  for (UserId u : changed_users) changed[u] = true;

  // Reverse adjacency of the previous graph, needed twice below.
  std::vector<std::vector<UserId>> reverse(n);
  for (UserId u = 0; u < n; ++u) {
    for (const Neighbor& nb : previous.NeighborsOf(u)) {
      reverse[nb.id].push_back(u);
    }
  }

  // Rebuild the neighbor lists: stale similarities (edges touching a
  // changed endpoint) are re-scored, the rest are copied.
  NeighborLists lists(n, k);
  for (UserId u = 0; u < n; ++u) {
    if (changed[u]) continue;  // re-seeded below
    for (const Neighbor& nb : previous.NeighborsOf(u)) {
      if (changed[nb.id]) {
        ++computations;
        lists.Insert(u, nb.id, provider(u, nb.id));
      } else {
        lists.Insert(u, nb.id, nb.similarity);
      }
    }
  }

  // Scores u against the drained candidates and offers every pair both
  // ways (step 3: u may now belong in v's neighborhood). Returns how
  // many offers changed a row.
  std::vector<UserId> candidates;
  OfferScratch scratch;
  auto score_and_offer = [&](UserId u) {
    candidates.clear();
    marked.Drain(candidates);
    computations += candidates.size();
    return OfferCandidates(provider, u, candidates, lists, scratch,
                           OfferRows::kBoth);
  };

  Rng rng(kRefreshSeed);
  for (UserId u : changed_users) {
    // Candidate set: old neighbors, old reverse neighbors, their
    // neighbors, plus random probes.
    for (const Neighbor& nb : previous.NeighborsOf(u)) {
      marked.Insert(nb.id);
      for (const Neighbor& nn : previous.NeighborsOf(nb.id)) {
        marked.Insert(nn.id);
      }
    }
    for (UserId r : reverse[u]) {
      marked.Insert(r);
      for (const Neighbor& nn : previous.NeighborsOf(r)) {
        marked.Insert(nn.id);
      }
    }
    for (std::size_t p = 0; p < kRefreshRandomProbes && n > 1; ++p) {
      marked.Insert(static_cast<UserId>(rng.Below(n)));
    }
    marked.Erase(u);
    score_and_offer(u);
  }

  // Refinement: neighbor-of-neighbor passes restricted to the changed
  // users, over the LIVE lists (so repaired edges propagate).
  for (std::size_t pass = 0; pass < kRefreshRefineIterations; ++pass) {
    uint64_t updates = 0;
    for (UserId u : changed_users) {
      for (const auto& nb : lists.Of(u)) {
        for (const auto& nn : lists.Of(nb.id)) marked.Insert(nn.id);
      }
      marked.Erase(u);
      updates += score_and_offer(u);
    }
    if (updates == 0) break;  // converged early
  }

  KnnGraph graph = lists.Finalize();
  RecordBuildStats(stats, timer, computations, 1 + kRefreshRefineIterations);
  return graph;
}

}  // namespace gf

#endif  // GF_KNN_INCREMENTAL_H_
