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

#ifndef GF_KNN_INCREMENTAL_H_
#define GF_KNN_INCREMENTAL_H_

#include <algorithm>
#include <vector>

#include "common/random.h"
#include "common/timer.h"
#include "knn/graph.h"
#include "knn/stats.h"

namespace gf {

struct RefreshConfig {
  /// Random probes added per changed user (escape hatch from a stale
  /// neighborhood).
  std::size_t random_probes = 8;
  /// Hyrec-style neighbor-of-neighbor passes over the changed users
  /// after seeding. At small change fractions the seed candidates
  /// suffice; at heavy churn the extra passes let changed users find
  /// each other through the repaired graph.
  std::size_t refine_iterations = 2;
  uint64_t seed = 0xF5E5;
};

/// Repairs `previous` after the profiles behind `changed_users` were
/// modified (the provider must already reflect the new data). Returns
/// the refreshed graph; `stats` reports the similarity budget spent.
template <typename Provider>
KnnGraph RefreshKnnGraph(const KnnGraph& previous, const Provider& provider,
                         std::vector<UserId> changed_users,
                         const RefreshConfig& config = {},
                         KnnBuildStats* stats = nullptr) {
  WallTimer timer;
  const std::size_t n = previous.NumUsers();
  const std::size_t k = previous.k();
  uint64_t computations = 0;

  std::sort(changed_users.begin(), changed_users.end());
  changed_users.erase(
      std::unique(changed_users.begin(), changed_users.end()),
      changed_users.end());
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

  Rng rng(config.seed);
  std::vector<UserId> candidates;
  for (UserId u : changed_users) {
    // Candidate set: old neighbors, old reverse neighbors, their
    // neighbors, plus random probes.
    candidates.clear();
    for (const Neighbor& nb : previous.NeighborsOf(u)) {
      candidates.push_back(nb.id);
      for (const Neighbor& nn : previous.NeighborsOf(nb.id)) {
        candidates.push_back(nn.id);
      }
    }
    for (UserId r : reverse[u]) {
      candidates.push_back(r);
      for (const Neighbor& nn : previous.NeighborsOf(r)) {
        candidates.push_back(nn.id);
      }
    }
    for (std::size_t p = 0; p < config.random_probes && n > 1; ++p) {
      candidates.push_back(static_cast<UserId>(rng.Below(n)));
    }
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());

    for (UserId v : candidates) {
      if (v == u) continue;
      ++computations;
      const double sim = provider(u, v);
      lists.Insert(u, v, sim);
      // Step 3: u may now belong in v's neighborhood.
      lists.Insert(v, u, sim);
    }
  }

  // Refinement: neighbor-of-neighbor passes restricted to the changed
  // users, over the LIVE lists (so repaired edges propagate).
  for (std::size_t pass = 0; pass < config.refine_iterations; ++pass) {
    uint64_t updates = 0;
    for (UserId u : changed_users) {
      candidates.clear();
      for (const auto& nb : lists.Of(u)) {
        for (const auto& nn : lists.Of(nb.id)) {
          if (nn.id != u) candidates.push_back(nn.id);
        }
      }
      std::sort(candidates.begin(), candidates.end());
      candidates.erase(std::unique(candidates.begin(), candidates.end()),
                       candidates.end());
      for (UserId w : candidates) {
        ++computations;
        const double sim = provider(u, w);
        updates += lists.Insert(u, w, sim);
        updates += lists.Insert(w, u, sim);
      }
    }
    if (updates == 0) break;  // converged early
  }

  KnnGraph graph = lists.Finalize();
  RecordBuildStats(stats, timer, computations, 1 + config.refine_iterations);
  return graph;
}

}  // namespace gf

#endif  // GF_KNN_INCREMENTAL_H_
