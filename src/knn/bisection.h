// Recursive bisection ANN — the divide-and-conquer family of the
// paper's related work (§6: Recursive Lanczos Bisection, Chen, Fang,
// Saad 2009). This implementation keeps the published algorithm's
// structure (recursively split the user set into two overlapping
// halves, solve leaves exhaustively, take the union of the overlapping
// solutions) but replaces the Lanczos spectral split with a
// medoid-based one — two far-apart pivot users partition the set by
// relative similarity — which needs only the similarity provider, not a
// dense feature matrix (our data is sparse sets; see DESIGN.md §5).
//
// The `overlap` fraction plays the role of Chen et al.'s gluing set:
// users near the boundary join both halves, which is what lets
// neighbors split across the cut still find each other.

#ifndef GF_KNN_BISECTION_H_
#define GF_KNN_BISECTION_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "common/random.h"
#include "common/timer.h"
#include "knn/graph.h"
#include "knn/stats.h"
#include "obs/pipeline_context.h"

namespace gf {

struct BisectionConfig {
  std::size_t k = 30;
  /// Leaves at or below this size are solved exhaustively.
  std::size_t leaf_size = 500;
  /// Fraction of each half duplicated into the other (the glue).
  double overlap = 0.15;
  uint64_t seed = 0xB15EC7;
};

namespace bisection_internal {

template <typename Provider>
void Solve(const Provider& provider, const BisectionConfig& config,
           std::vector<UserId>& members, NeighborLists& lists,
           std::atomic<uint64_t>& computations, Rng& rng, int depth) {
  const std::size_t m = members.size();
  // Exhaustive leaf (also the fallback when a split fails to shrink):
  // each pair i < j is scored once and offered to both rows, (i, j)
  // then (j, i).
  if (m <= config.leaf_size || depth > 48) {
    OfferScratch scratch;
    const std::span<const UserId> all(members);
    for (std::size_t i = 0; i + 1 < m; ++i) {
      OfferCandidates(provider, members[i], all.subspan(i + 1), lists,
                      scratch, OfferRows::kBoth);
    }
    computations.fetch_add(m * (m - 1) / 2, std::memory_order_relaxed);
    return;
  }

  // Pivot selection: a random user, then its farthest of a small
  // sample; then the farthest from that (approximate diameter).
  const UserId p0 = members[rng.Below(m)];
  auto farthest_from = [&](UserId pivot) {
    UserId best = members[0];
    double best_sim = 2.0;
    for (int t = 0; t < 32; ++t) {
      const UserId candidate = members[rng.Below(m)];
      if (candidate == pivot) continue;
      const double sim = provider(pivot, candidate);
      computations.fetch_add(1, std::memory_order_relaxed);
      if (sim < best_sim) {
        best_sim = sim;
        best = candidate;
      }
    }
    return best;
  };
  const UserId a = farthest_from(p0);
  const UserId b = farthest_from(a);

  // Partition by relative similarity to the pivots; margin = how
  // decisively a user belongs to its side.
  struct Scored {
    UserId user;
    double margin;  // sim(a) - sim(b)
  };
  std::vector<Scored> scored;
  scored.reserve(m);
  for (UserId u : members) {
    const double sa = provider(u, a);
    const double sb = provider(u, b);
    computations.fetch_add(2, std::memory_order_relaxed);
    scored.push_back({u, sa - sb});
  }
  std::sort(scored.begin(), scored.end(),
            [](const Scored& x, const Scored& y) {
              if (x.margin != y.margin) return x.margin > y.margin;
              return x.user < y.user;
            });

  // Left = top half plus the glue below the median; right mirrored.
  const std::size_t half = m / 2;
  const auto glue = static_cast<std::size_t>(
      config.overlap * static_cast<double>(m) / 2.0);
  const std::size_t left_end = std::min(m, half + glue);
  const std::size_t right_begin = half > glue ? half - glue : 0;

  std::vector<UserId> left, right;
  left.reserve(left_end);
  right.reserve(m - right_begin);
  for (std::size_t i = 0; i < left_end; ++i) left.push_back(scored[i].user);
  for (std::size_t i = right_begin; i < m; ++i) {
    right.push_back(scored[i].user);
  }
  if (left.size() >= m || right.size() >= m) {
    // Degenerate split (all margins equal): fall back to exhaustive.
    BisectionConfig leaf_config = config;
    leaf_config.leaf_size = m;
    Solve(provider, leaf_config, members, lists, computations, rng,
          depth + 1);
    return;
  }
  Solve(provider, config, left, lists, computations, rng, depth + 1);
  Solve(provider, config, right, lists, computations, rng, depth + 1);
}

}  // namespace bisection_internal

template <typename Provider>
KnnGraph RecursiveBisectionKnn(const Provider& provider,
                               const BisectionConfig& config,
                               KnnBuildStats* stats = nullptr,
                               const obs::PipelineContext* obs = nullptr) {
  WallTimer timer;
  const std::size_t n = provider.num_users();
  NeighborLists lists(n, config.k);
  std::atomic<uint64_t> computations{0};
  Rng rng(config.seed);
  std::vector<UserId> all(n);
  for (UserId u = 0; u < n; ++u) all[u] = u;
  if (n > 1) {
    obs::ScopedPhase solve_phase(obs, "bisection.solve");
    bisection_internal::Solve(provider, config, all, lists, computations,
                              rng, 0);
  }
  KnnGraph graph = lists.Finalize();
  RecordBuildStats(stats, timer, computations.load(), 1);
  return graph;
}

}  // namespace gf

#endif  // GF_KNN_BISECTION_H_
