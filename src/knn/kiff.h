// KIFF (Boutet, Kermarrec, Mittal, Taïani — ICDE 2016), the
// related-work baseline the paper discusses (§6): exploit the bipartite
// user-item structure and compute similarities only between users who
// share at least one item. An inverted item index yields, per user, the
// co-occurrence count |P_u ∩ P_v| with every sharing user — from which
// Jaccard follows directly without touching the profiles again.
//
// The paper's observation to reproduce: "this approach works
// particularly well on sparse datasets but seems to have more
// difficulties with denser datasets" — on a dense dataset nearly every
// pair shares an item, and KIFF degenerates to an exhaustive search.
//
// Two variants:
//  * KiffKnn(dataset, ...): counting variant — exact Jaccard from the
//    co-occurrence counts (the published algorithm).
//  * KiffKnn(dataset, provider, ...): candidate generation from the
//    index, scoring delegated to any similarity provider (lets KIFF be
//    combined with GoldFinger, as §6 suggests all baselines can).

#ifndef GF_KNN_KIFF_H_
#define GF_KNN_KIFF_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/thread_pool.h"
#include "common/timer.h"
#include "dataset/dataset.h"
#include "knn/graph.h"
#include "knn/stats.h"
#include "obs/pipeline_context.h"

namespace gf {

struct KiffConfig {
  std::size_t k = 30;
};

namespace kiff_internal {

/// Item -> users posting lists.
inline std::vector<std::vector<UserId>> BuildInvertedIndex(
    const Dataset& dataset) {
  std::vector<std::vector<UserId>> postings(dataset.NumItems());
  const auto degrees = dataset.ItemDegrees();
  for (std::size_t i = 0; i < degrees.size(); ++i) {
    postings[i].reserve(degrees[i]);
  }
  for (UserId u = 0; u < dataset.NumUsers(); ++u) {
    for (ItemId it : dataset.Profile(u)) postings[it].push_back(u);
  }
  return postings;
}

/// Runs the per-user candidate scan; `score(u, v, count)` returns the
/// similarity for candidate v with co-occurrence `count`.
template <typename Score>
KnnGraph Run(const Dataset& dataset, const KiffConfig& config,
             ThreadPool* pool, KnnBuildStats* stats, Score&& score,
             const obs::PipelineContext* obs = nullptr) {
  WallTimer timer;
  const std::size_t n = dataset.NumUsers();
  NeighborLists lists(n, config.k);
  std::vector<std::vector<UserId>> postings;
  {
    obs::ScopedPhase index_phase(obs, "kiff.index");
    postings = BuildInvertedIndex(dataset);
  }
  std::atomic<uint64_t> computations{0};

  obs::ScopedPhase scan_phase(obs, "kiff.scan");
  obs::Histogram* candidate_sizes = obs::HistogramOrNull(
      obs, "kiff.candidate_set_size", obs::kSizeBucketBoundaries);
  ParallelFor(pool, n, [&](std::size_t begin, std::size_t end) {
    // Dense per-chunk scratch: co-occurrence count per candidate user.
    std::vector<uint32_t> counts(n, 0);
    std::vector<UserId> touched;
    for (std::size_t uu = begin; uu < end; ++uu) {
      const auto u = static_cast<UserId>(uu);
      touched.clear();
      for (ItemId it : dataset.Profile(u)) {
        for (UserId v : postings[it]) {
          if (v == u) continue;
          if (counts[v]++ == 0) touched.push_back(v);
        }
      }
      if (candidate_sizes != nullptr) {
        candidate_sizes->Observe(static_cast<double>(touched.size()));
      }
      for (UserId v : touched) {
        lists.Insert(u, v, score(u, v, counts[v]));
        counts[v] = 0;  // reset scratch for the next user
      }
      computations.fetch_add(touched.size(), std::memory_order_relaxed);
    }
  });

  KnnGraph graph = lists.Finalize(pool);
  RecordBuildStats(stats, timer, computations.load(), 1);
  return graph;
}

}  // namespace kiff_internal

/// Counting KIFF: exact Jaccard from co-occurrence counts.
inline KnnGraph KiffKnn(const Dataset& dataset, const KiffConfig& config,
                        ThreadPool* pool = nullptr,
                        KnnBuildStats* stats = nullptr,
                        const obs::PipelineContext* obs = nullptr) {
  return kiff_internal::Run(
      dataset, config, pool, stats,
      [&dataset](UserId u, UserId v, uint32_t count) {
        const std::size_t uni =
            dataset.ProfileSize(u) + dataset.ProfileSize(v) - count;
        return uni == 0 ? 0.0
                        : static_cast<double>(count) /
                              static_cast<double>(uni);
      },
      obs);
}

/// Provider-scored KIFF: candidates from the inverted index, similarity
/// from `provider` (e.g. GoldFingerProvider).
template <typename Provider>
KnnGraph KiffKnn(const Dataset& dataset, const Provider& provider,
                 const KiffConfig& config, ThreadPool* pool = nullptr,
                 KnnBuildStats* stats = nullptr,
                 const obs::PipelineContext* obs = nullptr) {
  return kiff_internal::Run(
      dataset, config, pool, stats,
      [&provider](UserId u, UserId v, uint32_t) { return provider(u, v); },
      obs);
}

}  // namespace gf

#endif  // GF_KNN_KIFF_H_
