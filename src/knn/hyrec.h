// Hyrec (Boutet et al., Middleware 2014; paper §3.2.4): greedy KNN
// refinement by neighbors-of-neighbors. Starting from a random graph,
// each iteration compares every user u with its neighbors' neighbors
// and keeps the best k; unlike NNDescent it does not reverse the graph
// and only updates u's own list. Stops after max_iterations or when an
// iteration changes fewer than δ·k·n entries.
//
// The build is decomposed into HyrecInit + HyrecStep over an explicit
// HyrecState. HyrecKnn's one loop runs init-then-step with or without
// a checkpoint directory (knn/checkpoint.h); with one it also
// snapshots the state between iterations, so a resumed build replays
// exactly the remaining iterations.
//
// A step reads a snapshot of the lists and writes only u's own row, so
// any pool size, and any order of users, builds the sequential graph.
// Each pool thread claims blocks of kHyrecBlockUsers users from a
// shared counter until none are left. u's neighbors-of-neighbors are
// marked in a CandidateSet (knn/candidate_set.h), with the snapshot
// rows the next user marks from prefetched meanwhile; u and its own
// snapshot neighbors are erased, and the rest drain in ascending id
// order into OfferCandidates (knn/graph.h), which scores them in one
// batch and offers them to u's row in that order. The init draws the
// random graph in Rng order and scores it row by row on the pool
// (NeighborLists::InitRandom).

#ifndef GF_KNN_HYREC_H_
#define GF_KNN_HYREC_H_

#include <algorithm>
#include <atomic>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "knn/candidate_set.h"
#include "knn/checkpoint.h"
#include "knn/graph.h"
#include "knn/greedy_config.h"
#include "knn/stats.h"
#include "obs/pipeline_context.h"

namespace gf {

/// Complete mutable state of a Hyrec build between iterations. The
/// snap_* members are per-iteration scratch (rebuilt at the top of
/// every step; kept here only to reuse their allocations) — the
/// resumable state is lists + the counters.
struct HyrecState {
  NeighborLists lists;
  std::size_t iterations = 0;
  uint64_t computations = 0;
  std::vector<uint64_t> updates_per_iteration;
  // scratch
  std::vector<UserId> snap_ids;
  std::vector<uint32_t> snap_sizes;

  HyrecState(std::size_t num_users, std::size_t k)
      : lists(num_users, k),
        snap_ids(num_users * k),
        snap_sizes(num_users) {}
};

/// Users a HyrecStep task claims at a time: small enough that the
/// threads finish together, large enough that the claims cost nothing.
inline constexpr std::size_t kHyrecBlockUsers = 64;

/// Random-graph initialization (iteration 0), scored on `pool`.
template <typename Provider>
void HyrecInit(const Provider& provider, const GreedyConfig& config,
               HyrecState& state, ThreadPool* pool = nullptr) {
  Rng rng(config.seed);
  state.computations += state.lists.InitRandom(rng, provider, pool);
}

/// One Hyrec iteration: snapshot the lists, compare every user with its
/// snapshot's neighbors-of-neighbors, keep improvements. Returns true
/// when the iteration converged (updates below the δ·k·n threshold).
template <typename Provider>
bool HyrecStep(const Provider& provider, const GreedyConfig& config,
               HyrecState& state, ThreadPool* pool = nullptr,
               const obs::PipelineContext* obs = nullptr) {
  obs::ScopedSpan span(obs != nullptr ? obs->tracer : nullptr,
                       "hyrec.iteration");
  // Candidate-set size distribution: pointer fetched once per step so
  // the per-user Observe is a lone atomic add (nothing when no sink).
  obs::Histogram* candidate_sizes = obs::HistogramOrNull(
      obs, "hyrec.candidate_set_size", obs::kSizeBucketBoundaries);
  const std::size_t n = state.lists.num_users();
  const std::size_t k = state.lists.k();
  NeighborLists& lists = state.lists;
  std::vector<UserId>& snap_ids = state.snap_ids;
  std::vector<uint32_t>& snap_sizes = state.snap_sizes;

  ++state.iterations;
  // Snapshot of neighbor ids read during the iteration while live
  // lists are updated (each thread writes only its own rows).
  ParallelFor(pool, n, [&](std::size_t begin, std::size_t end) {
    for (std::size_t u = begin; u < end; ++u) {
      const auto row = lists.Of(static_cast<UserId>(u));
      snap_sizes[u] = static_cast<uint32_t>(row.size());
      for (std::size_t i = 0; i < row.size(); ++i) {
        snap_ids[u * k + i] = row[i].id;
      }
    }
  });

  // The snapshot rows user w marks from: random rows of k ids that no
  // hardware prefetcher predicts. Hinting them one user ahead hides
  // their misses behind the current user's work.
  const auto prefetch_marking = [&](std::size_t w) {
    constexpr std::size_t kLine = 64;
    const std::size_t row_bytes = k * sizeof(UserId);
    for (std::size_t i = 0; i < snap_sizes[w]; ++i) {
      const auto* row = reinterpret_cast<const char*>(
          snap_ids.data() + static_cast<std::size_t>(snap_ids[w * k + i]) * k);
      for (std::size_t offset = 0; offset < row_bytes; offset += kLine) {
        __builtin_prefetch(row + offset);
      }
      __builtin_prefetch(row + row_bytes - 1);
    }
  };

  std::atomic<std::size_t> next_block{0};
  std::atomic<uint64_t> updates{0};
  std::atomic<uint64_t> computations{0};
  // One task per pool thread, each claiming blocks of users until none
  // are left: a thread that drew cheap users takes more of them.
  const std::size_t tasks = pool != nullptr ? pool->num_threads() : 1;
  ParallelFor(pool, tasks, [&](std::size_t, std::size_t) {
    CandidateSet marked(n);
    std::vector<UserId> to_score;
    OfferScratch scratch;
    uint64_t local_updates = 0;
    uint64_t local_computations = 0;
    for (;;) {
      const std::size_t begin =
          next_block.fetch_add(kHyrecBlockUsers, std::memory_order_relaxed);
      if (begin >= n) break;
      const std::size_t end = std::min(n, begin + kHyrecBlockUsers);
      for (std::size_t uu = begin; uu < end; ++uu) {
        if (uu + 1 < end) prefetch_marking(uu + 1);
        const auto u = static_cast<UserId>(uu);
        const std::size_t base = uu * k;
        for (std::size_t i = 0; i < snap_sizes[uu]; ++i) {
          const UserId v = snap_ids[base + i];
          const std::size_t vbase = static_cast<std::size_t>(v) * k;
          for (std::size_t j = 0; j < snap_sizes[v]; ++j) {
            marked.Insert(snap_ids[vbase + j]);
          }
        }
        // u and its snapshot neighbors already have a stored similarity.
        marked.Erase(u);
        for (std::size_t i = 0; i < snap_sizes[uu]; ++i) {
          marked.Erase(snap_ids[base + i]);
        }
        to_score.clear();
        marked.Drain(to_score);

        if (candidate_sizes != nullptr) {
          candidate_sizes->Observe(static_cast<double>(to_score.size()));
        }
        local_updates +=
            OfferCandidates(provider, u, to_score, lists, scratch);
        local_computations += to_score.size();
      }
    }
    updates.fetch_add(local_updates, std::memory_order_relaxed);
    computations.fetch_add(local_computations, std::memory_order_relaxed);
  });

  state.computations += computations.load();
  state.updates_per_iteration.push_back(updates.load());

  const auto threshold = static_cast<uint64_t>(
      config.delta * static_cast<double>(k) * static_cast<double>(n));
  return updates.load() < std::max<uint64_t>(threshold, 1);
}

/// `checkpoint` as in BuildCheckpointer::Open, under GreedyTag(tag,
/// config); `tag` names the provider's configuration. An empty
/// checkpoint dir (the default) makes the build infallible.
template <typename Provider>
Result<KnnGraph> HyrecKnn(const Provider& provider,
                          const GreedyConfig& config,
                          ThreadPool* pool = nullptr,
                          KnnBuildStats* stats = nullptr,
                          const obs::PipelineContext* obs = nullptr,
                          const CheckpointConfig& checkpoint = {},
                          uint64_t tag = 0) {
  WallTimer timer;
  HyrecState state(provider.num_users(), config.k);
  BuildCheckpointer checkpoints;
  GF_ASSIGN_OR_RETURN(
      checkpoints,
      BuildCheckpointer::Open(checkpoint, CheckpointAlgorithm::kHyrec,
                              provider.num_users(), config.k,
                              GreedyTag(tag, config), obs));
  if (const BuildCheckpoint* resumed = checkpoints.resumed()) {
    GF_RETURN_IF_ERROR(RestoreProgress(*resumed, state));
  } else {
    obs::ScopedPhase init_span(obs, "hyrec.init");
    HyrecInit(provider, config, state, pool);
  }
  while (state.iterations < config.max_iterations &&
         !HyrecStep(provider, config, state, pool, obs)) {
    GF_RETURN_IF_ERROR(checkpoints.Advance(
        1, state.iterations < config.max_iterations,
        [&](BuildCheckpoint& snapshot) { CaptureProgress(state, &snapshot); }));
  }

  KnnGraph graph = state.lists.Finalize(pool);
  RecordBuildStats(stats, timer, state.computations, state.iterations,
                   std::move(state.updates_per_iteration));
  return graph;
}

}  // namespace gf

#endif  // GF_KNN_HYREC_H_
