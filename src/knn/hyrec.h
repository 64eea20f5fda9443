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
//
// Incremental steps. The paper's Hyrec rescans every neighbor-of-
// neighbor on every iteration; a step here marks w for u only when
// some snapshot path u→v→w has a new edge: v entered u's row, or w
// entered v's row, since the previous step's snapshot (the new/old
// split of NNDescent's incremental search). Every Insert sets
// NeighborLists::Entry::is_new; the snapshot copy clears the flags in
// the live rows and writes each snapshot row new entries first, with
// a per-row count of them. Marking walks all of v's snapshot row when
// v is new in u's row, and only v's new prefix when v is old. The
// skip is exact: rows, updates per step and iteration counts equal
// the full rescan's, and only the similarity count falls.
//  - At step t's snapshot an entry is old iff it was in the row at
//    step t-1's snapshot and no Insert has placed it since. Step 1
//    after the init sees only new entries, so it scores everything.
//  - Suppose only old-old paths reach w. The same path existed at step
//    t-1, so at that step w was u itself, one of u's snapshot
//    neighbors, a pair scored and offered to u's row, or a pair
//    skipped. By induction on t, at some earlier point (u, w) was
//    offered to u's row or was held by it.
//  - From then on, offering (u, w) again with the same score changes
//    nothing. While w is in u's row, it is a snapshot neighbor and is
//    erased. Once w left or was refused, u's row is full with a floor
//    >= its score: Hyrec rows never shrink, a full row's floor never
//    falls, and Insert rejects float(sim) <= floor.
//  - So every skipped pair is one Insert would have rejected with no
//    side effect, on any pool, since a step reads only the snapshot.
//  - A checkpoint with every flag set (one written before steps read
//    the flags) only makes the next step score everything.

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
/// resumable state is lists, with their is_new flags (the entries
/// inserted since the last step's snapshot), + the counters.
struct HyrecState {
  NeighborLists lists;
  std::size_t iterations = 0;
  uint64_t computations = 0;
  std::vector<uint64_t> updates_per_iteration;
  // scratch: snapshot rows, new entries first
  std::vector<UserId> snap_ids;
  std::vector<uint32_t> snap_sizes;
  std::vector<uint32_t> snap_new;  // new entries at the front of each row

  HyrecState(std::size_t num_users, std::size_t k)
      : lists(num_users, k),
        snap_ids(num_users * k),
        snap_sizes(num_users),
        snap_new(num_users) {}
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

/// One Hyrec iteration: snapshot the lists, compare every user with the
/// snapshot's neighbors-of-neighbors that a new edge reaches, keep
/// improvements. Returns true when the iteration converged (updates
/// below the δ·k·n threshold).
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
  std::vector<uint32_t>& snap_new = state.snap_new;

  ++state.iterations;
  // Snapshot of neighbor ids read during the iteration while live
  // lists are updated (each thread writes only its own rows). New
  // entries go to the front of the snapshot row, old ones to the back;
  // the live flags are cleared, so the next step's new entries are the
  // ones this step inserts.
  ParallelFor(pool, n, [&](std::size_t begin, std::size_t end) {
    for (std::size_t u = begin; u < end; ++u) {
      const auto row = lists.MutableOf(static_cast<UserId>(u));
      UserId* snap = snap_ids.data() + u * k;
      uint32_t fresh = 0;
      std::size_t old_at = row.size();
      for (NeighborLists::Entry& entry : row) {
        snap[entry.is_new ? fresh++ : --old_at] = entry.id;
        entry.is_new = false;
      }
      snap_sizes[u] = static_cast<uint32_t>(row.size());
      snap_new[u] = fresh;
    }
  });

  // How much of v's snapshot row u marks from: all of it when v is new
  // in u's row (the i-th entry of u's snapshot row), else v's new
  // prefix.
  const auto reach = [&](std::size_t u, std::size_t i, UserId v) {
    return i < snap_new[u] ? snap_sizes[v] : snap_new[v];
  };

  // The snapshot rows user w marks from: random rows of k ids that no
  // hardware prefetcher predicts. Hinting them one user ahead hides
  // their misses behind the current user's work.
  const auto prefetch_marking = [&](std::size_t w) {
    constexpr std::size_t kLine = 64;
    for (std::size_t i = 0; i < snap_sizes[w]; ++i) {
      const UserId v = snap_ids[w * k + i];
      const std::size_t bytes = reach(w, i, v) * sizeof(UserId);
      if (bytes == 0) continue;
      const auto* row = reinterpret_cast<const char*>(
          snap_ids.data() + static_cast<std::size_t>(v) * k);
      for (std::size_t offset = 0; offset < bytes; offset += kLine) {
        __builtin_prefetch(row + offset);
      }
      __builtin_prefetch(row + bytes - 1);
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
          const std::size_t marks = reach(uu, i, v);
          for (std::size_t j = 0; j < marks; ++j) {
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
