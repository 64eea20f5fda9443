// NNDescent (Dong, Moses, Li — WWW 2011; paper §3.2.3): greedy KNN
// refinement by local joins. Each iteration samples the "new" entries
// of every list, reverses the current graph, and compares neighbor
// pairs (new x new, new x old) — updating both endpoints' lists.
// Terminates when an iteration performs fewer than δ·k·n updates or
// after max_iterations.
//
// The build is decomposed into NNDescentInit + NNDescentStep over an
// explicit NNDescentState. NNDescentKnn's one loop runs
// init-then-step with or without a checkpoint directory
// (knn/checkpoint.h); with one it also snapshots the state between
// iterations. The state captures everything the next iteration depends
// on: the lists (including the is_new flags) and the sampling RNG, so
// restoring it replays the exact remaining iterations.
//
// A join offers a pair to both of its users' rows, which other joins
// offer to as well. So a step's local joins (phase 3) run one block of
// kNNDescentBlockUsers users at a time, in two passes on the pool:
//  1. Score: each join offers its pairs through OfferCandidates
//     (OfferRows::kBoth) against the rows as they stand at the block's
//     start, and keeps an offer only if the sequential step could
//     accept it. No row is written. Within a step a row never shrinks
//     and a full row's floor never falls, so two kinds of offer are
//     refused later too, and are dropped:
//     - one at or below its row's floor (OfferCandidates' own test);
//     - one whose row holds its id with the same float score. Either
//       the id is still there (a duplicate), or it left as the row's
//       worst entry and the floor has been at or above that score
//       since. Comparing the score keeps this exact for any provider.
//  2. Apply: each task owns a range of rows and inserts the kept
//     offers into them in the order the sequential step makes them
//     (u, then p, then partner, then p's row before the partner's).
// Phases 1-2 draw from one Rng in user order. So any pool builds the
// sequential graph, with the same updates per iteration and similarity
// count, and a resumed build the uninterrupted one.

#ifndef GF_KNN_NNDESCENT_H_
#define GF_KNN_NNDESCENT_H_

#include <algorithm>
#include <atomic>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "knn/checkpoint.h"
#include "knn/graph.h"
#include "knn/greedy_config.h"
#include "knn/stats.h"
#include "obs/pipeline_context.h"

namespace gf {

/// Complete mutable state of an NNDescent build between iterations.
/// The *_fwd / *_rev members are per-iteration scratch (cleared at the
/// top of every step; kept here only to reuse their allocations) — the
/// resumable state is lists + sample_rng + the counters.
struct NNDescentState {
  NeighborLists lists;
  Rng sample_rng;
  std::size_t iterations = 0;
  uint64_t computations = 0;
  std::vector<uint64_t> updates_per_iteration;
  // scratch
  std::vector<std::vector<UserId>> old_fwd, new_fwd, old_rev, new_rev;

  NNDescentState(std::size_t num_users, std::size_t k, uint64_t seed)
      : lists(num_users, k),
        sample_rng(SplitMix64(seed ^ 0xDE5CE27ULL)),
        old_fwd(num_users),
        new_fwd(num_users),
        old_rev(num_users),
        new_rev(num_users) {}
};

/// Users whose local joins an NNDescentStep scores between two applies.
/// The floors its filter reads are at most one block stale, and the
/// kept offers are one block's.
inline constexpr std::size_t kNNDescentBlockUsers = 1024;

/// An offer a local join keeps for NeighborLists::Insert(row, id, sim).
struct JoinOffer {
  UserId row;
  UserId id;
  float sim;
};

/// Random-graph initialization (iteration 0), scored on `pool`.
template <typename Provider>
void NNDescentInit(const Provider& provider, const GreedyConfig& config,
                   NNDescentState& state, ThreadPool* pool = nullptr) {
  Rng rng(config.seed);
  state.computations += state.lists.InitRandom(rng, provider, pool);
}

/// One NNDescent iteration (sample / reverse / local joins). Returns
/// true when the iteration converged (updates below δ·k·n).
template <typename Provider>
bool NNDescentStep(const Provider& provider, const GreedyConfig& config,
                   NNDescentState& state, ThreadPool* pool = nullptr,
                   const obs::PipelineContext* obs = nullptr) {
  obs::ScopedSpan span(obs != nullptr ? obs->tracer : nullptr,
                       "nndescent.iteration");
  obs::Histogram* join_sizes = obs::HistogramOrNull(
      obs, "nndescent.join_partners", obs::kSizeBucketBoundaries);
  const std::size_t n = state.lists.num_users();
  const std::size_t k = state.lists.k();
  NeighborLists& lists = state.lists;
  Rng& sample_rng = state.sample_rng;
  auto& old_fwd = state.old_fwd;
  auto& new_fwd = state.new_fwd;
  auto& old_rev = state.old_rev;
  auto& new_rev = state.new_rev;

  const auto sample_limit = static_cast<std::size_t>(
      std::max(1.0, config.sample_rate * static_cast<double>(k)));

  ++state.iterations;

  // Phase 1 (sequential, O(nk)): split every list into old entries
  // and a ρk-sample of new entries; sampled entries lose their flag.
  for (UserId u = 0; u < n; ++u) {
    old_fwd[u].clear();
    new_fwd[u].clear();
    old_rev[u].clear();
    new_rev[u].clear();
  }
  for (UserId u = 0; u < n; ++u) {
    auto row = lists.MutableOf(u);
    // Reservoir-sample indices of new entries up to sample_limit.
    std::vector<std::size_t> new_idx;
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (row[i].is_new) {
        new_idx.push_back(i);
      } else {
        old_fwd[u].push_back(row[i].id);
      }
    }
    if (new_idx.size() > sample_limit) {
      sample_rng.Shuffle(new_idx);
      new_idx.resize(sample_limit);
    }
    for (std::size_t i : new_idx) {
      new_fwd[u].push_back(row[i].id);
      row[i].is_new = false;
    }
  }

  // Phase 2: reverse lists, then cap them at the sample limit.
  for (UserId u = 0; u < n; ++u) {
    for (UserId v : old_fwd[u]) old_rev[v].push_back(u);
    for (UserId v : new_fwd[u]) new_rev[v].push_back(u);
  }
  for (UserId u = 0; u < n; ++u) {
    if (old_rev[u].size() > sample_limit) {
      sample_rng.Shuffle(old_rev[u]);
      old_rev[u].resize(sample_limit);
    }
    if (new_rev[u].size() > sample_limit) {
      sample_rng.Shuffle(new_rev[u]);
      new_rev[u].resize(sample_limit);
    }
  }

  // Phase 3: local joins, block by block (see the file comment).
  const std::size_t block_users = std::min(n, kNNDescentBlockUsers);
  std::vector<std::vector<JoinOffer>> kept(block_users);
  const std::size_t tasks = pool != nullptr ? pool->num_threads() : 1;
  std::atomic<uint64_t> updates{0};
  std::atomic<uint64_t> computations{0};
  for (std::size_t block = 0; block < n; block += block_users) {
    const std::size_t block_end = std::min(n, block + block_users);
    // One task per pool thread, each claiming the block's users one at
    // a time: join sizes vary from user to user, and fixed chunks of a
    // block left threads idle at its end.
    std::atomic<std::size_t> next_user{block};
    ParallelFor(pool, tasks, [&](std::size_t, std::size_t) {
      std::vector<UserId> join_new, join_old, partners;
      OfferScratch scratch;
      uint64_t local_computations = 0;
      for (std::size_t u;
           (u = next_user.fetch_add(1, std::memory_order_relaxed)) <
           block_end;) {
        const std::size_t i = u - block;
        join_new = new_fwd[u];
        join_new.insert(join_new.end(), new_rev[u].begin(),
                        new_rev[u].end());
        std::sort(join_new.begin(), join_new.end());
        join_new.erase(std::unique(join_new.begin(), join_new.end()),
                       join_new.end());
        join_old = old_fwd[u];
        join_old.insert(join_old.end(), old_rev[u].begin(),
                        old_rev[u].end());
        std::sort(join_old.begin(), join_old.end());
        join_old.erase(std::unique(join_old.begin(), join_old.end()),
                       join_old.end());

        std::vector<JoinOffer>& offers = kept[i];
        offers.clear();
        const auto keep = [&](UserId row, UserId id, double sim) {
          const auto fsim = static_cast<float>(sim);
          for (const NeighborLists::Entry& held : lists.Of(row)) {
            if (held.id == id && held.similarity == fsim) return false;
          }
          offers.push_back({row, id, fsim});
          return false;
        };
        for (std::size_t j = 0; j < join_new.size(); ++j) {
          const UserId p = join_new[j];
          // p's join partners: new x new as each unordered pair once
          // (ordering on ids), plus new x old.
          partners.assign(join_new.begin() + static_cast<long>(j) + 1,
                          join_new.end());
          for (UserId q : join_old) {
            if (q != p) partners.push_back(q);
          }
          local_computations += partners.size();
          if (join_sizes != nullptr) {
            join_sizes->Observe(static_cast<double>(partners.size()));
          }
          OfferCandidates(provider, p, partners, lists, scratch,
                          OfferRows::kBoth, keep);
        }
      }
      computations.fetch_add(local_computations, std::memory_order_relaxed);
    });
    ParallelFor(pool, tasks, [&](std::size_t first, std::size_t last) {
      const std::size_t rows_begin = first * n / tasks;
      const std::size_t rows_end = last * n / tasks;
      uint64_t local_updates = 0;
      for (std::size_t i = 0; i < block_end - block; ++i) {
        for (const JoinOffer& offer : kept[i]) {
          if (offer.row >= rows_begin && offer.row < rows_end) {
            local_updates += lists.Insert(offer.row, offer.id, offer.sim);
          }
        }
      }
      updates.fetch_add(local_updates, std::memory_order_relaxed);
    });
  }

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
Result<KnnGraph> NNDescentKnn(const Provider& provider,
                              const GreedyConfig& config,
                              ThreadPool* pool = nullptr,
                              KnnBuildStats* stats = nullptr,
                              const obs::PipelineContext* obs = nullptr,
                              const CheckpointConfig& checkpoint = {},
                              uint64_t tag = 0) {
  WallTimer timer;
  NNDescentState state(provider.num_users(), config.k, config.seed);
  BuildCheckpointer checkpoints;
  GF_ASSIGN_OR_RETURN(
      checkpoints,
      BuildCheckpointer::Open(checkpoint, CheckpointAlgorithm::kNNDescent,
                              provider.num_users(), config.k,
                              GreedyTag(tag, config), obs));
  if (const BuildCheckpoint* resumed = checkpoints.resumed()) {
    GF_RETURN_IF_ERROR(RestoreProgress(*resumed, state));
    state.sample_rng.LoadState(resumed->rng);
  } else {
    obs::ScopedPhase init_span(obs, "nndescent.init");
    NNDescentInit(provider, config, state, pool);
  }
  while (state.iterations < config.max_iterations &&
         !NNDescentStep(provider, config, state, pool, obs)) {
    GF_RETURN_IF_ERROR(checkpoints.Advance(
        1, state.iterations < config.max_iterations,
        [&](BuildCheckpoint& snapshot) {
          CaptureProgress(state, &snapshot);
          snapshot.rng = state.sample_rng.SaveState();
        }));
  }

  KnnGraph graph = state.lists.Finalize(pool);
  RecordBuildStats(stats, timer, state.computations, state.iterations,
                   std::move(state.updates_per_iteration));
  return graph;
}

}  // namespace gf

#endif  // GF_KNN_NNDESCENT_H_
