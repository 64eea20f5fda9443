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
// The local joins update arbitrary rows through InsertLocked, so the
// result is only deterministic single-threaded: pass a nullptr pool
// when bitwise reproducibility (or resume identity) matters.

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
#include "knn/provider_concepts.h"
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

  // Phase 3: local joins (parallel; lists updated under per-user
  // spinlocks since a join touches arbitrary rows).
  std::atomic<uint64_t> updates{0};
  std::atomic<uint64_t> computations{0};
  ParallelFor(pool, n, [&](std::size_t begin, std::size_t end) {
    std::vector<UserId> join_new, join_old;
    std::vector<UserId> partners;
    std::vector<double> sims;
    for (std::size_t uu = begin; uu < end; ++uu) {
      const auto u = static_cast<UserId>(uu);
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

      uint64_t local_updates = 0;
      uint64_t local_computations = 0;
      auto commit = [&](UserId p, UserId q, double sim) {
        if (lists.InsertLocked(p, q, sim)) ++local_updates;
        if (lists.InsertLocked(q, p, sim)) ++local_updates;
      };
      for (std::size_t i = 0; i < join_new.size(); ++i) {
        const UserId p = join_new[i];
        // p's join partners: new x new as each unordered pair once
        // (ordering on ids), plus new x old.
        partners.clear();
        for (std::size_t j = i + 1; j < join_new.size(); ++j) {
          partners.push_back(join_new[j]);
        }
        for (UserId q : join_old) {
          if (q != p) partners.push_back(q);
        }
        local_computations += partners.size();
        if (join_sizes != nullptr) {
          join_sizes->Observe(static_cast<double>(partners.size()));
        }
        // Score every partner (one ScoreBatch call when the provider
        // has one), then commit the two-sided inserts in partner order.
        sims.resize(partners.size());
        ScoreCandidates(provider, p, partners, sims);
        for (std::size_t j = 0; j < partners.size(); ++j) {
          commit(p, partners[j], sims[j]);
        }
      }
      updates.fetch_add(local_updates, std::memory_order_relaxed);
      computations.fetch_add(local_computations,
                             std::memory_order_relaxed);
    }
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
