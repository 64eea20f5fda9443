// Brute-force KNN graph construction (paper §3.2.2): scores every pair
// and keeps the exact top-k per user under the provider's similarity.
// With an exact provider this yields the exact KNN graph G_KNN used as
// the quality reference (Eq. 3).
//
// Parallel layout: users are partitioned across threads and each row
// scans all other users, so rows are written lock-free. This evaluates
// ordered pairs (n(n-1) provider calls, 2x the abstract minimum); the
// reported similarity_computations reflect it, and native/GoldFinger
// comparisons are unaffected since both pay the same factor.
//
// Each row offers the other users to OfferCandidates (knn/graph.h) in
// ascending id order, a chunk of ids at a time: a provider with counts
// (GoldFinger) skips the division and the insert of every pair that
// cannot beat the row's floor, and any other provider scores the chunk
// then inserts it. Both yield the graph of one score-then-insert loop
// over the candidates (same edges, same tie-breaks).
//
// The scan is exposed as BruteForceScoreRows over a row range. With a
// checkpoint directory (knn/checkpoint.h) BruteForceKnn runs it one
// `chunk_users`-row unit at a time and snapshots between units;
// without one it scans every row in one pass. Every row's result
// depends only on the provider, so any chunking yields the identical
// graph.

#ifndef GF_KNN_BRUTE_FORCE_H_
#define GF_KNN_BRUTE_FORCE_H_

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "knn/checkpoint.h"
#include "knn/graph.h"
#include "knn/stats.h"
#include "obs/pipeline_context.h"

namespace gf {

/// Candidates per OfferCandidates call. At b = 1024 a chunk of
/// fingerprints is 32 KiB — sized so the chunk streams through L1/L2
/// while the query row stays resident.
inline constexpr std::size_t kBruteForceTileUsers = 256;

/// Fills rows [begin_user, end_user) of `lists` with the exact top-k
/// over all n candidates. Rows are independent: each is written by one
/// thread, in ascending candidate order, so the result is identical for
/// any partition of the row range.
template <typename Provider>
void BruteForceScoreRows(const Provider& provider, NeighborLists& lists,
                         std::size_t begin_user, std::size_t end_user,
                         ThreadPool* pool = nullptr) {
  std::vector<UserId> ids(provider.num_users());
  std::iota(ids.begin(), ids.end(), UserId{0});
  const std::span<const UserId> all(ids);
  ParallelFor(pool, end_user - begin_user, [&](std::size_t begin,
                                               std::size_t end) {
    OfferScratch scratch;
    for (std::size_t i = begin; i < end; ++i) {
      const auto u = static_cast<UserId>(begin_user + i);
      const auto offer = [&](std::span<const UserId> others) {
        for (std::size_t v0 = 0; v0 < others.size();
             v0 += kBruteForceTileUsers) {
          OfferCandidates(provider, u,
                          others.subspan(v0, std::min(kBruteForceTileUsers,
                                                      others.size() - v0)),
                          lists, scratch);
        }
      };
      offer(all.first(u));
      offer(all.subspan(u + 1));
    }
  });
}

/// Exact top-k of every user. `checkpoint` and `tag` as in
/// BuildCheckpointer::Open; `tag` names the provider's configuration
/// (k is checked on its own). An empty checkpoint dir (the default)
/// makes the build infallible.
template <typename Provider>
Result<KnnGraph> BruteForceKnn(const Provider& provider, std::size_t k,
                               ThreadPool* pool = nullptr,
                               KnnBuildStats* stats = nullptr,
                               const obs::PipelineContext* obs = nullptr,
                               const CheckpointConfig& checkpoint = {},
                               uint64_t tag = 0) {
  WallTimer timer;
  const std::size_t n = provider.num_users();
  NeighborLists lists(n, k);
  BuildCheckpointer checkpoints;
  GF_ASSIGN_OR_RETURN(
      checkpoints,
      BuildCheckpointer::Open(checkpoint, CheckpointAlgorithm::kBruteForce, n,
                              k, tag, obs));
  std::size_t next_user = 0;
  if (const BuildCheckpoint* resumed = checkpoints.resumed()) {
    GF_RETURN_IF_ERROR(RestoreLists(*resumed, &lists));
    next_user = static_cast<std::size_t>(resumed->next_user);
  }

  const std::size_t chunk =
      checkpoints.active() ? std::max<std::size_t>(checkpoint.chunk_users, 1)
                           : n;
  while (next_user < n) {
    const std::size_t end = std::min(next_user + chunk, n);
    {
      obs::ScopedPhase phase(obs, "bruteforce.scan");
      BruteForceScoreRows(provider, lists, next_user, end, pool);
    }
    next_user = end;
    GF_RETURN_IF_ERROR(checkpoints.Advance(
        1, next_user < n, [&](BuildCheckpoint& snapshot) {
          snapshot.next_user = next_user;
          snapshot.computations =
              static_cast<uint64_t>(next_user) * (n - 1);
          CaptureLists(lists, &snapshot);
        }));
  }

  KnnGraph graph = lists.Finalize(pool);
  RecordBuildStats(stats, timer,
                   n < 2 ? 0 : static_cast<uint64_t>(n) * (n - 1), 1);
  return graph;
}

}  // namespace gf

#endif  // GF_KNN_BRUTE_FORCE_H_
