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
// When the provider exposes ScoreTile (knn/provider_concepts.h) the
// scan is cache-blocked: each row is scored one contiguous candidate
// tile at a time through the batched SIMD kernels, instead of one
// provider call per pair. Candidates are still visited in the same
// ascending order and the scores are bit-exact with the per-pair path,
// so both paths produce the identical graph (same edges, same
// tie-breaks) — only the throughput differs. The tile also scores the
// (u, u) self pair (discarded below) since skipping it would split the
// tile; reported similarity_computations keeps the n(n-1) ordered-pair
// convention either way.
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
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "knn/checkpoint.h"
#include "knn/graph.h"
#include "knn/provider_concepts.h"
#include "knn/stats.h"
#include "obs/pipeline_context.h"

namespace gf {

/// Users scored per ScoreTile call. At b = 1024 a tile of fingerprints
/// is 32 KiB — sized so the tile streams through L1/L2 while the query
/// row stays resident.
inline constexpr std::size_t kBruteForceTileUsers = 256;

/// Fills rows [begin_user, end_user) of `lists` with the exact top-k
/// over all n candidates. Rows are independent: each is written by one
/// thread, in ascending candidate order, so the result is identical for
/// any partition of the row range.
template <typename Provider>
void BruteForceScoreRows(const Provider& provider, NeighborLists& lists,
                         std::size_t begin_user, std::size_t end_user,
                         ThreadPool* pool = nullptr) {
  const std::size_t n = provider.num_users();
  ParallelFor(pool, end_user - begin_user, [&](std::size_t begin,
                                               std::size_t end) {
    if constexpr (TiledSimilarityProvider<Provider>) {
      std::vector<double> sims(kBruteForceTileUsers);
      for (std::size_t i = begin; i < end; ++i) {
        const std::size_t u = begin_user + i;
        for (std::size_t v0 = 0; v0 < n; v0 += kBruteForceTileUsers) {
          const std::size_t count = std::min(kBruteForceTileUsers, n - v0);
          provider.ScoreTile(static_cast<UserId>(u),
                             static_cast<UserId>(v0), count,
                             {sims.data(), count});
          for (std::size_t j = 0; j < count; ++j) {
            const std::size_t v = v0 + j;
            if (v == u) continue;
            lists.Insert(static_cast<UserId>(u), static_cast<UserId>(v),
                         sims[j]);
          }
        }
      }
    } else {
      for (std::size_t i = begin; i < end; ++i) {
        const std::size_t u = begin_user + i;
        for (std::size_t v = 0; v < n; ++v) {
          if (v == u) continue;
          lists.Insert(static_cast<UserId>(u), static_cast<UserId>(v),
                       provider(static_cast<UserId>(u),
                                static_cast<UserId>(v)));
        }
      }
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
