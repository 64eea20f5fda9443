// Cluster-and-Conquer KNN construction (Giakkoupis, Kermarrec, Ruas —
// see PAPERS.md; the first ROADMAP "scenario diversity" extension): a
// cheap fingerprint pre-clustering shrinks the expensive join phase.
//
//   1. CLUSTER — every user's profile is hashed into a small clustering
//      SHF; the SHF's bit-chunks are hashed band-by-band with the
//      seeded-Murmur3 chunk scheme of knn/banded_lsh.h / knn/query.cc
//      into C buckets, and the user joins its t densest candidate
//      buckets (global bucket popularity, ties toward the smaller
//      bucket id) that still have capacity — a per-bucket cap spills
//      late arrivals to their next candidates so Zipf-popular chunks
//      cannot form quadratic mega-buckets. Two similar users share
//      sketch chunks, so they land in the same buckets with
//      probability rising in their Jaccard.
//   2. BUILD — each cluster runs the existing construction over a
//      ClusterProviderView (the cluster's members renumbered densely):
//      the cache-blocked tiled brute force or the batched Hyrec join,
//      one independent ThreadPool task per cluster — clusters build in
//      parallel with no global barrier between building and merging.
//   3. CONQUER — each finished cluster merges its rows into the global
//      lists through the total-order TopKSelector (similarity
//      descending, ties toward the smaller id) under per-user
//      spinlocks. Duplicate candidates across clusters carry identical
//      similarities (the provider is pure), so dedup-by-id plus
//      total-order top-k is associative and commutative: the merged
//      graph is bit-identical for ANY cluster completion order — and
//      therefore for any thread count. An optional short NNDescent
//      refinement pass then polishes the merged graph (the default is
//      off); it too builds the same graph on any pool.
//
// With balanced clusters the join work is ~t^2 n^2 / C similarity
// evaluations instead of Hyrec's O(n k^2 iters) candidate scoring —
// the first algorithm here that changes the *shape* of construction
// cost rather than the per-pair constant (bench_cluster_conquer holds
// the >= 2x-at-matched-quality gate on the 50k-user config).
//
// Checkpoint/resume (CheckpointAlgorithm::kClusterConquer): with a
// checkpoint directory the clusters run in waves of `every`, and a
// snapshot captures the cluster assignment plus the merged partial
// lists after every non-final wave, so an interrupted build resumes
// mid-way through the cluster sequence. Without one every cluster runs
// in a single wave. Because the conquer merge is order-independent,
// the resumed build converges to the exact same graph as an
// uninterrupted run (the contract of knn/checkpoint.h; refinement runs
// after the last wave and is replayed on resume).

#ifndef GF_KNN_CLUSTER_CONQUER_H_
#define GF_KNN_CLUSTER_CONQUER_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "dataset/dataset.h"
#include "hash/murmur3.h"
#include "knn/brute_force.h"
#include "knn/checkpoint.h"
#include "knn/graph.h"
#include "knn/greedy_config.h"
#include "knn/hyrec.h"
#include "knn/nndescent.h"
#include "knn/provider_concepts.h"
#include "knn/query.h"
#include "knn/stats.h"
#include "obs/pipeline_context.h"

namespace gf {

/// Which construction runs inside each cluster.
enum class ClusterConquerInner {
  kBruteForce,  // exact top-k within the cluster (tiled / batched)
  kHyrec,       // greedy refinement within the cluster
};

struct ClusterConquerConfig {
  /// C: number of hash buckets (clusters). More clusters mean smaller
  /// per-cluster joins (~t^2 n^2 / C total work) but fewer cross-user
  /// comparisons, trading speed against quality.
  std::size_t num_clusters = 128;
  /// t: clusters each user joins (its t densest candidate buckets).
  std::size_t assignments = 2;
  /// Bits of the clustering sketch SHF (positive multiple of 64; far
  /// smaller than the similarity fingerprints — it only routes users).
  std::size_t sketch_bits = 256;
  /// Bits per hashed chunk; must divide 64. Wider chunks are more
  /// selective (smaller buckets, lower recall).
  std::size_t band_bits = 16;
  /// Capacity guard against Zipf mega-buckets: a cluster stops
  /// accepting members at this size and later users spill to their
  /// next-densest candidate. 0 = automatic (2 t n / C, at least 64).
  std::size_t max_cluster_size = 0;
  ClusterConquerInner inner = ClusterConquerInner::kBruteForce;
  /// NNDescent iterations over the merged graph (0 disables).
  std::size_t refine_iterations = 0;
  /// Seed of the clustering sketch and the band hash functions.
  uint64_t seed = 0xC10C;
};

/// The cluster phase's output: per-cluster member lists, ascending
/// within each cluster, concatenated into one flat array.
struct ClusterAssignment {
  std::size_t num_clusters = 0;
  std::vector<uint32_t> sizes;    // per cluster
  std::vector<uint32_t> offsets;  // per cluster start; size num_clusters + 1
  std::vector<UserId> members;    // concatenated, ascending per cluster

  std::span<const UserId> MembersOf(std::size_t cluster) const {
    return {members.data() + offsets[cluster], sizes[cluster]};
  }
};

/// InvalidArgument unless C, t >= 1, sketch_bits is a positive multiple
/// of 64 and band_bits divides 64.
Status ValidateClusterConquerConfig(const ClusterConquerConfig& config);

/// Phase 1: hashes every user's clustering sketch into candidate
/// buckets (band chunks through seeded Murmur3, zero chunks skipped)
/// and assigns each user to its `assignments` densest candidates;
/// users with no non-zero chunk fall back to a seeded hash of their
/// id. Publishes `cc.clusters` (non-empty clusters) and the
/// `cc.cluster_size` histogram. Deterministic for a fixed config —
/// the pool only parallelizes the per-user sketch hashing.
Result<ClusterAssignment> ComputeClusterAssignment(
    const Dataset& dataset, const ClusterConquerConfig& config,
    ThreadPool* pool = nullptr, const obs::PipelineContext* obs = nullptr);

/// ClusterConquerKnn's checkpoint tag: `tag` with the greedy config
/// (GreedyTag) and every ClusterConquerConfig field mixed in.
inline uint64_t ClusterConquerTag(uint64_t tag,
                                  const ClusterConquerConfig& config,
                                  const GreedyConfig& greedy) {
  return MixTag(GreedyTag(tag, greedy),
                {config.num_clusters, config.assignments, config.sketch_bits,
                 config.band_bits, config.max_cluster_size,
                 static_cast<uint64_t>(config.inner),
                 config.refine_iterations, config.seed});
}

/// Checks a loaded kClusterConquer checkpoint against the assignment
/// this configuration computes (cluster count, fan-out, exact member
/// lists). FailedPrecondition on any mismatch.
Status ValidateClusterCheckpoint(const BuildCheckpoint& checkpoint,
                                 const ClusterAssignment& assignment,
                                 std::size_t assignments_per_user);

namespace internal {

/// Presents one cluster's members as a dense provider over local ids
/// [0, |cluster|): the inner algorithms run unchanged. Forwards the
/// outer provider's batched kernel and counts when it has them, over
/// the member ids of the local candidates, so a cluster's build takes
/// the path a global build would. Used by a single cluster task at a
/// time (the scratch buffer is not thread-safe).
template <typename Provider>
class ClusterProviderView {
 public:
  ClusterProviderView(const Provider& provider,
                      std::span<const UserId> members)
      : provider_(provider), members_(members) {}

  std::size_t num_users() const { return members_.size(); }

  double operator()(UserId a, UserId b) const {
    return provider_(members_[a], members_[b]);
  }

  void ScoreBatch(UserId u, std::span<const UserId> candidates,
                  std::span<double> out) const
    requires BatchSimilarityProvider<Provider>
  {
    provider_.ScoreBatch(members_[u], MapToMembers(candidates), out);
  }

  void CountBatch(UserId u, std::span<const UserId> candidates,
                  std::span<uint32_t> counts) const
    requires IntersectionCountProvider<Provider>
  {
    provider_.CountBatch(members_[u], MapToMembers(candidates), counts);
  }

  uint32_t Cardinality(UserId u) const
    requires IntersectionCountProvider<Provider>
  {
    return provider_.Cardinality(members_[u]);
  }

 private:
  // The global ids of local `candidates`, in the scratch buffer.
  std::span<const UserId> MapToMembers(
      std::span<const UserId> candidates) const {
    scratch_.resize(candidates.size());
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      scratch_[i] = members_[candidates[i]];
    }
    return scratch_;
  }

  const Provider& provider_;
  std::span<const UserId> members_;
  mutable std::vector<UserId> scratch_;
};

/// Per-cluster inner seed. Cluster 0 keeps the base seed so a C = 1
/// build degenerates bit-for-bit into the global inner build.
inline uint64_t ClusterSeed(uint64_t base, std::size_t cluster) {
  return cluster == 0 ? base : hash::Murmur3Hash64(cluster, base);
}

/// Builds cluster `c` with the configured inner algorithm and merges
/// its rows into `merged` under the per-user spinlocks: for each
/// touched user, gather current survivors + the cluster's candidates,
/// dedup by id (duplicates carry identical similarities) and keep the
/// total-order top k through TopKSelector. Order-independent, so any
/// completion schedule yields the same lists.
template <typename Provider>
void BuildAndMergeCluster(const Provider& provider,
                          const ClusterAssignment& assignment, std::size_t c,
                          const ClusterConquerConfig& config,
                          const GreedyConfig& greedy, NeighborLists& merged,
                          std::vector<std::atomic_flag>& row_locks,
                          std::atomic<uint64_t>& computations,
                          std::atomic<uint64_t>& build_micros,
                          std::atomic<uint64_t>& conquer_micros,
                          Clock* clock) {
  const auto members = assignment.MembersOf(c);
  if (members.size() < 2) return;  // no pairs, no edges
  const std::size_t k = merged.k();

  const uint64_t t0 = clock != nullptr ? clock->NowMicros() : 0;
  ClusterProviderView<Provider> view(provider, members);
  KnnBuildStats local_stats;
  KnnGraph local;
  if (config.inner == ClusterConquerInner::kHyrec) {
    GreedyConfig inner = greedy;
    inner.seed = ClusterSeed(greedy.seed, c);
    local = HyrecKnn(view, inner, /*pool=*/nullptr, &local_stats).value();
  } else {
    local = BruteForceKnn(view, k, /*pool=*/nullptr, &local_stats).value();
  }
  computations.fetch_add(local_stats.similarity_computations,
                         std::memory_order_relaxed);
  const uint64_t t1 = clock != nullptr ? clock->NowMicros() : 0;

  // A row offers its current survivors plus the cluster's: <= 2k.
  TopKSelector selector(k, 2 * k);
  std::vector<NeighborLists::Entry> gathered, row;
  for (std::size_t i = 0; i < members.size(); ++i) {
    const auto local_row = local.NeighborsOf(static_cast<UserId>(i));
    if (local_row.empty()) continue;
    const UserId u = members[i];
    while (row_locks[u].test_and_set(std::memory_order_acquire)) {
    }
    gathered.clear();
    for (const NeighborLists::Entry& e : merged.Of(u)) {
      gathered.push_back({e.id, e.similarity, true});
    }
    for (const Neighbor& nb : local_row) {
      gathered.push_back({members[nb.id], nb.similarity, true});
    }
    std::sort(gathered.begin(), gathered.end(),
              [](const NeighborLists::Entry& a, const NeighborLists::Entry& b) {
                return a.id < b.id;
              });
    gathered.erase(std::unique(gathered.begin(), gathered.end(),
                               [](const NeighborLists::Entry& a,
                                  const NeighborLists::Entry& b) {
                                 return a.id == b.id;
                               }),
                   gathered.end());
    for (const NeighborLists::Entry& e : gathered) {
      selector.Offer(e.id, static_cast<double>(e.similarity));
    }
    row.clear();
    for (const Neighbor& nb : selector.Take()) {
      row.push_back({nb.id, nb.similarity, true});
    }
    merged.RestoreRow(u, row);
    row_locks[u].clear(std::memory_order_release);
  }
  if (clock != nullptr) {
    const uint64_t t2 = clock->NowMicros();
    build_micros.fetch_add(t1 - t0, std::memory_order_relaxed);
    conquer_micros.fetch_add(t2 - t1, std::memory_order_relaxed);
  }
}

}  // namespace internal

/// Cluster-and-Conquer construction (see the file comment). The graph
/// is bit-deterministic for a fixed configuration regardless of the
/// pool's thread count. `checkpoint` as
/// in BuildCheckpointer::Open, under ClusterConquerTag(tag, config,
/// greedy); `tag` names the provider's configuration.
template <typename Provider>
Result<KnnGraph> ClusterConquerKnn(const Dataset& dataset,
                                   const Provider& provider,
                                   const ClusterConquerConfig& config,
                                   const GreedyConfig& greedy,
                                   ThreadPool* pool = nullptr,
                                   KnnBuildStats* stats = nullptr,
                                   const obs::PipelineContext* obs = nullptr,
                                   const CheckpointConfig& checkpoint = {},
                                   uint64_t tag = 0) {
  WallTimer timer;
  const std::size_t n = provider.num_users();
  const bool timed = obs != nullptr && obs->HasMetrics();
  Clock* clock = timed ? obs->EffectiveClock() : nullptr;

  const uint64_t c0 = timed ? clock->NowMicros() : 0;
  ClusterAssignment assignment;
  {
    obs::ScopedPhase phase(obs, "cc.cluster");
    GF_ASSIGN_OR_RETURN(assignment,
                        ComputeClusterAssignment(dataset, config, pool, obs));
  }
  if (timed) {
    obs->SetGauge("cc.phase_micros.cluster",
                  static_cast<double>(clock->NowMicros() - c0));
  }

  NeighborLists merged(n, greedy.k);
  BuildCheckpointer checkpoints;
  GF_ASSIGN_OR_RETURN(
      checkpoints,
      BuildCheckpointer::Open(checkpoint, CheckpointAlgorithm::kClusterConquer,
                              n, greedy.k,
                              ClusterConquerTag(tag, config, greedy), obs));
  std::size_t next_cluster = 0;
  uint64_t resumed_computations = 0;
  if (const BuildCheckpoint* resumed = checkpoints.resumed()) {
    GF_RETURN_IF_ERROR(
        ValidateClusterCheckpoint(*resumed, assignment, config.assignments));
    GF_RETURN_IF_ERROR(RestoreLists(*resumed, &merged));
    next_cluster = static_cast<std::size_t>(resumed->next_user);
    resumed_computations = resumed->computations;
  }

  std::vector<std::atomic_flag> row_locks(n);
  std::atomic<uint64_t> computations{resumed_computations};
  std::atomic<uint64_t> build_micros{0};
  std::atomic<uint64_t> conquer_micros{0};
  {
    obs::ScopedPhase phase(obs, "cc.build");
    auto run_cluster = [&](std::size_t c) {
      internal::BuildAndMergeCluster(provider, assignment, c, config, greedy,
                                     merged, row_locks, computations,
                                     build_micros, conquer_micros, clock);
    };
    // All clusters in one wave, or `every` per wave with a snapshot
    // between waves when checkpointing.
    const std::size_t num_clusters = assignment.num_clusters;
    const std::size_t wave =
        checkpoints.active() ? checkpoints.every() : num_clusters;
    while (next_cluster < num_clusters) {
      const std::size_t wave_end = std::min(next_cluster + wave, num_clusters);
      if (pool != nullptr) {
        for (std::size_t c = next_cluster; c < wave_end; ++c) {
          pool->Submit([&run_cluster, c] { run_cluster(c); });
        }
        pool->Wait();
      } else {
        for (std::size_t c = next_cluster; c < wave_end; ++c) run_cluster(c);
      }
      const std::size_t built = wave_end - next_cluster;
      next_cluster = wave_end;
      GF_RETURN_IF_ERROR(checkpoints.Advance(
          built, next_cluster < num_clusters, [&](BuildCheckpoint& snapshot) {
            snapshot.next_user = next_cluster;
            snapshot.computations = computations.load();
            snapshot.num_clusters = num_clusters;
            snapshot.assignments_per_user = config.assignments;
            snapshot.cluster_sizes = assignment.sizes;
            snapshot.cluster_members = assignment.members;
            CaptureLists(merged, &snapshot);
          }));
    }
  }
  if (timed) {
    obs->SetGauge("cc.phase_micros.build",
                  static_cast<double>(build_micros.load()));
    obs->SetGauge("cc.phase_micros.conquer",
                  static_cast<double>(conquer_micros.load()));
  }

  // Optional NNDescent refinement over the merged lists: every merged
  // entry is flagged new, so the first refinement iteration joins the
  // full graph. It runs after the last wave, so a resume replays it.
  std::size_t refine_iterations = 0;
  std::vector<uint64_t> refine_updates;
  uint64_t total_computations = computations.load();
  std::optional<NNDescentState> refine;
  if (config.refine_iterations > 0 && n > 1) {
    obs::ScopedPhase phase(obs, "cc.refine");
    const uint64_t r0 = timed ? clock->NowMicros() : 0;
    refine.emplace(n, merged.k(), greedy.seed);
    for (UserId u = 0; u < n; ++u) refine->lists.RestoreRow(u, merged.Of(u));
    GreedyConfig rconf = greedy;
    rconf.max_iterations = config.refine_iterations;
    while (refine->iterations < rconf.max_iterations &&
           !NNDescentStep(provider, rconf, *refine, pool, obs)) {
    }
    refine_iterations = refine->iterations;
    refine_updates = std::move(refine->updates_per_iteration);
    total_computations += refine->computations;
    if (timed) {
      obs->SetGauge("cc.phase_micros.refine",
                    static_cast<double>(clock->NowMicros() - r0));
    }
  }

  KnnGraph graph = refine.has_value() ? refine->lists.Finalize(pool)
                                      : merged.Finalize(pool);
  RecordBuildStats(stats, timer, total_computations, 1 + refine_iterations,
                   std::move(refine_updates));
  return graph;
}

}  // namespace gf

#endif  // GF_KNN_CLUSTER_CONQUER_H_
