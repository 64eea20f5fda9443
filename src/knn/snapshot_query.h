// SnapshotQueryEngine: the serving-side consumer of the epoch seam
// (DESIGN.md §15). It bridges a SnapshotSource (a VersionedStore under
// live ingestion, or a FixedSnapshotSource over a batch/mmap store) to
// the exhaustive scan over a zero-copy sharded view of each epoch:
//
//   * Per batch it acquires the source's current snapshot ONCE and runs
//     the whole batch against that epoch — one Acquire per batch,
//     never per candidate, and no torn reads across an epoch swap.
//   * The sharded view + engine for an epoch are built lazily and
//     cached; as long as the publisher hasn't moved, every batch reuses
//     the cached engine (the common case — epochs change thousands of
//     times less often than batches arrive). When a new epoch is
//     observed the cache is rebuilt under a small mutex; in-flight
//     batches keep serving from the old cache entry, which they co-own,
//     so a rebuild never blocks or invalidates a running scan.
//   * QueryBatchPinned returns the results together with the snapshot
//     they were computed against, which is what makes the bit-exactness
//     gate checkable: rebuild a store from that epoch's ratings, scan
//     it, compare bit for bit.
//
// The rebuild cost is one ViewOf (zero-copy, O(num_shards)) plus
// engine construction — no fingerprint bytes are copied, so epoch
// churn at ingest rates leaves the read path allocation-light.
//
// Serving cache (DESIGN.md §17). With Options::cache_capacity set, an
// L1 ServingCache fronts the engine: each batch probes the cache at the
// pinned epoch, scans only the misses, and fills the cache from the
// batch's own answers — so a hit replays exactly what the scan answered
// for that (query, k, epoch) and stays bit-identical to it. Publication
// invalidates everything at once (the epoch is part of the key).

#ifndef GF_KNN_SNAPSHOT_QUERY_H_
#define GF_KNN_SNAPSHOT_QUERY_H_

#include <cstddef>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/thread_pool.h"
#include "core/sharded_store.h"
#include "core/store_snapshot.h"
#include "knn/graph.h"
#include "knn/query.h"
#include "knn/query_service.h"
#include "knn/serving_cache.h"
#include "obs/pipeline_context.h"

namespace gf {

/// Epoch-tracking query engine over a SnapshotSource.
class SnapshotQueryEngine {
 public:
  struct Options {
    /// Contiguous zero-copy shards per epoch view (>= 1). It decides
    /// only how an epoch is viewed: the scan runs the same row chunks
    /// on the pool whatever the count.
    std::size_t num_shards = 1;
    /// L1 exact-result cache entries (0 = no cache). Entries are keyed
    /// to the pinned epoch, so a snapshot publish invalidates every
    /// cached answer at once; hits bypass the engine entirely.
    std::size_t cache_capacity = 0;
  };

  /// `source`, `pool` and `obs` must outlive the engine. No snapshot
  /// is acquired here; the first batch pays the first cache build.
  /// The overload without Options uses the defaults (one shard).
  explicit SnapshotQueryEngine(const SnapshotSource* source,
                               ThreadPool* pool = nullptr,
                               const obs::PipelineContext* obs = nullptr);
  SnapshotQueryEngine(const SnapshotSource* source, Options options,
                      ThreadPool* pool = nullptr,
                      const obs::PipelineContext* obs = nullptr);

  /// A batch plus the epoch it answered from.
  struct PinnedResults {
    SnapshotPtr snapshot;
    std::vector<std::vector<Neighbor>> results;
  };

  /// Acquires the current epoch, answers the whole batch against it,
  /// and returns both. Bit-exact with ScanQueryEngine::QueryBatch over
  /// `snapshot->store()` (the scatter/merge guarantee). Cache hits are
  /// replayed answers of the same engine at the same epoch, so they
  /// never change a result, only its cost.
  Result<PinnedResults> QueryBatchPinned(std::span<const Shf> queries,
                                         std::size_t k) const;

  /// QueryBatchPinned minus the snapshot handle.
  Result<std::vector<std::vector<Neighbor>>> QueryBatch(
      std::span<const Shf> queries, std::size_t k) const;

  /// Batch of one.
  Result<std::vector<Neighbor>> Query(const Shf& query, std::size_t k) const;

  /// L1 probe at the CURRENT epoch, engine untouched. False without a
  /// cache, on a miss, or when the source has no snapshot. A miss is
  /// not counted: the batch that later serves the request counts it.
  bool TryCached(const Shf& query, std::size_t k,
                 std::vector<Neighbor>* out) const;

  /// Adapter for the micro-batching front-end: QueryService coalesces
  /// requests, each coalesced batch runs against one pinned epoch.
  QueryService::BatchFn AsBatchFn() const;

  /// Adapter for QueryService::Options::cache_try — hits resolve in
  /// Submit and never enter the coalescing queue.
  QueryService::CacheTryFn AsCacheTryFn() const;

  /// The L1 cache, or nullptr when cache_capacity was 0.
  const ServingCache* cache() const { return cache_.get(); }

  /// Epoch of the cached engine (0 before the first batch). The lag
  /// between this and the source's current epoch is at most one batch.
  uint64_t cached_epoch() const;

 private:
  // One epoch's serving state; batches co-own it so a cache swap never
  // frees an engine mid-scan.
  struct Pinned {
    SnapshotPtr snapshot;
    std::unique_ptr<ScanQueryEngine> engine;  // co-owns the epoch's view
  };

  Result<std::shared_ptr<const Pinned>> AcquirePinned() const;

  const SnapshotSource* source_;
  Options options_;
  ThreadPool* pool_;
  const obs::PipelineContext* obs_;
  mutable std::mutex mu_;
  mutable std::shared_ptr<const Pinned> cached_;  // guarded by mu_
  std::unique_ptr<ServingCache> cache_;           // null when disabled
  obs::Gauge* epoch_gauge_ = nullptr;
  obs::Counter* rebuilds_ = nullptr;
};

}  // namespace gf

#endif  // GF_KNN_SNAPSHOT_QUERY_H_
