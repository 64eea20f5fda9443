#include "knn/snapshot_query.h"

#include <utility>

namespace gf {

SnapshotQueryEngine::SnapshotQueryEngine(const SnapshotSource* source,
                                         ThreadPool* pool,
                                         const obs::PipelineContext* obs)
    : SnapshotQueryEngine(source, Options{}, pool, obs) {}

SnapshotQueryEngine::SnapshotQueryEngine(const SnapshotSource* source,
                                         Options options, ThreadPool* pool,
                                         const obs::PipelineContext* obs)
    : source_(source), options_(options), pool_(pool), obs_(obs) {
  if (options_.num_shards == 0) options_.num_shards = 1;
  if (options_.cache_capacity > 0) {
    ServingCache::Options cache_options;
    cache_options.capacity = options_.cache_capacity;
    cache_ = std::make_unique<ServingCache>(std::move(cache_options), obs);
  }
  if (obs != nullptr && obs->HasMetrics()) {
    epoch_gauge_ = obs->metrics->GetGauge("query.epoch");
    rebuilds_ = obs->metrics->GetCounter("query.snapshot_rebuilds");
  }
}

Result<std::shared_ptr<const SnapshotQueryEngine::Pinned>>
SnapshotQueryEngine::AcquirePinned() const {
  SnapshotPtr snap = source_->Acquire();
  if (snap == nullptr) {
    return Status::Unavailable("snapshot source returned no snapshot");
  }
  std::lock_guard<std::mutex> lock(mu_);
  // Same epoch object => same cache entry. Pointer identity is the
  // right test: a republished epoch number with different bytes is a
  // distinct snapshot object.
  if (cached_ != nullptr && cached_->snapshot == snap) return cached_;

  const std::vector<UserId> begins = ShardedFingerprintStore::BalancedBegins(
      snap->store().num_users(), options_.num_shards);
  auto view = ShardedFingerprintStore::ViewOf(snap, begins, obs_);
  if (!view.ok()) return view.status();
  auto pinned = std::make_shared<Pinned>();
  pinned->snapshot = snap;
  pinned->engine = std::make_unique<ScanQueryEngine>(
      std::make_shared<const ShardedFingerprintStore>(std::move(view).value()),
      pool_, obs_);
  cached_ = pinned;
  if (epoch_gauge_ != nullptr) {
    epoch_gauge_->Set(static_cast<double>(snap->epoch()));
  }
  if (rebuilds_ != nullptr) rebuilds_->Add(1);
  return std::shared_ptr<const Pinned>(std::move(pinned));
}

Result<SnapshotQueryEngine::PinnedResults>
SnapshotQueryEngine::QueryBatchPinned(std::span<const Shf> queries,
                                      std::size_t k) const {
  std::shared_ptr<const Pinned> pinned;
  GF_ASSIGN_OR_RETURN(pinned, AcquirePinned());
  GF_RETURN_IF_ERROR(
      CheckQueries(pinned->snapshot->store().num_bits(), queries, k));

  // With the L1, only the misses at the pinned epoch pay the scan.
  auto results =
      cache_ == nullptr
          ? pinned->engine->QueryBatch(queries, k)
          : cache_->Serve(queries, k, pinned->snapshot->epoch(),
                          [&](std::span<const Shf> misses) {
                            return pinned->engine->QueryBatch(misses, k);
                          });
  if (!results.ok()) return results.status();
  return PinnedResults{pinned->snapshot, std::move(results).value()};
}

Result<std::vector<std::vector<Neighbor>>> SnapshotQueryEngine::QueryBatch(
    std::span<const Shf> queries, std::size_t k) const {
  auto pinned = QueryBatchPinned(queries, k);
  if (!pinned.ok()) return pinned.status();
  return std::move(pinned->results);
}

Result<std::vector<Neighbor>> SnapshotQueryEngine::Query(
    const Shf& query, std::size_t k) const {
  auto batch = QueryBatch({&query, 1}, k);
  if (!batch.ok()) return batch.status();
  return std::move(batch->front());
}

bool SnapshotQueryEngine::TryCached(const Shf& query, std::size_t k,
                                    std::vector<Neighbor>* out) const {
  if (cache_ == nullptr) return false;
  const SnapshotPtr snap = source_->Acquire();
  if (snap == nullptr) return false;
  return cache_->Lookup(query, k, snap->epoch(), out, /*count_miss=*/false);
}

QueryService::BatchFn SnapshotQueryEngine::AsBatchFn() const {
  return [this](std::span<const Shf> queries, std::size_t k) {
    return QueryBatch(queries, k);
  };
}

QueryService::CacheTryFn SnapshotQueryEngine::AsCacheTryFn() const {
  return [this](const Shf& query, std::size_t k, std::vector<Neighbor>* out) {
    return TryCached(query, k, out);
  };
}

uint64_t SnapshotQueryEngine::cached_epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cached_ != nullptr ? cached_->snapshot->epoch() : 0;
}

}  // namespace gf
