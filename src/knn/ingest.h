// IngestService: the write path behind the serving stack (DESIGN.md
// §15). Producers submit RatingEvents into a bounded MPMC queue; one
// worker drains it, applies the events to a VersionedStore's write
// side, repairs the KNN graph around the touched users
// (knn/incremental.h), and publishes store + graph as one new epoch.
// Readers (SnapshotQueryEngine / QueryService) keep serving the
// previous epoch untouched until the swap, then pick the new one up on
// their next batch — queries never block on ingestion and ingestion
// never waits for queries.
//
// Publish cadence: every Options::publish_every applied events (plus a
// final publish on Flush/Shutdown), batching the materialize + repair
// cost across many events. Larger values raise ingest throughput and
// freshness lag together; the `ingest.freshness_lag_micros` histogram
// (publish time minus event submission time, per event) makes the
// trade measurable.
//
// Repair policy: whenever the current epoch carries a graph, the
// worker runs RefreshKnnGraph over the staged store with the dirty
// users as the changed set — the graph-locality argument
// (Cluster-and-Conquer, PAPERS.md): an update can only move edges in
// neighborhoods it can reach, so repair cost scales with churn, not
// with the graph. Store-only deployments leave the graph nullptr and
// skip repair entirely. The repair's probes, passes and seed are the
// constants of knn/incremental.h.
//
// Metrics: ingest.events, ingest.rejected, ingest.noops, ingest.epoch
// (gauge), ingest.refresh_users, ingest.publishes,
// ingest.publish_micros, ingest.freshness_lag_micros,
// ingest.queue_depth (gauge).
//
// Threading: Submit is safe from any number of producer threads. With
// Options::start_worker (the default) one owned worker drains the
// queue; tests instead step deterministically with start_worker=false
// + DrainOnce() on a FakeClock (which is single-threaded by contract,
// exactly like QueryService's stepping mode).

#ifndef GF_KNN_INGEST_H_
#define GF_KNN_INGEST_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/mpmc_queue.h"
#include "common/status.h"
#include "core/versioned_store.h"
#include "knn/graph.h"
#include "knn/incremental.h"
#include "obs/pipeline_context.h"

namespace gf {

/// Drains rating events into a VersionedStore and publishes epochs.
class IngestService {
 public:
  struct Options {
    /// Queue capacity; a full queue rejects (admission control — the
    /// producer sees Unavailable and may retry, shed or backpressure).
    std::size_t max_queue = 65536;
    /// Applied events per published epoch.
    std::size_t publish_every = 1024;
    /// Spawn the worker thread. false = stepping mode: the test (or a
    /// single-threaded embedding) pumps DrainOnce() itself.
    bool start_worker = true;
  };

  /// `store`, and `obs` when given, must outlive the service. The
  /// clock for freshness stamps comes from `obs` (FakeClock in tests)
  /// or defaults to the system clock.
  IngestService(VersionedStore* store, Options options,
                const obs::PipelineContext* obs = nullptr);
  ~IngestService();  // Shutdown()

  IngestService(const IngestService&) = delete;
  IngestService& operator=(const IngestService&) = delete;

  /// Enqueues one event; stamps enqueued_micros when the producer left
  /// it zero. Unavailable when the queue is full or the service is
  /// shut down.
  Status Submit(RatingEvent event);

  /// Stepping mode (the worker runs it too, after each blocking pop):
  /// drains up to 4,096 queued events (kMaxApplyBatch), applies them,
  /// and publishes each time the cadence threshold is crossed. Returns
  /// the number of events taken off the queue.
  std::size_t DrainOnce();

  /// Publishes any applied-but-unpublished events as a new epoch now.
  /// Stepping mode only (the worker owns the cadence otherwise).
  void Flush();

  /// Stops intake, drains the queue, publishes the final epoch, joins
  /// the worker. Idempotent; the destructor calls it.
  void Shutdown();

  std::size_t QueueDepth() const { return queue_.size(); }
  uint64_t EventsApplied() const {
    return events_applied_.load(std::memory_order_relaxed);
  }
  uint64_t EpochsPublished() const {
    return epochs_published_.load(std::memory_order_relaxed);
  }

 private:
  void WorkerLoop();
  // Applies one event; tracks its enqueue stamp for the freshness
  // histogram. Worker/stepping thread only.
  void ApplyOne(const RatingEvent& event);
  void PublishEpoch();

  VersionedStore* store_;
  Options options_;
  const obs::PipelineContext* obs_;
  Clock* clock_;
  BoundedMpmcQueue<RatingEvent> queue_;
  std::atomic<bool> closed_{false};
  std::atomic<uint64_t> events_applied_{0};
  std::atomic<uint64_t> epochs_published_{0};

  // Worker-thread-local publish state (no locking: single consumer).
  std::size_t since_publish_ = 0;
  std::vector<uint64_t> pending_stamps_;

  // Cached instruments (null without a metrics sink).
  obs::Counter* events_ = nullptr;
  obs::Counter* rejected_ = nullptr;
  obs::Counter* noops_ = nullptr;
  obs::Counter* refresh_users_ = nullptr;
  obs::Counter* publishes_ = nullptr;
  obs::Gauge* epoch_gauge_ = nullptr;
  obs::Gauge* depth_gauge_ = nullptr;
  obs::Histogram* freshness_ = nullptr;
  obs::Histogram* publish_micros_ = nullptr;

  std::thread worker_;  // last member: joins before the rest tears down
};

}  // namespace gf

#endif  // GF_KNN_INGEST_H_
