// QueryService — the async micro-batching front-end over the batch
// query engines (DESIGN.md §12). External requests arrive one SHF at a
// time; the batched SIMD tile scan only pays off when many queries
// share one pass over the store. The service bridges the two:
//
//   * a bounded MPMC request queue with ADMISSION CONTROL: Submit never
//     blocks — a full queue completes the request immediately with
//     Unavailable (`query.rejected`), turning overload into fast,
//     explicit load shedding instead of unbounded latency;
//   * per-request DEADLINES on the injectable Clock: a request whose
//     deadline passed while queued is completed with DeadlineExceeded
//     (`query.deadline_expired`) instead of wasting a scan slot;
//   * a MICRO-BATCHING COALESCER: the dispatcher drains up to
//     Options::max_batch requests, lingering at most max_wait_micros
//     after the first, and serves them as ONE QueryBatch call — many
//     small external requests become full SIMD tiles. Requests may ask
//     for different k: the batch runs at the largest k and each reply
//     is truncated to its own k, which is exact because top-k under the
//     engines' total order is a prefix of top-k' for k <= k'.
//
// Shutdown drains: requests admitted before Shutdown()/destruction are
// served (or deadline-expired), never dropped.
//
// Threading: with Options::start_dispatcher (the default) one owned
// dispatcher thread runs the coalescer. Tests that inject a FakeClock
// use start_dispatcher = false and step the service with DrainOnce() —
// the clock is then only read from the stepping thread.

#ifndef GF_KNN_QUERY_SERVICE_H_
#define GF_KNN_QUERY_SERVICE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/mpmc_queue.h"
#include "common/result.h"
#include "core/shf.h"
#include "knn/graph.h"
#include "obs/pipeline_context.h"

namespace gf {

/// Admission-controlled micro-batching request front-end.
class QueryService {
 public:
  /// Pre-queue exact-cache probe (see Options::cache_try). Returns
  /// true and fills `*out` on a hit; must be safe to call from any
  /// submitting thread.
  using CacheTryFn =
      std::function<bool(const Shf&, std::size_t, std::vector<Neighbor>*)>;

  struct Options {
    /// Queued-request bound; a full queue rejects (Unavailable).
    std::size_t max_queue = 1024;
    /// Most requests coalesced into one QueryBatch call.
    std::size_t max_batch = 256;
    /// How long the coalescer lingers for more requests after the
    /// first, in microseconds on the service clock.
    uint64_t max_wait_micros = 200;
    /// When non-zero, Submit validates the query bit length up front so
    /// one malformed request cannot fail a whole batch.
    std::size_t expected_bits = 0;
    /// Run the owned dispatcher thread. false = stepping mode: the
    /// caller drives the coalescer with DrainOnce() (FakeClock tests).
    bool start_dispatcher = true;
    /// L1 serving-cache probe (SnapshotQueryEngine::AsCacheTryFn): a
    /// hit completes the request inside Submit — it never enters the
    /// coalescing queue, never waits on the linger window, and counts
    /// as `query.cache_bypass`. Misses proceed normally and fill the
    /// cache when their coalesced batch completes.
    CacheTryFn cache_try;
  };

  /// One coalesced engine call: answers queries[i] with its top-k.
  /// Typically wraps ScanQueryEngine::QueryBatch or
  /// SnapshotQueryEngine::QueryBatch. Called from the dispatcher thread
  /// (or the DrainOnce caller); must be safe to call repeatedly.
  using BatchFn = std::function<Result<std::vector<std::vector<Neighbor>>>(
      std::span<const Shf>, std::size_t)>;

  /// `obs` (when given) must outlive the service; its clock is the
  /// service clock. The BatchFn is copied in.
  QueryService(BatchFn batch_fn, Options options,
               const obs::PipelineContext* obs = nullptr);
  ~QueryService();  // Shutdown()

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Admits one request. Never blocks. The future resolves with the
  /// top-k neighbors, or InvalidArgument (bad k / bit length),
  /// Unavailable (queue full or shutting down), DeadlineExceeded
  /// (deadline_micros != 0 and the clock passed it before the request
  /// was served), or the engine's own error. `deadline_micros` is
  /// ABSOLUTE on the service clock; 0 means no deadline.
  std::future<Result<std::vector<Neighbor>>> Submit(
      Shf query, std::size_t k, uint64_t deadline_micros = 0);

  /// Stepping mode: drains up to max_batch queued requests WITHOUT
  /// lingering and serves them. Returns how many requests were taken
  /// off the queue (served + expired). Not for use concurrently with a
  /// running dispatcher.
  std::size_t DrainOnce();

  /// Stops admitting, serves everything already admitted, joins the
  /// dispatcher. Idempotent AND safe to call concurrently — with
  /// itself, with the destructor, or with a stepping thread still in
  /// DrainOnce (the join and the drains are each serialized).
  void Shutdown();

  /// Requests currently queued (the `query.queue_depth` gauge).
  std::size_t QueueDepth() const { return queue_.size(); }

 private:
  struct Request {
    Shf query;
    std::size_t k;
    uint64_t deadline_micros;  // absolute; 0 = none
    uint64_t enqueued_micros;
    std::promise<Result<std::vector<Neighbor>>> promise;
  };

  void DispatcherLoop();
  void ServeBatch(std::vector<Request> batch);
  void UpdateDepthGauge();

  BatchFn batch_fn_;
  Options options_;
  Clock* clock_;
  BoundedMpmcQueue<Request> queue_;
  std::thread dispatcher_;
  /// Guards the dispatcher join (concurrent Shutdown/destructor calls
  /// must not both join).
  std::mutex lifecycle_mu_;
  /// Serializes DrainOnce bodies (a stepping-mode Shutdown may race a
  /// stepping thread).
  std::mutex drain_mu_;
  // Cached instruments (null without a metrics sink).
  obs::Counter* submitted_ = nullptr;
  obs::Counter* bypassed_ = nullptr;
  obs::Counter* rejected_ = nullptr;
  obs::Counter* expired_ = nullptr;
  obs::Counter* batches_ = nullptr;
  obs::Counter* served_ = nullptr;
  obs::Gauge* depth_ = nullptr;
  obs::Histogram* queue_wait_ = nullptr;
  obs::Histogram* batch_size_ = nullptr;
};

}  // namespace gf

#endif  // GF_KNN_QUERY_SERVICE_H_
