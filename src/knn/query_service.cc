#include "knn/query_service.h"

#include <algorithm>
#include <utility>

#include "knn/query.h"

namespace gf {

namespace {

std::future<Result<std::vector<Neighbor>>> ImmediateError(Status status) {
  std::promise<Result<std::vector<Neighbor>>> promise;
  promise.set_value(std::move(status));
  return promise.get_future();
}

}  // namespace

QueryService::QueryService(BatchFn batch_fn, Options options,
                           const obs::PipelineContext* obs)
    : batch_fn_(std::move(batch_fn)),
      options_(options),
      clock_(obs != nullptr ? obs->EffectiveClock() : Clock::System()),
      queue_(options.max_queue) {
  if (options_.max_batch == 0) options_.max_batch = 1;
  if (obs != nullptr && obs->HasMetrics()) {
    submitted_ = obs->metrics->GetCounter("query.service.submitted");
    bypassed_ = obs->metrics->GetCounter("query.cache_bypass");
    rejected_ = obs->metrics->GetCounter("query.rejected");
    expired_ = obs->metrics->GetCounter("query.deadline_expired");
    batches_ = obs->metrics->GetCounter("query.service.batches");
    served_ = obs->metrics->GetCounter("query.service.served");
    depth_ = obs->metrics->GetGauge("query.queue_depth");
    queue_wait_ = obs->metrics->GetHistogram(
        "query.queue_wait_micros", obs::kLatencyBucketBoundariesMicros);
    batch_size_ = obs->metrics->GetHistogram("query.service.batch_size",
                                             obs::kSizeBucketBoundaries);
  }
  if (options_.start_dispatcher) {
    dispatcher_ = std::thread([this] { DispatcherLoop(); });
  }
}

QueryService::~QueryService() { Shutdown(); }

void QueryService::UpdateDepthGauge() {
  if (depth_ != nullptr) depth_->Set(static_cast<double>(queue_.size()));
}

std::future<Result<std::vector<Neighbor>>> QueryService::Submit(
    Shf query, std::size_t k, uint64_t deadline_micros) {
  if (submitted_ != nullptr) submitted_->Add(1);
  // Without an expected bit length only k is checked here.
  const std::size_t bits = options_.expected_bits != 0
                               ? options_.expected_bits
                               : query.num_bits();
  if (Status status = CheckQuery(bits, query.num_bits(), k); !status.ok()) {
    return ImmediateError(std::move(status));
  }
  // L1 fast path: a cached exact answer resolves here — no queue slot,
  // no linger, no scan. The probe is keyed to the source's CURRENT
  // epoch, so a hit is exactly what a coalesced batch would answer.
  if (options_.cache_try) {
    std::vector<Neighbor> cached;
    if (options_.cache_try(query, k, &cached)) {
      if (bypassed_ != nullptr) bypassed_->Add(1);
      std::promise<Result<std::vector<Neighbor>>> promise;
      promise.set_value(std::move(cached));
      return promise.get_future();
    }
  }
  Request request{std::move(query), k, deadline_micros, clock_->NowMicros(),
                  {}};
  auto future = request.promise.get_future();
  if (!queue_.TryPush(std::move(request))) {
    if (rejected_ != nullptr) rejected_->Add(1);
    return ImmediateError(
        Status::Unavailable("request queue full or shutting down"));
  }
  UpdateDepthGauge();
  return future;
}

void QueryService::ServeBatch(std::vector<Request> batch) {
  if (batch.empty()) return;
  const uint64_t now = clock_->NowMicros();

  // Admission already happened; here expired requests are dropped from
  // the engine call so they don't waste scan work.
  std::vector<Request> live;
  live.reserve(batch.size());
  for (Request& request : batch) {
    if (queue_wait_ != nullptr) {
      queue_wait_->Observe(
          static_cast<double>(now - request.enqueued_micros));
    }
    if (request.deadline_micros != 0 && request.deadline_micros < now) {
      if (expired_ != nullptr) expired_->Add(1);
      request.promise.set_value(Status::DeadlineExceeded(
          "deadline passed while the request was queued"));
      continue;
    }
    live.push_back(std::move(request));
  }
  if (live.empty()) return;

  // One engine pass at the batch's largest k; each reply is the prefix
  // of that ranking at its own k (exact under the total order).
  std::size_t k_max = 0;
  std::vector<Shf> queries;
  queries.reserve(live.size());
  for (Request& request : live) {
    k_max = std::max(k_max, request.k);
    queries.push_back(std::move(request.query));
  }
  auto result = batch_fn_(queries, k_max);
  if (batches_ != nullptr) {
    batches_->Add(1);
    batch_size_->Observe(static_cast<double>(live.size()));
  }
  if (!result.ok()) {
    for (Request& request : live) {
      request.promise.set_value(result.status());
    }
    return;
  }
  for (std::size_t i = 0; i < live.size(); ++i) {
    std::vector<Neighbor>& neighbors = (*result)[i];
    if (neighbors.size() > live[i].k) neighbors.resize(live[i].k);
    live[i].promise.set_value(std::move(neighbors));
  }
  if (served_ != nullptr) served_->Add(live.size());
}

void QueryService::DispatcherLoop() {
  for (;;) {
    auto first = queue_.Pop();
    if (!first.has_value()) return;  // closed and fully drained
    std::vector<Request> batch;
    batch.reserve(options_.max_batch);
    batch.push_back(std::move(*first));

    // Linger for more requests: full SIMD tiles beat minimal latency
    // until max_wait_micros, then the batch goes as-is.
    const uint64_t t0 = clock_->NowMicros();
    while (batch.size() < options_.max_batch) {
      if (auto next = queue_.TryPop(); next.has_value()) {
        batch.push_back(std::move(*next));
        continue;
      }
      const uint64_t waited = clock_->NowMicros() - t0;
      if (waited >= options_.max_wait_micros || queue_.closed()) break;
      clock_->SleepMicros(
          std::min<uint64_t>(10, options_.max_wait_micros - waited));
    }
    UpdateDepthGauge();
    ServeBatch(std::move(batch));
  }
}

std::size_t QueryService::DrainOnce() {
  // Serialized with concurrent DrainOnce/Shutdown callers: two drains
  // running the engine (and reading a possibly-fake clock) at once was
  // a real race when a stepping-mode test shut down from one thread
  // while another still stepped the service.
  const std::lock_guard<std::mutex> lock(drain_mu_);
  std::vector<Request> batch;
  batch.reserve(options_.max_batch);
  while (batch.size() < options_.max_batch) {
    auto next = queue_.TryPop();
    if (!next.has_value()) break;
    batch.push_back(std::move(*next));
  }
  UpdateDepthGauge();
  const std::size_t drained = batch.size();
  ServeBatch(std::move(batch));
  return drained;
}

void QueryService::Shutdown() {
  queue_.Close();
  // Joining is guarded: two concurrent Shutdown() calls (or Shutdown
  // racing the destructor) both used to see dispatcher_.joinable() and
  // both call join() on the same std::thread — undefined behavior. The
  // first caller under the lock joins; later callers see a joined
  // (non-joinable) thread and fall through.
  {
    const std::lock_guard<std::mutex> lock(lifecycle_mu_);
    if (dispatcher_.joinable()) {
      dispatcher_.join();  // the loop drains the queue before exiting
    }
  }
  // Requests admitted before Close() are served even in stepping mode
  // (no dispatcher); after a dispatcher join this finds an empty queue
  // and is a no-op. DrainOnce serializes concurrent drainers itself.
  while (DrainOnce() > 0) {
  }
  UpdateDepthGauge();
}

}  // namespace gf
