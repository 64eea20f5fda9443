#include "knn/ingest.h"

#include <optional>
#include <utility>

#include "knn/similarity_provider.h"

namespace gf {

namespace {

// Events drained per DrainOnce (bounds the latency of a publish behind
// a deep queue).
constexpr std::size_t kMaxApplyBatch = 4096;

}  // namespace

IngestService::IngestService(VersionedStore* store, Options options,
                             const obs::PipelineContext* obs)
    : store_(store),
      options_(options),
      obs_(obs),
      clock_(obs != nullptr ? obs->EffectiveClock() : Clock::System()),
      queue_(options.max_queue == 0 ? 1 : options.max_queue) {
  if (options_.publish_every == 0) options_.publish_every = 1;
  if (obs != nullptr && obs->HasMetrics()) {
    events_ = obs->metrics->GetCounter("ingest.events");
    rejected_ = obs->metrics->GetCounter("ingest.rejected");
    noops_ = obs->metrics->GetCounter("ingest.noops");
    refresh_users_ = obs->metrics->GetCounter("ingest.refresh_users");
    publishes_ = obs->metrics->GetCounter("ingest.publishes");
    epoch_gauge_ = obs->metrics->GetGauge("ingest.epoch");
    depth_gauge_ = obs->metrics->GetGauge("ingest.queue_depth");
    freshness_ = obs->metrics->GetHistogram(
        "ingest.freshness_lag_micros", obs::kLatencyBucketBoundariesMicros);
    publish_micros_ = obs->metrics->GetHistogram(
        "ingest.publish_micros", obs::kLatencyBucketBoundariesMicros);
  }
  if (options_.start_worker) {
    worker_ = std::thread(&IngestService::WorkerLoop, this);
  }
}

IngestService::~IngestService() { Shutdown(); }

Status IngestService::Submit(RatingEvent event) {
  if (closed_.load(std::memory_order_acquire)) {
    return Status::Unavailable("ingest service is shut down");
  }
  if (event.enqueued_micros == 0) event.enqueued_micros = clock_->NowMicros();
  if (!queue_.TryPush(std::move(event))) {
    if (rejected_ != nullptr) rejected_->Add(1);
    return Status::Unavailable("ingest queue full");
  }
  return Status::OK();
}

void IngestService::ApplyOne(const RatingEvent& event) {
  if (!store_->Apply(event)) {
    // Duplicate add, remove of an absent rating, or out-of-range user:
    // rejected by set discipline, nothing to publish.
    if (noops_ != nullptr) noops_->Add(1);
    return;
  }
  events_applied_.fetch_add(1, std::memory_order_relaxed);
  if (events_ != nullptr) events_->Add(1);
  pending_stamps_.push_back(event.enqueued_micros);
  ++since_publish_;
}

void IngestService::PublishEpoch() {
  if (since_publish_ == 0) return;
  const uint64_t t0 = clock_->NowMicros();
  VersionedStore::Staged staged = store_->Stage();

  // Repair the graph over the staged (post-event) store: the provider
  // must reflect the new data, per RefreshKnnGraph's contract. Without
  // a graph (store-only serving) the epoch publishes store-only.
  std::shared_ptr<const KnnGraph> graph = store_->Acquire()->graph();
  if (graph != nullptr && !staged.dirty.empty()) {
    if (refresh_users_ != nullptr) refresh_users_->Add(staged.dirty.size());
    graph = std::make_shared<const KnnGraph>(RefreshKnnGraph(
        *graph, GoldFingerProvider(staged.store), staged.dirty));
  }

  SnapshotPtr snap = store_->Commit(std::move(staged), std::move(graph));
  epochs_published_.fetch_add(1, std::memory_order_relaxed);
  if (publishes_ != nullptr) publishes_->Add(1);
  if (epoch_gauge_ != nullptr) {
    epoch_gauge_->Set(static_cast<double>(snap->epoch()));
  }
  const uint64_t now = clock_->NowMicros();
  if (publish_micros_ != nullptr) {
    publish_micros_->Observe(static_cast<double>(now - t0));
  }
  if (freshness_ != nullptr) {
    for (uint64_t stamp : pending_stamps_) {
      freshness_->Observe(stamp <= now ? static_cast<double>(now - stamp)
                                       : 0.0);
    }
  }
  pending_stamps_.clear();
  since_publish_ = 0;
}

void IngestService::WorkerLoop() {
  while (true) {
    std::optional<RatingEvent> event = queue_.Pop();
    if (!event.has_value()) break;  // closed and drained
    ApplyOne(*event);
    if (since_publish_ >= options_.publish_every) PublishEpoch();
    DrainOnce();  // whatever queued up behind it
  }
  PublishEpoch();  // the final partial epoch
}

std::size_t IngestService::DrainOnce() {
  std::size_t taken = 0;
  while (taken < kMaxApplyBatch) {
    std::optional<RatingEvent> event = queue_.TryPop();
    if (!event.has_value()) break;
    ApplyOne(*event);
    ++taken;
    // The cadence holds even against a deep queue: a backlog drains as
    // publish_every-sized epochs, not one giant one.
    if (since_publish_ >= options_.publish_every) PublishEpoch();
  }
  if (depth_gauge_ != nullptr) {
    depth_gauge_->Set(static_cast<double>(queue_.size()));
  }
  return taken;
}

void IngestService::Flush() { PublishEpoch(); }

void IngestService::Shutdown() {
  if (closed_.exchange(true, std::memory_order_acq_rel)) {
    if (worker_.joinable()) worker_.join();
    return;
  }
  queue_.Close();
  if (worker_.joinable()) {
    worker_.join();
  } else {
    // Stepping mode: drain what's left and publish it.
    while (std::optional<RatingEvent> event = queue_.TryPop()) {
      ApplyOne(*event);
    }
    PublishEpoch();
  }
}

}  // namespace gf
