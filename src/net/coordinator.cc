#include "net/coordinator.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <mutex>
#include <utility>

#include "knn/query.h"
#include "net/wire.h"

namespace gf::net {

namespace {

constexpr uint64_t kNever = std::numeric_limits<uint64_t>::max();

}  // namespace

/// One scatter's shared mutable state. Completion callbacks own it via
/// shared_ptr, so it outlives both QueryBatch and the coordinator —
/// a late completion mutates an orphaned block, never freed memory.
struct ClusterCoordinator::ScatterState {
  struct Shard {
    bool done = false;
    bool failed = false;
    std::size_t attempts = 0;
    std::size_t inflight = 0;
    /// Attempt ids still racing; a completion whose id is absent is a
    /// duplicate delivery (or a hedge loser) and is dropped.
    std::vector<uint64_t> live_attempts;
    uint64_t hedge_at = kNever;  // absolute; kNever = no hedge pending
    Status last_error = Status::Unavailable("shard never attempted");
    ScoredLists rows;
  };

  std::mutex mu;
  uint64_t request_id = 0;
  std::string frame;
  std::size_t num_queries = 0;
  uint64_t deadline = 0;
  uint64_t next_attempt_id = 1;
  std::vector<Shard> shards;
};

/// Everything the completion callbacks need, owned jointly by the
/// coordinator and by every in-flight callback (shared_ptr) so that
/// coordinator destruction with scatters in flight is safe.
struct ClusterCoordinator::Core
    : public std::enable_shared_from_this<ClusterCoordinator::Core> {
  ClusterConfig config;
  Transport* transport;
  Options options;
  // Nullable cached instruments (obs may carry no registry).
  obs::Counter* requests;
  obs::Counter* batches;
  obs::Counter* hedges;
  obs::Counter* failovers;
  obs::Counter* corrupt_frames;
  obs::Counter* duplicates_ignored;
  obs::Counter* partial_responses;
  obs::Counter* deadline_exceeded;
  HealthTracker health;
  std::atomic<uint64_t> next_request_id{1};

  Core(ClusterConfig config_in, Transport* transport_in, Options options_in,
       const obs::PipelineContext* obs)
      : config(std::move(config_in)),
        transport(transport_in),
        options(options_in),
        requests(obs::CounterOrNull(obs, "net.requests")),
        batches(obs::CounterOrNull(obs, "net.batches")),
        hedges(obs::CounterOrNull(obs, "net.hedges")),
        failovers(obs::CounterOrNull(obs, "net.failovers")),
        corrupt_frames(obs::CounterOrNull(obs, "net.corrupt_frames")),
        duplicates_ignored(obs::CounterOrNull(obs, "net.duplicates_ignored")),
        partial_responses(obs::CounterOrNull(obs, "net.partial_responses")),
        deadline_exceeded(obs::CounterOrNull(obs, "net.deadline_exceeded")),
        health(HealthTracker::Options{},
               obs::CounterOrNull(obs, "net.replica_unhealthy")) {}

  // Lock order everywhere: ScatterState::mu first, then whatever the
  // transport takes inside CallAsync. Callbacks take ScatterState::mu
  // before touching any transport state, so the order never inverts.

  /// Issues the next attempt for `shard`. Caller holds state->mu.
  void StartAttemptLocked(const std::shared_ptr<ScatterState>& state,
                          std::size_t shard);
  /// Completion of one attempt (any thread).
  void OnCompletion(const std::shared_ptr<ScatterState>& state,
                    std::size_t shard, uint64_t attempt_id,
                    const std::string& address, Result<std::string> result);
  /// Retires a failed attempt: failover or give up. Holds state->mu.
  void HandleFailureLocked(const std::shared_ptr<ScatterState>& state,
                           std::size_t shard, const std::string& address,
                           Status failure);
  /// Response sanity beyond what DecodeQueryResponse can know: the
  /// right request, the right query count, every id inside the shard
  /// the replica claims to serve.
  Status CheckResponseLocked(const ScatterState& state, std::size_t shard,
                             const QueryBatchResponse& response) const;
};

void ClusterCoordinator::Core::StartAttemptLocked(
    const std::shared_ptr<ScatterState>& state, std::size_t shard) {
  ScatterState::Shard& sh = state->shards[shard];
  const uint64_t now = transport->clock()->NowMicros();
  const std::size_t replica =
      PickReplica(config, shard, sh.attempts, health, now);
  const std::string& address = config.replicas[shard][replica];
  const uint64_t attempt_id = state->next_attempt_id++;
  ++sh.attempts;
  ++sh.inflight;
  sh.live_attempts.push_back(attempt_id);
  sh.hedge_at = options.hedge_delay_micros > 0 &&
                        sh.attempts < options.max_attempts_per_shard
                    ? now + options.hedge_delay_micros
                    : kNever;
  if (requests != nullptr) requests->Add(1);
  auto core = shared_from_this();
  transport->CallAsync(
      address, state->frame, state->deadline,
      [core, state, shard, attempt_id, address](Result<std::string> result) {
        core->OnCompletion(state, shard, attempt_id, address,
                           std::move(result));
      });
}

Status ClusterCoordinator::Core::CheckResponseLocked(
    const ScatterState& state, std::size_t shard,
    const QueryBatchResponse& response) const {
  if (response.request_id != state.request_id) {
    return Status::Corruption(
        "response for request " + std::to_string(response.request_id) +
        " while waiting on " + std::to_string(state.request_id));
  }
  if (response.results.size() != state.num_queries) {
    return Status::Corruption(
        "replica answered " + std::to_string(response.results.size()) +
        " of " + std::to_string(state.num_queries) + " queries");
  }
  const UserId begin = config.ShardBeginOf(shard);
  const UserId end = config.ShardEndOf(shard);
  for (const auto& neighbors : response.results) {
    for (const ScoredNeighbor& neighbor : neighbors) {
      if (neighbor.id < begin || neighbor.id >= end) {
        return Status::Corruption(
            "replica of shard " + std::to_string(shard) +
            " returned user " + std::to_string(neighbor.id) +
            " outside its rows [" + std::to_string(begin) + ", " +
            std::to_string(end) + ")");
      }
    }
  }
  return Status::OK();
}

void ClusterCoordinator::Core::OnCompletion(
    const std::shared_ptr<ScatterState>& state, std::size_t shard,
    uint64_t attempt_id, const std::string& address,
    Result<std::string> result) {
  const std::lock_guard<std::mutex> lock(state->mu);
  ScatterState::Shard& sh = state->shards[shard];
  const auto live = std::find(sh.live_attempts.begin(),
                              sh.live_attempts.end(), attempt_id);
  const bool first_delivery = live != sh.live_attempts.end();
  if (first_delivery) {
    sh.live_attempts.erase(live);
    if (sh.inflight > 0) --sh.inflight;
  }
  if (!first_delivery || sh.done || sh.failed) {
    // Duplicate delivery, hedge loser, or a completion racing the
    // shard's retirement: drop it. The in-flight slot was already
    // released above for first deliveries.
    if (result.ok() && duplicates_ignored != nullptr) {
      duplicates_ignored->Add(1);
    }
    return;
  }
  if (!result.ok()) {
    HandleFailureLocked(state, shard, address, result.status());
    return;
  }
  auto response = DecodeQueryResponse(*result);
  Status failure;
  if (!response.ok()) {
    if (corrupt_frames != nullptr) corrupt_frames->Add(1);
    failure = response.status();
  } else if (!response->status.ok()) {
    // The replica itself failed the batch (server-side error).
    failure = response->status;
  } else if (Status check = CheckResponseLocked(*state, shard, *response);
             !check.ok()) {
    if (corrupt_frames != nullptr) corrupt_frames->Add(1);
    failure = std::move(check);
  } else {
    sh.done = true;
    sh.rows = std::move(response->results);
    health.ReportSuccess(address);
    return;
  }
  HandleFailureLocked(state, shard, address, std::move(failure));
}

void ClusterCoordinator::Core::HandleFailureLocked(
    const std::shared_ptr<ScatterState>& state, std::size_t shard,
    const std::string& address, Status failure) {
  ScatterState::Shard& sh = state->shards[shard];
  sh.last_error = std::move(failure);
  const uint64_t now = transport->clock()->NowMicros();
  health.ReportFailure(address, now);
  if (sh.inflight > 0) return;  // a hedge is still racing for this shard
  if (sh.attempts < options.max_attempts_per_shard &&
      now < state->deadline) {
    if (failovers != nullptr) failovers->Add(1);
    StartAttemptLocked(state, shard);
    return;
  }
  sh.failed = true;
}

ClusterCoordinator::ClusterCoordinator(ClusterConfig config,
                                       Transport* transport, Options options,
                                       const obs::PipelineContext* obs)
    : core_(std::make_shared<Core>(std::move(config), transport, options,
                                   obs)) {}

ClusterCoordinator::ClusterCoordinator(ClusterConfig config,
                                       Transport* transport)
    : ClusterCoordinator(std::move(config), transport, Options{}) {}

ClusterCoordinator::~ClusterCoordinator() = default;

std::size_t ClusterCoordinator::num_shards() const {
  return core_->config.num_shards();
}

bool ClusterCoordinator::ReplicaHealthy(const std::string& address) const {
  return core_->health.IsHealthy(address,
                                 core_->transport->clock()->NowMicros());
}

Result<ClusterCoordinator::ClusterAnswer> ClusterCoordinator::QueryBatch(
    std::span<const Shf> queries, std::size_t k) {
  GF_RETURN_IF_ERROR(core_->config.Validate());
  QueryBatchRequest request;
  GF_ASSIGN_OR_RETURN(
      request, QueryBatchRequest::Pack(
                   core_->next_request_id.fetch_add(1), queries, k));

  Clock* clock = core_->transport->clock();
  auto state = std::make_shared<ScatterState>();
  state->request_id = request.request_id;
  state->frame = EncodeQueryRequest(request);
  state->num_queries = request.num_queries();
  state->deadline = clock->NowMicros() + core_->options.deadline_micros;
  const std::size_t num_shards = core_->config.num_shards();
  state->shards.resize(num_shards);
  {
    const std::lock_guard<std::mutex> lock(state->mu);
    for (std::size_t s = 0; s < num_shards; ++s) {
      core_->StartAttemptLocked(state, s);
    }
  }

  // Gather loop: lend the thread to the transport until the next timer
  // (earliest pending hedge, else the deadline), reacting to whatever
  // completed in between. On FakeTransport this loop is also what
  // advances the clock, so the whole state machine runs without one
  // real sleep.
  for (;;) {
    const uint64_t now = clock->NowMicros();
    uint64_t wake = state->deadline;
    bool all_retired = true;
    {
      const std::lock_guard<std::mutex> lock(state->mu);
      for (std::size_t s = 0; s < num_shards; ++s) {
        ScatterState::Shard& sh = state->shards[s];
        if (sh.done || sh.failed) continue;
        all_retired = false;
        if (sh.hedge_at <= now && sh.inflight > 0 &&
            sh.attempts < core_->options.max_attempts_per_shard) {
          if (core_->hedges != nullptr) core_->hedges->Add(1);
          core_->StartAttemptLocked(state, s);
        }
        wake = std::min(wake, sh.hedge_at);
      }
    }
    if (all_retired) break;
    if (now >= state->deadline) {
      const std::lock_guard<std::mutex> lock(state->mu);
      for (ScatterState::Shard& sh : state->shards) {
        if (sh.done || sh.failed) continue;
        sh.failed = true;
        sh.last_error = Status::DeadlineExceeded(
            "scatter deadline passed with the shard unanswered");
        if (core_->deadline_exceeded != nullptr) {
          core_->deadline_exceeded->Add(1);
        }
      }
      break;
    }
    core_->transport->Drive(std::min(wake, state->deadline));
  }

  ClusterAnswer answer;
  answer.shards_total = num_shards;
  answer.shard_status.resize(num_shards);
  const std::lock_guard<std::mutex> lock(state->mu);
  Status first_error;
  for (std::size_t s = 0; s < num_shards; ++s) {
    const ScatterState::Shard& sh = state->shards[s];
    if (sh.done) {
      ++answer.shards_answered;
    } else {
      answer.shard_status[s] = sh.last_error;
      if (first_error.ok()) first_error = sh.last_error;
    }
  }
  if (answer.shards_answered == 0) {
    return first_error.ok()
               ? Status::Unavailable("no shard answered the scatter")
               : first_error;
  }
  if (answer.shards_answered < answer.shards_total &&
      core_->partial_responses != nullptr) {
    core_->partial_responses->Add(1);
  }

  // The answering shards' scored lists through the single-box scan's
  // own merge, doubles in, floats out, so the full-quorum answer is
  // bit-identical to ScanQueryEngine::QueryBatch.
  std::vector<ScoredLists> answered;
  for (ScatterState::Shard& sh : state->shards) {
    if (sh.done) answered.push_back(std::move(sh.rows));
  }
  answer.results = ToNeighbors(MergeTopK(answered, state->num_queries, k));
  if (core_->batches != nullptr) core_->batches->Add(1);
  return answer;
}

}  // namespace gf::net
