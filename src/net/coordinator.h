// ClusterCoordinator: scatter/gather query serving over a replicated
// cluster (DESIGN.md §14).
//
// One QueryBatch call fans the encoded batch out to one replica per
// shard, waits on Transport::Drive, and merges the per-shard scored
// top-k lists through MergeTopK — the same merge the single-box scan
// joins its partitions with — so when every shard answers, the merged
// answer is BIT-IDENTICAL to ScanQueryEngine::QueryBatch over the
// whole store (doubles cross the wire; floats appear only after the
// merge, see net/wire.h).
//
// Tail-latency machinery, all on the injectable clock:
//
//   hedging    a shard whose attempt is still in flight after
//              `hedge_delay_micros` gets a second attempt on the next
//              replica in rotation; first response wins, the loser is
//              ignored (net.hedges / net.duplicates_ignored).
//   failover   a FAILED attempt (kUnavailable, corrupt frame, server
//              error) immediately retries on the next replica, up to
//              `max_attempts_per_shard` (net.failovers).
//   deadline   the whole scatter shares one absolute deadline; shards
//              still unanswered there fail with kDeadlineExceeded
//              (net.deadline_exceeded) without leaking the in-flight
//              slot — late completions land in the still-alive scatter
//              state and are dropped.
//   partial    a batch that at least one shard answers degrades
//              gracefully: the merged answer covers the answering
//              shards' rows and ClusterAnswer reports which shards are
//              missing (net.partial_responses). Zero answering shards
//              is an error.
//   health     replica health comes from HealthTracker::Options{}: an
//              address is quarantined for 100 ms after 3 consecutive
//              failures (net.replica_unhealthy).
//
// The coordinator caches no answers. Replicas carry no epoch the
// coordinator could key a cache on, so only the single-box serving path
// (SnapshotQueryEngine) fronts its scan with the exact ServingCache
// (DESIGN.md §17).
//
// Shutdown safety: completion callbacks capture shared state (never the
// coordinator), so destroying the coordinator — or returning from
// QueryBatch — with scatters still in flight is safe; whatever fires
// later mutates an orphaned state block and nothing else.

#ifndef GF_NET_COORDINATOR_H_
#define GF_NET_COORDINATOR_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/shf.h"
#include "knn/graph.h"
#include "net/cluster.h"
#include "net/transport.h"
#include "obs/pipeline_context.h"

namespace gf::net {

class ClusterCoordinator {
 public:
  struct Options {
    /// Budget for one whole scatter/gather, relative to its start.
    uint64_t deadline_micros = 1'000'000;
    /// Hedge an unanswered attempt after this long; 0 disables hedging.
    uint64_t hedge_delay_micros = 0;
    /// Total attempts (primary + hedges + failovers) per shard.
    std::size_t max_attempts_per_shard = 3;
  };

  /// One batch's outcome. `results[q]` answers query q from the union
  /// of the ANSWERING shards' rows; `shard_status[s]` is OK or the
  /// final error that retired shard s.
  struct ClusterAnswer {
    std::vector<std::vector<Neighbor>> results;
    std::vector<Status> shard_status;
    std::size_t shards_answered = 0;
    std::size_t shards_total = 0;

    bool complete() const { return shards_answered == shards_total; }
  };

  /// `transport` (and `obs`, when given) must outlive the coordinator.
  /// `config` is validated; a bad topology surfaces on the first
  /// QueryBatch call. (No `= {}` default for `options`: a nested
  /// struct with member initializers cannot be a brace default
  /// argument inside its enclosing class — same quirk as
  /// SnapshotQueryEngine::Options. The two-arg overload covers
  /// defaults.)
  ClusterCoordinator(ClusterConfig config, Transport* transport,
                     Options options,
                     const obs::PipelineContext* obs = nullptr);
  ClusterCoordinator(ClusterConfig config, Transport* transport);
  ~ClusterCoordinator();

  ClusterCoordinator(const ClusterCoordinator&) = delete;
  ClusterCoordinator& operator=(const ClusterCoordinator&) = delete;

  /// Scatter/gathers one batch. Blocks (driving the transport) until
  /// every shard answered or the deadline passed. Not re-entrant: one
  /// batch at a time per coordinator.
  Result<ClusterAnswer> QueryBatch(std::span<const Shf> queries,
                                   std::size_t k);

  std::size_t num_shards() const;

  /// Health introspection (tests and the gfk CLI).
  bool ReplicaHealthy(const std::string& address) const;

 private:
  struct Core;
  struct ScatterState;

  std::shared_ptr<Core> core_;
};

}  // namespace gf::net

#endif  // GF_NET_COORDINATOR_H_
