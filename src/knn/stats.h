// Construction statistics reported by every KNN algorithm: wall time,
// similarity computations (→ Figure 12's scan rate), iterations and
// per-iteration updates (→ the δ-termination diagnostics).
//
// Every construction fills the struct from its local tallies. The
// instrumented pipeline engine (knn/builder.h, DESIGN.md §10) returns
// that struct as it is and also publishes it into its PipelineContext
// registry through PublishBuildStats(), so a registry that outlives
// one build accumulates, while each build's returned stats stay its
// own.

#ifndef GF_KNN_STATS_H_
#define GF_KNN_STATS_H_

#include <cstdint>
#include <cstdio>
#include <string_view>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "obs/metrics.h"

namespace gf {

/// Filled by every construction (brute_force.h, hyrec.h, nndescent.h,
/// banded_lsh.h, ...) through RecordBuildStats.
struct KnnBuildStats {
  /// Wall-clock seconds of the construction (excludes dataset /
  /// fingerprint preparation, matching the paper's §3.4 methodology).
  double seconds = 0.0;
  /// Number of pair similarities evaluated.
  uint64_t similarity_computations = 0;
  /// Greedy iterations executed (1 for Brute Force / LSH).
  std::size_t iterations = 0;
  /// Neighbor-list updates per iteration (greedy algorithms).
  std::vector<uint64_t> updates_per_iteration;

  /// Scan rate relative to the n(n-1)/2 comparisons of an exhaustive
  /// (unordered-pair) search — Figure 12b's y-axis.
  double ScanRate(std::size_t num_users) const {
    const double denom = 0.5 * static_cast<double>(num_users) *
                         static_cast<double>(num_users - 1);
    return denom == 0.0 ? 0.0
                        : static_cast<double>(similarity_computations) / denom;
  }
};

/// The tail every construction shares: fills `*stats` (when non-null)
/// with `timer`'s elapsed time and the build's tallies.
inline void RecordBuildStats(KnnBuildStats* stats, const WallTimer& timer,
                             uint64_t computations, std::size_t iterations,
                             std::vector<uint64_t> updates = {}) {
  if (stats == nullptr) return;
  stats->seconds = timer.ElapsedSeconds();
  stats->similarity_computations = computations;
  stats->iterations = iterations;
  stats->updates_per_iteration = std::move(updates);
}

/// Registry names of the build statistics. Per-iteration updates are
/// zero-padded child counters ("knn.iteration_updates.007") so the
/// registry's name order is iteration order.
inline constexpr std::string_view kStatSimilarityComputations =
    "knn.similarity_computations";
inline constexpr std::string_view kStatIterations = "knn.iterations";
inline constexpr std::string_view kStatBuildSeconds = "knn.build_seconds";

/// Publishes `stats` into `registry` under the names above. Counters
/// are added to (registry counters are monotonic), so a registry that
/// several builds publish into holds their sums.
inline void PublishBuildStats(obs::MetricRegistry* registry,
                              const KnnBuildStats& stats) {
  if (registry == nullptr) return;
  registry->GetCounter(kStatSimilarityComputations)
      ->Add(stats.similarity_computations);
  registry->GetCounter(kStatIterations)->Add(stats.iterations);
  registry->GetGauge(kStatBuildSeconds)->Set(stats.seconds);
  for (std::size_t i = 0; i < stats.updates_per_iteration.size(); ++i) {
    char name[48];
    std::snprintf(name, sizeof(name), "knn.iteration_updates.%03zu", i);
    registry->GetCounter(name)->Add(stats.updates_per_iteration[i]);
  }
}

}  // namespace gf

#endif  // GF_KNN_STATS_H_
