// High-level facade: one call builds a KNN graph from a binarized
// dataset with any of the paper's four algorithms, natively or through
// GoldFinger (or b-bit MinHash). This is the API the examples and the
// Table-4 harness use; the algorithm templates in brute_force.h /
// hyrec.h / nndescent.h / banded_lsh.h remain available for custom
// providers.
//
// The instrumented entry point takes an obs::PipelineContext: the
// builder then runs preparation and construction under "knn.prepare" /
// "knn.build" spans, publishes the build statistics into the context's
// registry (knn/stats.h names) and re-derives the returned
// KnnBuildStats from the registry — the registry is the source of
// truth. The ThreadPool* overload is the uninstrumented path (a null
// context; zero observability cost).

#ifndef GF_KNN_BUILDER_H_
#define GF_KNN_BUILDER_H_

#include <cstdint>
#include <string_view>

#include "common/result.h"
#include "common/thread_pool.h"
#include "core/fingerprinter.h"
#include "dataset/dataset.h"
#include "knn/graph.h"
#include "knn/banded_lsh.h"
#include "knn/bisection.h"
#include "knn/checkpoint.h"
#include "knn/cluster_conquer.h"
#include "knn/greedy_config.h"
#include "knn/stats.h"
#include "minhash/bbit_minhash.h"
#include "obs/pipeline_context.h"

namespace gf {

/// The four KNN graph construction algorithms of the paper (§3.2),
/// plus the related-work/extension algorithms (§6): KIFF, banded
/// MinHash LSH, recursive bisection, and fingerprint-clustered
/// Cluster-and-Conquer (knn/cluster_conquer.h).
enum class KnnAlgorithm {
  kBruteForce,
  kHyrec,
  kNNDescent,
  kLsh,
  kKiff,
  kBandedLsh,
  kBisection,
  kClusterConquer,
};

/// How pair similarities are evaluated.
enum class SimilarityMode {
  kNative,       // exact Jaccard on raw profiles
  kGoldFinger,   // SHF-estimated Jaccard (the paper's contribution)
  kBbitMinHash,  // b-bit minwise sketches (comparator, §3.2.1)
};

/// Which set similarity plays fsim (§2.1 admits any
/// intersection-driven similarity; the paper evaluates Jaccard).
enum class SimilarityMetric {
  kJaccard,
  kCosine,
};

std::string_view KnnAlgorithmName(KnnAlgorithm algorithm);
std::string_view SimilarityModeName(SimilarityMode mode);
std::string_view SimilarityMetricName(SimilarityMetric metric);

/// Whether the algorithm's construction checkpoints and resumes
/// (derived from the builder's dispatch table, the single place that
/// knows).
bool SupportsCheckpointing(KnnAlgorithm algorithm);

/// Full pipeline configuration. `greedy.k` is the neighborhood size for
/// every algorithm (lsh.k is kept in sync by the builder).
struct KnnPipelineConfig {
  KnnAlgorithm algorithm = KnnAlgorithm::kBruteForce;
  SimilarityMode mode = SimilarityMode::kNative;
  /// fsim; cosine is available for native and GoldFinger modes (b-bit
  /// MinHash only estimates Jaccard).
  SimilarityMetric metric = SimilarityMetric::kJaccard;
  GreedyConfig greedy;
  LshConfig lsh;
  BandedLshConfig banded_lsh;
  BisectionConfig bisection;
  ClusterConquerConfig cluster_conquer;
  FingerprintConfig fingerprint;     // GoldFinger mode
  BbitMinHashConfig minhash;         // MinHash mode
  /// Checkpoint/resume policy (knn/checkpoint.h). An empty dir (the
  /// default) disables checkpointing; a non-empty dir is supported for
  /// BruteForce, Hyrec, NNDescent and ClusterConquer and rejected with
  /// InvalidArgument for the other algorithms.
  CheckpointConfig checkpoint;
};

/// The tag BuildKnnGraph hands the resumable builds: a hash of what
/// shapes the graph but is out of their sight — mode, metric and the
/// fingerprint or MinHash config of that mode. Each build mixes in its
/// own config (GreedyTag, ClusterConquerTag) and checks the result on
/// resume, so a resume under another configuration fails with
/// FailedPrecondition instead of mixing builds. k, the user count and
/// the algorithm are checked separately.
uint64_t CheckpointTag(const KnnPipelineConfig& config);

/// Result of a pipeline run. `preparation_seconds` is the cost of
/// building the similarity substrate (fingerprints / signatures; 0 for
/// native), reported separately as in Table 3; `stats.seconds` is the
/// construction time, as in Table 4.
struct KnnResult {
  KnnGraph graph;
  KnnBuildStats stats;
  double preparation_seconds = 0.0;
};

/// Runs the configured pipeline through the observability context: the
/// build uses ctx.pool, opens spans on ctx.tracer and publishes stats /
/// gauges into ctx.metrics (all optional; every sink may be null). The
/// registry is assumed fresh for this build — counters accumulate, so
/// reuse across builds folds their numbers together.
Result<KnnResult> BuildKnnGraph(const Dataset& dataset,
                                const KnnPipelineConfig& config,
                                const obs::PipelineContext& ctx);

/// Uninstrumented convenience overload: a null context with `pool`.
Result<KnnResult> BuildKnnGraph(const Dataset& dataset,
                                const KnnPipelineConfig& config,
                                ThreadPool* pool = nullptr);

}  // namespace gf

#endif  // GF_KNN_BUILDER_H_
