#include "knn/builder.h"

#include <utility>

#include "common/timer.h"
#include "core/fingerprint_store.h"
#include "knn/brute_force.h"
#include "knn/hyrec.h"
#include "knn/kiff.h"
#include "knn/nndescent.h"
#include "knn/similarity_provider.h"

namespace gf {

std::string_view KnnAlgorithmName(KnnAlgorithm algorithm) {
  switch (algorithm) {
    case KnnAlgorithm::kBruteForce: return "BruteForce";
    case KnnAlgorithm::kHyrec: return "Hyrec";
    case KnnAlgorithm::kNNDescent: return "NNDescent";
    case KnnAlgorithm::kLsh: return "LSH";
    case KnnAlgorithm::kKiff: return "KIFF";
    case KnnAlgorithm::kBandedLsh: return "BandedLSH";
    case KnnAlgorithm::kBisection: return "Bisection";
    case KnnAlgorithm::kClusterConquer: return "ClusterConquer";
  }
  return "unknown";
}

std::string_view SimilarityModeName(SimilarityMode mode) {
  switch (mode) {
    case SimilarityMode::kNative: return "native";
    case SimilarityMode::kGoldFinger: return "GolFi";
    case SimilarityMode::kBbitMinHash: return "MinHash";
  }
  return "unknown";
}

std::string_view SimilarityMetricName(SimilarityMetric metric) {
  switch (metric) {
    case SimilarityMetric::kJaccard: return "jaccard";
    case SimilarityMetric::kCosine: return "cosine";
  }
  return "unknown";
}

namespace {

/// One dispatch row per algorithm: how to run the construction, and
/// whether that run honours CheckpointConfig (the resumable builds
/// checkpoint when config.checkpoint.dir is set). This table is the
/// single place that maps KnnAlgorithm to constructions;
/// SupportsCheckpointing() and RunAlgorithm() both read it, so adding
/// an algorithm is one new row.
template <typename Provider>
struct AlgorithmDispatch {
  using RunFn = Result<KnnGraph> (*)(const Dataset&, const Provider&,
                                     const KnnPipelineConfig&, ThreadPool*,
                                     KnnBuildStats*,
                                     const obs::PipelineContext*);
  KnnAlgorithm algorithm;
  RunFn run;
  bool resumable;
};

template <typename Provider>
constexpr AlgorithmDispatch<Provider> kDispatchTable[] = {
    {KnnAlgorithm::kBruteForce,
     [](const auto&, const auto& provider, const auto& config, auto* pool,
        auto* stats, auto* obs) -> Result<KnnGraph> {
       return BruteForceKnn(provider, config.greedy.k, pool, stats, obs,
                            config.checkpoint, CheckpointTag(config));
     },
     true},
    {KnnAlgorithm::kHyrec,
     [](const auto&, const auto& provider, const auto& config, auto* pool,
        auto* stats, auto* obs) -> Result<KnnGraph> {
       return HyrecKnn(provider, config.greedy, pool, stats, obs,
                       config.checkpoint, CheckpointTag(config));
     },
     true},
    {KnnAlgorithm::kNNDescent,
     [](const auto&, const auto& provider, const auto& config, auto* pool,
        auto* stats, auto* obs) -> Result<KnnGraph> {
       return NNDescentKnn(provider, config.greedy, pool, stats, obs,
                           config.checkpoint, CheckpointTag(config));
     },
     true},
    {KnnAlgorithm::kLsh,
     [](const auto& dataset, const auto& provider, const auto& config,
        auto* pool, auto* stats, auto* obs) -> Result<KnnGraph> {
       BandedLshConfig banded = AsBandedLsh(config.lsh);
       banded.k = config.greedy.k;
       return BandedLshKnn(dataset, provider, banded, pool, stats, obs);
     },
     false},
    {KnnAlgorithm::kKiff,
     [](const auto& dataset, const auto& provider, const auto& config,
        auto* pool, auto* stats, auto* obs) -> Result<KnnGraph> {
       KiffConfig kiff;
       kiff.k = config.greedy.k;
       return KiffKnn(dataset, provider, kiff, pool, stats, obs);
     },
     false},
    {KnnAlgorithm::kBandedLsh,
     [](const auto& dataset, const auto& provider, const auto& config,
        auto* pool, auto* stats, auto* obs) -> Result<KnnGraph> {
       BandedLshConfig banded = config.banded_lsh;
       banded.k = config.greedy.k;
       return BandedLshKnn(dataset, provider, banded, pool, stats, obs);
     },
     false},
    {KnnAlgorithm::kBisection,
     [](const auto&, const auto& provider, const auto& config, auto*,
        auto* stats, auto* obs) -> Result<KnnGraph> {
       BisectionConfig bisection = config.bisection;
       bisection.k = config.greedy.k;
       return RecursiveBisectionKnn(provider, bisection, stats, obs);
     },
     false},
    {KnnAlgorithm::kClusterConquer,
     [](const auto& dataset, const auto& provider, const auto& config,
        auto* pool, auto* stats, auto* obs) -> Result<KnnGraph> {
       return ClusterConquerKnn(dataset, provider, config.cluster_conquer,
                                config.greedy, pool, stats, obs,
                                config.checkpoint, CheckpointTag(config));
     },
     true},
};

template <typename Provider>
Result<KnnGraph> RunAlgorithm(const Dataset& dataset,
                              const Provider& provider,
                              const KnnPipelineConfig& config,
                              ThreadPool* pool, KnnBuildStats* stats,
                              const obs::PipelineContext* obs) {
  for (const auto& row : kDispatchTable<Provider>) {
    if (row.algorithm == config.algorithm) {
      return row.run(dataset, provider, config, pool, stats, obs);
    }
  }
  return Status::InvalidArgument("unknown KNN algorithm");
}

/// Constructs the similarity substrate for config.mode/metric and calls
/// `fn(provider)` with the substrate still alive — the one place the
/// five mode x metric provider combinations are spelled out.
/// Preparation (fingerprints / signatures) runs under a "knn.prepare"
/// span and its wall time lands in *preparation_seconds.
template <typename Fn>
Status VisitProvider(const Dataset& dataset, const KnnPipelineConfig& config,
                     ThreadPool* pool, const obs::PipelineContext* obs,
                     double* preparation_seconds, Fn&& fn) {
  switch (config.mode) {
    case SimilarityMode::kNative: {
      if (config.metric == SimilarityMetric::kCosine) {
        return fn(CosineProvider(dataset));
      }
      return fn(ExactJaccardProvider(dataset));
    }
    case SimilarityMode::kGoldFinger: {
      WallTimer prep;
      Result<FingerprintStore> store = [&] {
        obs::ScopedPhase phase(obs, "knn.prepare", "knn.prepare_seconds");
        return FingerprintStore::Build(dataset, config.fingerprint, pool,
                                       obs);
      }();
      if (!store.ok()) return store.status();
      *preparation_seconds = prep.ElapsedSeconds();
      if (config.metric == SimilarityMetric::kCosine) {
        return fn(GoldFingerCosineProvider(store.value()));
      }
      return fn(GoldFingerProvider(store.value()));
    }
    case SimilarityMode::kBbitMinHash: {
      if (config.metric == SimilarityMetric::kCosine) {
        return Status::InvalidArgument(
            "b-bit MinHash only estimates Jaccard; use native or "
            "GoldFinger mode for cosine");
      }
      WallTimer prep;
      Result<BbitMinHashStore> store = [&] {
        obs::ScopedPhase phase(obs, "knn.prepare", "knn.prepare_seconds");
        return BbitMinHashStore::Build(dataset, config.minhash, pool);
      }();
      if (!store.ok()) return store.status();
      *preparation_seconds = prep.ElapsedSeconds();
      return fn(BbitMinHashProvider(store.value()));
    }
  }
  return Status::InvalidArgument("unknown similarity mode");
}

Status ValidateConfig(const Dataset& dataset,
                      const KnnPipelineConfig& config) {
  if (config.greedy.k == 0) {
    return Status::InvalidArgument("neighborhood size k must be >= 1");
  }
  if (dataset.NumUsers() == 0) {
    return Status::InvalidArgument("dataset has no users");
  }
  const bool greedy =
      config.algorithm == KnnAlgorithm::kHyrec ||
      config.algorithm == KnnAlgorithm::kNNDescent ||
      (config.algorithm == KnnAlgorithm::kClusterConquer &&
       config.cluster_conquer.inner == ClusterConquerInner::kHyrec);
  if (greedy) {
    if (config.greedy.max_iterations == 0) {
      return Status::InvalidArgument("max_iterations must be >= 1");
    }
    if (config.greedy.sample_rate <= 0.0) {
      return Status::InvalidArgument("sample_rate must be positive");
    }
  }
  if (config.algorithm == KnnAlgorithm::kLsh &&
      config.lsh.num_functions == 0) {
    return Status::InvalidArgument("LSH needs >= 1 hash function");
  }
  if (config.algorithm == KnnAlgorithm::kBandedLsh &&
      (config.banded_lsh.bands == 0 || config.banded_lsh.rows == 0)) {
    return Status::InvalidArgument("banded LSH needs bands, rows >= 1");
  }
  if (config.algorithm == KnnAlgorithm::kBisection) {
    if (config.bisection.leaf_size == 0) {
      return Status::InvalidArgument("bisection leaf_size must be >= 1");
    }
    if (config.bisection.overlap < 0.0 || config.bisection.overlap >= 1.0) {
      return Status::InvalidArgument("bisection overlap must be in [0, 1)");
    }
  }
  if (config.algorithm == KnnAlgorithm::kClusterConquer) {
    GF_RETURN_IF_ERROR(ValidateClusterConquerConfig(config.cluster_conquer));
  }
  if (!config.checkpoint.dir.empty() &&
      !SupportsCheckpointing(config.algorithm)) {
    return Status::InvalidArgument(
        "checkpointing is only supported for BruteForce, Hyrec, NNDescent "
        "and ClusterConquer");
  }
  return Status::OK();
}

}  // namespace

bool SupportsCheckpointing(KnnAlgorithm algorithm) {
  // The flags are identical across provider instantiations; any one of
  // them answers the question.
  for (const auto& row : kDispatchTable<ExactJaccardProvider>) {
    if (row.algorithm == algorithm) return row.resumable;
  }
  return false;
}

uint64_t CheckpointTag(const KnnPipelineConfig& config) {
  uint64_t tag = MixTag(0xC4EC4901A7ULL,
                        {static_cast<uint64_t>(config.mode),
                         static_cast<uint64_t>(config.metric)});
  if (config.mode == SimilarityMode::kGoldFinger) {
    const FingerprintConfig& f = config.fingerprint;
    tag = MixTag(tag, {f.num_bits, static_cast<uint64_t>(f.hash), f.seed,
                       f.hashes_per_item});
  }
  if (config.mode == SimilarityMode::kBbitMinHash) {
    const BbitMinHashConfig& m = config.minhash;
    tag = MixTag(tag, {m.num_permutations, m.bits_per_hash,
                       static_cast<uint64_t>(m.kind), m.seed});
  }
  return tag;
}

Result<KnnResult> BuildKnnGraph(const Dataset& dataset,
                                const KnnPipelineConfig& config,
                                const obs::PipelineContext& ctx) {
  GF_RETURN_IF_ERROR(ValidateConfig(dataset, config));

  const obs::PipelineContext* obs = &ctx;
  ThreadPool* pool = ctx.pool;
  WallTimer total;
  KnnResult result;
  GF_RETURN_IF_ERROR(VisitProvider(
      dataset, config, pool, obs, &result.preparation_seconds,
      [&](const auto& provider) -> Status {
        obs::ScopedPhase phase(obs, "knn.build");
        Result<KnnGraph> graph = RunAlgorithm(dataset, provider, config,
                                              pool, &result.stats, obs);
        if (!graph.ok()) return graph.status();
        result.graph = std::move(graph).value();
        return Status::OK();
      }));

  if (ctx.HasMetrics()) {
    // Publish, then re-derive: the registry is the source of truth for
    // what the instrumented pipeline reports.
    PublishBuildStats(ctx.metrics, result.stats);
    result.stats = BuildStatsFromRegistry(*ctx.metrics);
    if (pool != nullptr) {
      const double threads = static_cast<double>(pool->num_threads());
      const double elapsed_us = total.ElapsedSeconds() * 1e6;
      ctx.SetGauge("pool.threads", threads);
      ctx.SetGauge("pool.tasks_executed",
                   static_cast<double>(pool->tasks_executed()));
      const double denom = threads * elapsed_us;
      ctx.SetGauge("pool.utilization",
                   denom > 0.0
                       ? static_cast<double>(pool->busy_micros()) / denom
                       : 0.0);
    }
  }
  return result;
}

Result<KnnResult> BuildKnnGraph(const Dataset& dataset,
                                const KnnPipelineConfig& config,
                                ThreadPool* pool) {
  obs::PipelineContext ctx;
  ctx.pool = pool;
  return BuildKnnGraph(dataset, config, ctx);
}

}  // namespace gf
