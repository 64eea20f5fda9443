// Banded MinHash LSH — the classical (bands x rows) amplification
// construction (Indyk-Motwani / Leskovec-Rajaraman-Ullman). Each
// user's MinHash signature of bands*rows values is cut into `bands`
// bands of `rows` values; a band's tuple is one bucket key, and two
// users become candidates when ANY band collides. The collision
// probability is the S-curve 1 - (1 - J^rows)^bands, so rows sharpens
// precision and bands boosts recall. A user's candidates are merged in
// a CandidateSet (knn/candidate_set.h) and offered to the user's row in
// ascending id order through OfferCandidates (knn/graph.h), which keeps
// its best k.
//
// The paper's single-value LSH (Indyk & Motwani; §3.2.5) is the
// rows = 1 case: one bucket table per min-wise function (LshConfig,
// AsBandedLsh). Murmur3Hash64(key, seed) is a bijection of key, so a
// one-row band key cuts users into exactly the buckets of the raw
// MinRank value.
//
// Bucketing always runs on the raw profiles — also in GoldFinger mode —
// which is why the paper observes limited GoldFinger gains for LSH on
// sparse datasets (bucket creation, proportional to |I|, dominates).

#ifndef GF_KNN_BANDED_LSH_H_
#define GF_KNN_BANDED_LSH_H_

#include <atomic>
#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/thread_pool.h"
#include "common/timer.h"
#include "dataset/dataset.h"
#include "hash/murmur3.h"
#include "knn/candidate_set.h"
#include "knn/graph.h"
#include "knn/stats.h"
#include "minhash/permutation.h"
#include "obs/pipeline_context.h"

namespace gf {

struct BandedLshConfig {
  std::size_t k = 30;
  std::size_t bands = 8;
  std::size_t rows = 2;  // min-wise values per band
  MinwiseKind kind = MinwiseKind::kUniversalHash;
  uint64_t seed = 0xBA2D;
};

/// The paper's LSH parameters: 10 hash functions (§3.3).
struct LshConfig {
  std::size_t k = 30;
  std::size_t num_functions = 10;
  MinwiseKind kind = MinwiseKind::kExplicitPermutation;
  uint64_t seed = 0x15A;
};

/// Single-value LSH as banded LSH: one band of one row per function.
inline BandedLshConfig AsBandedLsh(const LshConfig& lsh) {
  return {.k = lsh.k, .bands = lsh.num_functions, .rows = 1,
          .kind = lsh.kind, .seed = lsh.seed};
}

/// Theoretical candidate probability of the construction at true
/// Jaccard `j`: 1 - (1 - j^rows)^bands.
inline double BandedLshCollisionProbability(double j,
                                            const BandedLshConfig& config) {
  return 1.0 -
         std::pow(1.0 - std::pow(j, static_cast<double>(config.rows)),
                  static_cast<double>(config.bands));
}

template <typename Provider>
KnnGraph BandedLshKnn(const Dataset& dataset, const Provider& provider,
                      const BandedLshConfig& config,
                      ThreadPool* pool = nullptr,
                      KnnBuildStats* stats = nullptr,
                      const obs::PipelineContext* obs = nullptr) {
  WallTimer timer;
  const std::size_t n = dataset.NumUsers();
  const std::size_t total_fns = config.bands * config.rows;
  NeighborLists lists(n, config.k);
  std::atomic<uint64_t> computations{0};

  // Band keys: function f = band * rows + r chains its min-wise value
  // into the key of band f / rows as it is drawn, so no n x (bands *
  // rows) signature matrix is kept.
  Rng rng(config.seed);
  std::vector<std::unordered_map<uint64_t, std::vector<UserId>>> tables(
      config.bands);
  std::vector<uint64_t> keys(n * config.bands);
  {
    obs::ScopedPhase sig_phase(obs, "bandedlsh.signatures");
    for (std::size_t f = 0; f < total_fns; ++f) {
      const MinwiseFunction fn =
          config.kind == MinwiseKind::kExplicitPermutation
              ? MinwiseFunction::Permutation(dataset.NumItems(), rng)
              : MinwiseFunction::Universal(dataset.NumItems(), rng);
      const std::size_t band = f / config.rows;
      const bool first_row = f % config.rows == 0;
      ParallelFor(pool, n, [&](std::size_t begin, std::size_t end) {
        for (std::size_t u = begin; u < end; ++u) {
          uint64_t& key = keys[u * config.bands + band];
          key = hash::Murmur3Hash64(
              fn.MinRank(dataset.Profile(static_cast<UserId>(u))),
              first_row ? 0x9E3779B97F4A7C15ULL + band : key);
        }
      });
    }
    for (std::size_t band = 0; band < config.bands; ++band) {
      for (UserId u = 0; u < n; ++u) {
        if (dataset.ProfileSize(u) == 0) continue;
        tables[band][keys[static_cast<std::size_t>(u) * config.bands + band]]
            .push_back(u);
      }
    }
  }

  obs::ScopedPhase scoring(obs, "bandedlsh.scoring");
  obs::Histogram* candidate_sizes = obs::HistogramOrNull(
      obs, "bandedlsh.candidate_set_size", obs::kSizeBucketBoundaries);
  ParallelFor(pool, n, [&](std::size_t begin, std::size_t end) {
    CandidateSet marked(n);
    std::vector<UserId> candidates;
    OfferScratch scratch;
    for (std::size_t uu = begin; uu < end; ++uu) {
      const auto u = static_cast<UserId>(uu);
      if (dataset.ProfileSize(u) == 0) continue;
      for (std::size_t band = 0; band < config.bands; ++band) {
        const auto it = tables[band].find(keys[uu * config.bands + band]);
        if (it == tables[band].end()) continue;
        for (UserId v : it->second) marked.Insert(v);
      }
      marked.Erase(u);
      candidates.clear();
      marked.Drain(candidates);
      if (candidate_sizes != nullptr) {
        candidate_sizes->Observe(static_cast<double>(candidates.size()));
      }
      OfferCandidates(provider, u, candidates, lists, scratch);
      computations.fetch_add(candidates.size(), std::memory_order_relaxed);
    }
  });

  KnnGraph graph = lists.Finalize(pool);
  RecordBuildStats(stats, timer, computations.load(), 1);
  return graph;
}

}  // namespace gf

#endif  // GF_KNN_BANDED_LSH_H_
