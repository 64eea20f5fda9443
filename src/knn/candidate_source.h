// CandidateSource — the L2 of the serving cache hierarchy (DESIGN.md
// §17). The exhaustive scan touches every stored fingerprint; the
// banded LSH index touches every colliding bucket. Both are instances
// of the same two-phase shape: GATHER candidate user ids, then rescore
// them exactly (w.r.t. the Eq. 4 estimator) with the batched kernel
// and top-k select. This header names the gather phase as a seam so
// the serving path can stack generators by cost:
//
//   * BandedCandidateSource    — the existing banded-LSH gather
//                                (BandedShfQueryEngine) behind the seam.
//   * GraphNeighborsSource     — graph locality (Cluster-and-Conquer's
//                                observation, PAPERS.md): find the
//                                nearest PREVIOUSLY ANSWERED query in a
//                                bounded recent-answers table, seed from
//                                its cached result, and expand each seed
//                                with its KNN-graph neighbors — a
//                                neighbor's neighbors are excellent
//                                candidates for a nearby query. Seeds
//                                come only from an answer estimated at
//                                least 0.05 similar to the query, and at
//                                most its first 16 ids are expanded
//                                (constants in candidate_source.cc).
//   * PopularityCandidateSource — highest-cardinality users as a
//                                fallback so no query goes unanswered
//                                (fresh caches, zero-collision bands).
//
// Sources only propose ids; CandidateQueryEngine dedups the union and
// rescores every candidate with the exact estimator, so a bad source
// costs recall and cycles, never a wrong score or ranking over the
// candidates actually gathered.

#ifndef GF_KNN_CANDIDATE_SOURCE_H_
#define GF_KNN_CANDIDATE_SOURCE_H_

#include <cstddef>
#include <memory>
#include <mutex>
#include <span>
#include <string_view>
#include <vector>

#include "common/thread_pool.h"
#include "core/fingerprint_store.h"
#include "knn/graph.h"
#include "knn/query.h"
#include "obs/pipeline_context.h"

namespace gf {

/// One candidate generator: appends proposed user ids for a query.
/// Duplicates across (and within) sources are allowed — the engine
/// dedups before rescoring. Implementations must be safe for
/// concurrent Collect calls.
class CandidateSource {
 public:
  virtual ~CandidateSource() = default;
  virtual std::string_view name() const = 0;
  /// Appends candidates for `query` to `out`; `k` is the requested
  /// neighbor count (sources may use it to size their contribution).
  virtual void Collect(const Shf& query, std::size_t k,
                       std::vector<UserId>* out) const = 0;
};

/// The banded-LSH gather behind the seam. The engine must outlive the
/// source.
class BandedCandidateSource final : public CandidateSource {
 public:
  explicit BandedCandidateSource(const BandedShfQueryEngine* engine)
      : engine_(engine) {}
  std::string_view name() const override { return "banded"; }
  void Collect(const Shf& query, std::size_t k,
               std::vector<UserId>* out) const override {
    (void)k;
    engine_->CollectBandCandidates(query, out);
  }

 private:
  const BandedShfQueryEngine* engine_;
};

/// Bounded ring of recently answered queries: the seed table of
/// GraphNeighborsSource. Thread-safe; shared across epochs (its seeds
/// are only candidate PROPOSALS — every candidate is rescored against
/// the pinned epoch, so stale seeds cost recall, never correctness).
class RecentAnswers {
 public:
  explicit RecentAnswers(std::size_t capacity);

  /// Remembers (query, answered ids); the oldest entry falls off.
  void Record(const Shf& query, std::span<const Neighbor> result);

  /// The result ids of the recorded query nearest to `query` under
  /// Eq. 4 between the two query SHFs. Empty when nothing is recorded,
  /// bit lengths differ, or the best similarity < `min_similarity`.
  std::vector<UserId> NearestSeeds(const Shf& query,
                                   double min_similarity) const;

  std::size_t size() const;

 private:
  struct Entry {
    std::size_t num_bits = 0;
    uint32_t cardinality = 0;
    std::vector<uint64_t> words;
    std::vector<UserId> ids;
  };

  mutable std::mutex mu_;
  std::size_t capacity_;
  std::size_t next_ = 0;     // ring write position
  std::vector<Entry> ring_;  // grows to capacity_, then wraps
};

/// Graph-locality candidates: seeds from the nearest previously
/// answered query, expanded one hop through the epoch's KNN graph.
class GraphNeighborsSource final : public CandidateSource {
 public:
  /// `recent` must outlive the source; `graph` (the epoch's published
  /// KNN graph) may be nullptr — seeds then go in unexpanded. Ids are
  /// bounded by `num_users` (a seed recorded under an older, larger
  /// epoch must not index past the pinned store).
  GraphNeighborsSource(const RecentAnswers* recent,
                       std::shared_ptr<const KnnGraph> graph,
                       std::size_t num_users);

  std::string_view name() const override { return "graph"; }
  void Collect(const Shf& query, std::size_t k,
               std::vector<UserId>* out) const override;

 private:
  const RecentAnswers* recent_;
  std::shared_ptr<const KnnGraph> graph_;
  std::size_t num_users_;
};

/// Fallback: the `count` highest-cardinality stored users (ties toward
/// the smaller id), precomputed at construction. Cardinality is the
/// paper's profile-size estimate (Eq. 5), so these are the heaviest
/// profiles — the users most likely to intersect an arbitrary query.
class PopularityCandidateSource final : public CandidateSource {
 public:
  PopularityCandidateSource(const FingerprintStore& store, std::size_t count);

  std::string_view name() const override { return "popularity"; }
  void Collect(const Shf& query, std::size_t k,
               std::vector<UserId>* out) const override;

  std::span<const UserId> popular() const { return popular_; }

 private:
  std::vector<UserId> popular_;
};

/// Composes an ordered stack of sources into a query engine: gather
/// (stopping once `min_candidates` distinct ids are in hand — later
/// sources are fallbacks, consulted only when the earlier ones came up
/// short), batched Eq. 4 rescore, top-k select. Per-source
/// contributions are exported as `candidates.<source name>` counters.
class CandidateQueryEngine {
 public:
  struct Options {
    /// Stop consulting further sources once this many distinct
    /// candidates are gathered.
    std::size_t min_candidates = 64;
  };

  /// `store`, the sources, `pool` and `obs` must outlive the engine.
  CandidateQueryEngine(const FingerprintStore* store,
                       std::vector<const CandidateSource*> sources,
                       Options options, ThreadPool* pool = nullptr,
                       const obs::PipelineContext* obs = nullptr);

  /// Top-k among the gathered candidates. May return fewer than k
  /// (even zero) when the sources propose few candidates — candidate
  /// serving is approximate by design; the exhaustive scan is the
  /// exact path.
  Result<std::vector<Neighbor>> Query(const Shf& query, std::size_t k) const;

  /// Batched Query, parallel across queries when the engine holds a
  /// pool. result[i] is bit-exact with Query(queries[i], k).
  Result<std::vector<std::vector<Neighbor>>> QueryBatch(
      std::span<const Shf> queries, std::size_t k) const;

 private:
  // The gather phase: the sources in order, deduplicated.
  void Gather(const Shf& query, std::size_t k,
              std::vector<UserId>* candidates) const;

  const FingerprintStore* store_;
  std::vector<const CandidateSource*> sources_;
  Options options_;
  std::vector<obs::Counter*> source_counters_;  // parallel to sources_
  CandidateRescorer rescorer_;
};

}  // namespace gf

#endif  // GF_KNN_CANDIDATE_SOURCE_H_
