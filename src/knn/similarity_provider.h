// Similarity providers: the pluggable scoring functions the KNN
// algorithms are generic over. "Native" providers score raw profiles;
// the GoldFinger provider scores fingerprints (the paper's headline
// swap); the MinHash provider scores b-bit signatures. A counting
// wrapper tallies how many pair similarities an algorithm computed
// (the scan rate of Figure 12).
//
// A provider P must expose:
//   std::size_t num_users() const;
//   double operator()(UserId a, UserId b) const;
// and may additionally expose a batch interface of
// knn/provider_concepts.h; the fingerprint providers do, routing
// through FingerprintStore's SIMD-dispatched gather kernel, and the KNN
// algorithms then score candidate batches in one call instead of one
// pair at a time. The Jaccard one exposes the integer counts behind its
// scores (CountBatch / Cardinality), the cosine one ScoreBatch.

#ifndef GF_KNN_SIMILARITY_PROVIDER_H_
#define GF_KNN_SIMILARITY_PROVIDER_H_

#include <cstddef>
#include <cstdint>
#include <span>

#include "core/fingerprint_store.h"
#include "obs/metrics.h"
#include "core/similarity.h"
#include "dataset/dataset.h"
#include "knn/provider_concepts.h"
#include "minhash/bbit_minhash.h"

namespace gf {

/// Exact Jaccard on raw profiles — the paper's "native" mode.
class ExactJaccardProvider {
 public:
  explicit ExactJaccardProvider(const Dataset& dataset)
      : dataset_(&dataset) {}

  std::size_t num_users() const { return dataset_->NumUsers(); }
  double operator()(UserId a, UserId b) const {
    return ExactJaccard(dataset_->Profile(a), dataset_->Profile(b));
  }

 private:
  const Dataset* dataset_;
};

/// Binary cosine on raw profiles (alternative fsim, §2.1).
class CosineProvider {
 public:
  explicit CosineProvider(const Dataset& dataset) : dataset_(&dataset) {}

  std::size_t num_users() const { return dataset_->NumUsers(); }
  double operator()(UserId a, UserId b) const {
    return BinaryCosine(dataset_->Profile(a), dataset_->Profile(b));
  }

 private:
  const Dataset* dataset_;
};

/// SHF-estimated Jaccard — GoldFinger mode.
class GoldFingerProvider {
 public:
  explicit GoldFingerProvider(const FingerprintStore& store)
      : store_(&store) {}

  std::size_t num_users() const { return store_->num_users(); }
  double operator()(UserId a, UserId b) const {
    return store_->EstimateJaccard(a, b);
  }
  void CountBatch(UserId u, std::span<const UserId> candidates,
                  std::span<uint32_t> counts) const {
    store_->CountBatch(u, candidates, counts);
  }
  uint32_t Cardinality(UserId u) const { return store_->CardinalityOf(u); }

 private:
  const FingerprintStore* store_;
};

/// SHF-estimated binary cosine — GoldFinger with the alternative fsim.
class GoldFingerCosineProvider {
 public:
  explicit GoldFingerCosineProvider(const FingerprintStore& store)
      : store_(&store) {}

  std::size_t num_users() const { return store_->num_users(); }
  double operator()(UserId a, UserId b) const {
    return store_->EstimateCosine(a, b);
  }
  void ScoreBatch(UserId u, std::span<const UserId> candidates,
                  std::span<double> out) const {
    store_->EstimateCosineBatch(u, candidates, out);
  }

 private:
  const FingerprintStore* store_;
};

/// b-bit-minwise-estimated Jaccard.
class BbitMinHashProvider {
 public:
  explicit BbitMinHashProvider(const BbitMinHashStore& store)
      : store_(&store) {}

  std::size_t num_users() const { return store_->num_users(); }
  double operator()(UserId a, UserId b) const {
    return store_->EstimateJaccard(a, b);
  }

 private:
  const BbitMinHashStore* store_;
};

/// Wraps a provider and counts invocations (thread-safe). The tally is
/// an obs::Counter — the registry's counter when one is injected (the
/// instrumented pipeline wires "knn.provider_calls"), a private counter
/// of the same type otherwise — so Figure-12 benches and tests keep the
/// count()/Reset() surface while the metrics layer stays the single
/// counting implementation.
template <typename Provider>
class CountingProvider {
 public:
  /// Counts into `counter` when non-null, else into an internal counter.
  explicit CountingProvider(const Provider& inner,
                            obs::Counter* counter = nullptr)
      : inner_(&inner),
        count_(counter != nullptr ? counter : &owned_count_) {}

  std::size_t num_users() const { return inner_->num_users(); }
  double operator()(UserId a, UserId b) const {
    count_->Add(1);
    return (*inner_)(a, b);
  }

  // The batch and count interfaces are forwarded (and counted per
  // pair) only when the wrapped provider has them, so wrapping never
  // changes which path the KNN algorithms take.
  void ScoreBatch(UserId u, std::span<const UserId> candidates,
                  std::span<double> out) const
    requires BatchSimilarityProvider<Provider>
  {
    count_->Add(candidates.size());
    inner_->ScoreBatch(u, candidates, out);
  }
  void CountBatch(UserId u, std::span<const UserId> candidates,
                  std::span<uint32_t> counts) const
    requires IntersectionCountProvider<Provider>
  {
    count_->Add(candidates.size());
    inner_->CountBatch(u, candidates, counts);
  }
  uint32_t Cardinality(UserId u) const
    requires IntersectionCountProvider<Provider>
  {
    return inner_->Cardinality(u);
  }

  uint64_t count() const { return count_->value(); }
  void Reset() { count_->Reset(); }

 private:
  const Provider* inner_;
  mutable obs::Counter owned_count_;
  obs::Counter* count_;
};

}  // namespace gf

#endif  // GF_KNN_SIMILARITY_PROVIDER_H_
