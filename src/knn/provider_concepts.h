// Optional batch-scoring interfaces a similarity provider may expose on
// top of the required per-pair `double operator()(UserId, UserId)`:
//
//   void ScoreBatch(UserId u, std::span<const UserId> candidates,
//                   std::span<double> out) const;
//       out[i] = sim(u, candidates[i]) for any candidate list.
//
//   void CountBatch(UserId u, std::span<const UserId> candidates,
//                   std::span<uint32_t> counts) const;
//   uint32_t Cardinality(UserId u) const;
//       Eq. 4's integer parts, for providers whose similarity is
//       JaccardFromCounts(Cardinality(u), Cardinality(v), count):
//       counts[i] = |u ∩ candidates[i]|. OfferCandidates (knn/graph.h)
//       skips the division for pairs that cannot enter a row.
//
// All must be bit-exact with the per-pair operator: the KNN algorithms
// pick the path purely by `if constexpr` on these concepts —
// OfferCandidates on IntersectionCountProvider, ScoreCandidates below
// on BatchSimilarityProvider — and the produced graphs must not depend
// on which path ran. Kept in this small header (not
// similarity_provider.h) so the algorithm headers can test for the
// interface without pulling in every provider's dependencies.

#ifndef GF_KNN_PROVIDER_CONCEPTS_H_
#define GF_KNN_PROVIDER_CONCEPTS_H_

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <span>

#include "dataset/types.h"

namespace gf {

/// Provider with batched scoring of an arbitrary candidate id list.
template <typename P>
concept BatchSimilarityProvider =
    requires(const P& p, UserId u, std::span<const UserId> candidates,
             std::span<double> out) {
      p.ScoreBatch(u, candidates, out);
    };

/// Provider exposing Eq. 4's integer parts (see the file comment).
template <typename P>
concept IntersectionCountProvider =
    requires(const P& p, UserId u, std::span<const UserId> candidates,
             std::span<uint32_t> counts) {
      p.CountBatch(u, candidates, counts);
      { p.Cardinality(u) } -> std::same_as<uint32_t>;
    };

/// out[i] = sim(u, candidates[i]): one ScoreBatch call when the
/// provider has one, else one per-pair call per candidate.
template <typename Provider>
void ScoreCandidates(const Provider& provider, UserId u,
                     std::span<const UserId> candidates,
                     std::span<double> out) {
  if constexpr (BatchSimilarityProvider<Provider>) {
    provider.ScoreBatch(u, candidates, out);
  } else {
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      out[i] = provider(u, candidates[i]);
    }
  }
}

}  // namespace gf

#endif  // GF_KNN_PROVIDER_CONCEPTS_H_
