// Shared helpers for the test suite: tiny hand-built datasets with
// known similarity structure, and the reference answers of the serving
// exactness tests.

#ifndef GF_TESTS_TESTING_TEST_UTIL_H_
#define GF_TESTS_TESTING_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <span>
#include <utility>
#include <vector>

#include "core/fingerprint_store.h"
#include "core/shf.h"
#include "dataset/dataset.h"
#include "dataset/synthetic.h"
#include "knn/query.h"

namespace gf::testing {

/// A 4-user dataset over 8 items with hand-computable Jaccard indices:
///   u0 = {0,1,2,3}, u1 = {2,3,4,5}, u2 = {0,1,2,3}, u3 = {6,7}
/// J(u0,u1) = 2/6, J(u0,u2) = 1, J(u0,u3) = 0.
inline Dataset TinyDataset() {
  return Dataset::FromProfiles(
             {{0, 1, 2, 3}, {2, 3, 4, 5}, {0, 1, 2, 3}, {6, 7}}, 8, "tiny")
      .value();
}

/// A deterministic small synthetic dataset for algorithm tests.
inline Dataset SmallSynthetic(std::size_t users = 300, uint64_t seed = 7) {
  SyntheticSpec spec;
  spec.name = "small";
  spec.num_users = users;
  spec.num_items = 500;
  spec.mean_profile_size = 30;
  spec.num_communities = 8;
  spec.seed = seed;
  return GenerateZipfDataset(spec).value();
}

/// The reference answers of the serving exactness tests: per-pair
/// ScanQueryEngine::Query over `store`, one query at a time. It runs
/// neither the tile kernel nor the prune of the batched scan, so it
/// shares only Eq. 4 and the top-k selector with the code under test.
inline std::vector<std::vector<Neighbor>> PerPairScan(
    const FingerprintStore& store, std::span<const Shf> queries,
    std::size_t k) {
  const ScanQueryEngine scan(store);
  std::vector<std::vector<Neighbor>> answers;
  for (const Shf& query : queries) {
    auto answer = scan.Query(query, k);
    EXPECT_TRUE(answer.ok()) << answer.status().message();
    answers.push_back(answer.ok() ? std::move(answer).value()
                                  : std::vector<Neighbor>{});
  }
  return answers;
}

}  // namespace gf::testing

#endif  // GF_TESTS_TESTING_TEST_UTIL_H_
