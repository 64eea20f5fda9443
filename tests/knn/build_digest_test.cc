// Pins the exact output of every construction the builder dispatches
// to: a 64-bit FNV-1a digest of the serialized graph (ids and float
// bits of every row), plus the similarity-computation and iteration
// counts. Any change to a construction's loop, its seeding or its
// candidate order shows up here, so a refactor that claims "same
// behaviour" has to keep these numbers.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>

#include "common/thread_pool.h"
#include "core/fingerprint_store.h"
#include "io/serialization.h"
#include "knn/brute_force.h"
#include "knn/builder.h"
#include "knn/incremental.h"
#include "knn/similarity_provider.h"
#include "testing/test_util.h"

namespace gf {
namespace {

uint64_t Fnv1a64(std::string_view bytes) {
  uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

struct Pinned {
  uint64_t digest;
  uint64_t similarity_computations;
  uint64_t iterations;
};

void ExpectPinned(const KnnPipelineConfig& config, const Pinned& want,
                  const std::string& label, ThreadPool* pool = nullptr) {
  const Dataset d = testing::SmallSynthetic(240);
  auto result = BuildKnnGraph(d, config, pool);
  ASSERT_TRUE(result.ok()) << label << ": " << result.status().ToString();
  const uint64_t digest = Fnv1a64(io::SerializeKnnGraph(result->graph));
  EXPECT_EQ(digest, want.digest)
      << label << " built {0x" << std::hex << digest << std::dec << ", "
      << result->stats.similarity_computations << ", "
      << result->stats.iterations << "}";
  EXPECT_EQ(result->stats.similarity_computations,
            want.similarity_computations)
      << label;
  EXPECT_EQ(result->stats.iterations, want.iterations) << label;
}

KnnPipelineConfig Base(KnnAlgorithm algorithm) {
  KnnPipelineConfig config;
  config.algorithm = algorithm;
  config.greedy.k = 8;
  config.greedy.max_iterations = 12;
  config.greedy.seed = 0xD16E57;
  config.cluster_conquer.num_clusters = 6;
  config.cluster_conquer.assignments = 2;
  config.cluster_conquer.sketch_bits = 128;
  config.cluster_conquer.band_bits = 8;
  config.fingerprint.num_bits = 512;
  return config;
}

TEST(BuildDigestTest, BruteForce) {
  ExpectPinned(Base(KnnAlgorithm::kBruteForce),
               {0x1999c93935b5489fULL, 57360, 1}, "bruteforce");
}

TEST(BuildDigestTest, Hyrec) {
  ExpectPinned(Base(KnnAlgorithm::kHyrec), {0x6debf5f5edf1cc9eULL, 29378, 6},
               "hyrec");
  KnnPipelineConfig golfi = Base(KnnAlgorithm::kHyrec);
  golfi.mode = SimilarityMode::kGoldFinger;
  ExpectPinned(golfi, {0x1adbe0b518ee1937ULL, 30283, 6}, "hyrec golfi");
}

// Hyrec writes only its own rows against a per-iteration snapshot, so a
// pool of any size reproduces the sequential pins above.
TEST(BuildDigestTest, HyrecOnPools) {
  for (const std::size_t threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    const std::string label = " on " + std::to_string(threads) + " threads";
    ExpectPinned(Base(KnnAlgorithm::kHyrec),
                 {0x6debf5f5edf1cc9eULL, 29378, 6}, "hyrec" + label, &pool);
    KnnPipelineConfig golfi = Base(KnnAlgorithm::kHyrec);
    golfi.mode = SimilarityMode::kGoldFinger;
    ExpectPinned(golfi, {0x1adbe0b518ee1937ULL, 30283, 6},
                 "hyrec golfi" + label, &pool);
  }
}

TEST(BuildDigestTest, NNDescent) {
  ExpectPinned(Base(KnnAlgorithm::kNNDescent),
               {0x50bcf779b2e3e0b9ULL, 47519, 4}, "nndescent");
}

KnnPipelineConfig GoldFinger(KnnPipelineConfig config) {
  config.mode = SimilarityMode::kGoldFinger;
  return config;
}

TEST(BuildDigestTest, GoldFingerNNDescent) {
  ExpectPinned(GoldFinger(Base(KnnAlgorithm::kNNDescent)),
               {0x31e191664ef3c4e1ULL, 48051, 5}, "nndescent golfi");
}

// NNDescent's joins score against the rows as a block starts and each
// row is written by one task, in the sequential order, so a pool of any
// size reproduces the sequential pins above.
TEST(BuildDigestTest, NNDescentOnPools) {
  for (const std::size_t threads : {2, 3, 4, 8}) {
    ThreadPool pool(threads);
    const std::string label = " on " + std::to_string(threads) + " threads";
    ExpectPinned(Base(KnnAlgorithm::kNNDescent),
                 {0x50bcf779b2e3e0b9ULL, 47519, 4}, "nndescent" + label,
                 &pool);
    ExpectPinned(GoldFinger(Base(KnnAlgorithm::kNNDescent)),
                 {0x31e191664ef3c4e1ULL, 48051, 5}, "nndescent golfi" + label,
                 &pool);
  }
}

KnnPipelineConfig Refined(KnnPipelineConfig config) {
  config.cluster_conquer.refine_iterations = 1;
  return config;
}

// With one NNDescent refinement pass (bench_cluster_conquer's default)
// C&C still builds the sequential graph on any pool.
TEST(BuildDigestTest, ClusterConquer) {
  ExpectPinned(Base(KnnAlgorithm::kClusterConquer),
               {0xbb8ce56d37bfebf1ULL, 61940, 1}, "cluster-conquer");
  KnnPipelineConfig hyrec = Base(KnnAlgorithm::kClusterConquer);
  hyrec.cluster_conquer.inner = ClusterConquerInner::kHyrec;
  ExpectPinned(hyrec, {0xc892c69a697b0a16ULL, 46421, 1},
               "cluster-conquer hyrec");
  const KnnPipelineConfig refined = Refined(Base(KnnAlgorithm::kClusterConquer));
  const Pinned native = {0xc55e1bb2e58bcfdaULL, 72873, 2};
  const Pinned golfi = {0x55d655a82bc17beeULL, 73336, 2};
  ExpectPinned(refined, native, "cluster-conquer refined");
  ExpectPinned(GoldFinger(refined), golfi, "cluster-conquer golfi refined");
  for (const std::size_t threads : {2, 3, 4, 8}) {
    ThreadPool pool(threads);
    const std::string label = " on " + std::to_string(threads) + " threads";
    ExpectPinned(refined, native, "cluster-conquer refined" + label, &pool);
    ExpectPinned(GoldFinger(refined), golfi,
                 "cluster-conquer golfi refined" + label, &pool);
  }
}

TEST(BuildDigestTest, Lsh) {
  const Pinned want[2][2] = {
      // native: permutation, universal
      {{0x69d1598087c16b70ULL, 26250, 1}, {0xddd9ee96018cdcf2ULL, 19496, 1}},
      // GoldFinger: permutation, universal
      {{0x4ad7202001d652d4ULL, 26250, 1}, {0xce4996e3aba0f1f7ULL, 19496, 1}},
  };
  const SimilarityMode modes[] = {SimilarityMode::kNative,
                                  SimilarityMode::kGoldFinger};
  const MinwiseKind kinds[] = {MinwiseKind::kExplicitPermutation,
                               MinwiseKind::kUniversalHash};
  for (int m = 0; m < 2; ++m) {
    for (int f = 0; f < 2; ++f) {
      KnnPipelineConfig config = Base(KnnAlgorithm::kLsh);
      config.mode = modes[m];
      config.lsh.kind = kinds[f];
      ExpectPinned(config, want[m][f],
                   "lsh mode " + std::to_string(m) + " kind " +
                       std::to_string(f));
    }
  }
}

TEST(BuildDigestTest, BandedLsh) {
  ExpectPinned(Base(KnnAlgorithm::kBandedLsh),
               {0xa92338314c75a471ULL, 4838, 1}, "banded lsh");
}

KnnPipelineConfig HyrecInner(KnnPipelineConfig config) {
  config.cluster_conquer.inner = ClusterConquerInner::kHyrec;
  return config;
}

// 240 users under the default leaf size of 500 would be one leaf.
KnnPipelineConfig SmallLeaves(KnnPipelineConfig config) {
  config.bisection.leaf_size = 64;
  return config;
}

TEST(BuildDigestTest, GoldFingerOfferingBuilds) {
  ExpectPinned(GoldFinger(Base(KnnAlgorithm::kBruteForce)),
               {0x793f064d3d255565ULL, 57360, 1}, "bruteforce golfi");
  ExpectPinned(GoldFinger(Base(KnnAlgorithm::kBandedLsh)),
               {0x61cb62c57339a8d5ULL, 4838, 1}, "banded lsh golfi");
  // serve_churn's graph: GoldFinger C&C, brute-force or Hyrec inside.
  ExpectPinned(GoldFinger(Base(KnnAlgorithm::kClusterConquer)),
               {0xe5f5ba73b2564595ULL, 61940, 1}, "cluster-conquer golfi");
  ExpectPinned(GoldFinger(HyrecInner(Base(KnnAlgorithm::kClusterConquer))),
               {0xf923d09164f91be1ULL, 48308, 1},
               "cluster-conquer hyrec golfi");
}

TEST(BuildDigestTest, Bisection) {
  ExpectPinned(SmallLeaves(Base(KnnAlgorithm::kBisection)),
               {0x764ac067d1bae329ULL, 9850, 1}, "bisection");
  ExpectPinned(GoldFinger(SmallLeaves(Base(KnnAlgorithm::kBisection))),
               {0x4028f43747bb04baULL, 9853, 1}, "bisection golfi");
}

// Brute force and banded LSH write each row from one worker, and C&C
// merges its per-cluster builds in any order to the same rows, so a
// pool of any size reproduces the sequential pins above.
TEST(BuildDigestTest, OfferingBuildsOnPools) {
  const KnnPipelineConfig cc = Base(KnnAlgorithm::kClusterConquer);
  const struct {
    std::string label;
    KnnPipelineConfig config;
    Pinned want;
  } builds[] = {
      {"bruteforce", Base(KnnAlgorithm::kBruteForce),
       {0x1999c93935b5489fULL, 57360, 1}},
      {"bruteforce golfi", GoldFinger(Base(KnnAlgorithm::kBruteForce)),
       {0x793f064d3d255565ULL, 57360, 1}},
      {"banded lsh", Base(KnnAlgorithm::kBandedLsh),
       {0xa92338314c75a471ULL, 4838, 1}},
      {"banded lsh golfi", GoldFinger(Base(KnnAlgorithm::kBandedLsh)),
       {0x61cb62c57339a8d5ULL, 4838, 1}},
      {"cluster-conquer", cc, {0xbb8ce56d37bfebf1ULL, 61940, 1}},
      {"cluster-conquer hyrec", HyrecInner(cc),
       {0xc892c69a697b0a16ULL, 46421, 1}},
      {"cluster-conquer golfi", GoldFinger(cc),
       {0xe5f5ba73b2564595ULL, 61940, 1}},
      {"cluster-conquer hyrec golfi", GoldFinger(HyrecInner(cc)),
       {0xf923d09164f91be1ULL, 48308, 1}},
  };
  for (const std::size_t threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    for (const auto& build : builds) {
      ExpectPinned(build.config, build.want,
                   build.label + " on " + std::to_string(threads) +
                       " threads",
                   &pool);
    }
  }
}

// Pins RefreshKnnGraph: a native brute-force graph repaired after three
// users took other users' profiles. The changed list is unsorted, holds
// a duplicate and the last user. The batched GoldFinger provider and a
// per-pair lambda over the same store must agree exactly.
TEST(BuildDigestTest, RefreshKnnGraph) {
  const Dataset before = testing::SmallSynthetic(240);
  const Dataset donors = testing::SmallSynthetic(240, 8);
  const std::vector<UserId> changed = {17, 5, 239, 17};
  std::vector<std::vector<ItemId>> profiles(before.NumUsers());
  for (UserId u = 0; u < before.NumUsers(); ++u) {
    const auto p = (u == 5 || u == 17 || u == 239) ? donors.Profile(u)
                                                   : before.Profile(u);
    profiles[u].assign(p.begin(), p.end());
  }
  const Dataset after =
      Dataset::FromProfiles(std::move(profiles), before.NumItems()).value();
  const KnnGraph previous =
      BruteForceKnn(ExactJaccardProvider(before), 8).value();
  FingerprintConfig fc;
  fc.num_bits = 512;
  const FingerprintStore store = FingerprintStore::Build(after, fc).value();

  auto expect = [&](const auto& provider, const Pinned& want,
                    const std::string& label) {
    KnnBuildStats stats;
    const KnnGraph graph = RefreshKnnGraph(previous, provider, changed, &stats);
    const uint64_t digest = Fnv1a64(io::SerializeKnnGraph(graph));
    EXPECT_EQ(digest, want.digest)
        << label << " repaired {0x" << std::hex << digest << std::dec
        << ", " << stats.similarity_computations << ", " << stats.iterations
        << "}";
    EXPECT_EQ(stats.similarity_computations, want.similarity_computations)
        << label;
    EXPECT_EQ(stats.iterations, want.iterations) << label;
  };
  const Pinned golfi = {0x76e7dd1c9d4165b1ULL, 376, 3};
  expect(GoldFingerProvider(store), golfi, "goldfinger");
  expect([&store](UserId a, UserId b) { return store.EstimateJaccard(a, b); },
         golfi, "per-pair");
  expect(ExactJaccardProvider(after), {0x19c505ead118cdc5ULL, 359, 3},
         "exact");
}

}  // namespace
}  // namespace gf
