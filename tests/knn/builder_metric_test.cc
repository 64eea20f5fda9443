// Tests of the fsim metric axis in the pipeline facade (Jaccard vs
// cosine, §2.1's fsim generality).

#include <gtest/gtest.h>

#include "knn/builder.h"
#include "knn/quality.h"
#include "knn/similarity_provider.h"
#include "knn/brute_force.h"
#include "testing/test_util.h"

namespace gf {
namespace {

KnnPipelineConfig Config(SimilarityMode mode, SimilarityMetric metric) {
  KnnPipelineConfig c;
  c.algorithm = KnnAlgorithm::kBruteForce;
  c.mode = mode;
  c.metric = metric;
  c.greedy.k = 8;
  return c;
}

TEST(BuilderMetricTest, MetricNamesStable) {
  EXPECT_EQ(SimilarityMetricName(SimilarityMetric::kJaccard), "jaccard");
  EXPECT_EQ(SimilarityMetricName(SimilarityMetric::kCosine), "cosine");
}

TEST(BuilderMetricTest, NativeCosineMatchesCosineProvider) {
  const Dataset d = testing::SmallSynthetic(100);
  auto result = BuildKnnGraph(
      d, Config(SimilarityMode::kNative, SimilarityMetric::kCosine));
  ASSERT_TRUE(result.ok());
  CosineProvider provider(d);
  const KnnGraph reference = BruteForceKnn(provider, 8).value();
  for (UserId u = 0; u < d.NumUsers(); ++u) {
    const auto a = result->graph.NeighborsOf(u);
    const auto b = reference.NeighborsOf(u);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id);
    }
  }
}

TEST(BuilderMetricTest, CosineAndJaccardGraphsDiffer) {
  // Cosine favors neighbors with small profiles (the sqrt denominator);
  // on a dataset with varied profile sizes the two metrics pick
  // different neighborhoods.
  const Dataset d = testing::SmallSynthetic(200, 77);
  auto jaccard = BuildKnnGraph(
      d, Config(SimilarityMode::kNative, SimilarityMetric::kJaccard));
  auto cosine = BuildKnnGraph(
      d, Config(SimilarityMode::kNative, SimilarityMetric::kCosine));
  ASSERT_TRUE(jaccard.ok() && cosine.ok());
  std::size_t differing_rows = 0;
  for (UserId u = 0; u < d.NumUsers(); ++u) {
    const auto a = jaccard->graph.NeighborsOf(u);
    const auto b = cosine->graph.NeighborsOf(u);
    bool same = a.size() == b.size();
    for (std::size_t i = 0; same && i < a.size(); ++i) {
      same = (a[i].id == b[i].id);
    }
    differing_rows += !same;
  }
  EXPECT_GT(differing_rows, 0u);
}

TEST(BuilderMetricTest, GoldFingerCosineQualityIsHigh) {
  const Dataset d = testing::SmallSynthetic(200);
  auto exact = BuildKnnGraph(
      d, Config(SimilarityMode::kNative, SimilarityMetric::kCosine));
  auto golfi = BuildKnnGraph(
      d, Config(SimilarityMode::kGoldFinger, SimilarityMetric::kCosine));
  ASSERT_TRUE(exact.ok() && golfi.ok());
  // Compare by stored-cosine average of exact cosine edges vs GolFi's
  // recovered neighbors under the exact cosine.
  CosineProvider cosine(d);
  double exact_avg = 0, golfi_avg = 0;
  std::size_t exact_edges = 0, golfi_edges = 0;
  for (UserId u = 0; u < d.NumUsers(); ++u) {
    for (const auto& nb : exact->graph.NeighborsOf(u)) {
      exact_avg += cosine(u, nb.id);
      ++exact_edges;
    }
    for (const auto& nb : golfi->graph.NeighborsOf(u)) {
      golfi_avg += cosine(u, nb.id);
      ++golfi_edges;
    }
  }
  ASSERT_GT(exact_edges, 0u);
  ASSERT_GT(golfi_edges, 0u);
  EXPECT_GT((golfi_avg / golfi_edges) / (exact_avg / exact_edges), 0.9);
}

TEST(BuilderMetricTest, MinHashCosineRejected) {
  const Dataset d = testing::TinyDataset();
  auto r = BuildKnnGraph(
      d, Config(SimilarityMode::kBbitMinHash, SimilarityMetric::kCosine));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(BuilderMetricTest, CosineWorksAcrossAlgorithms) {
  const Dataset d = testing::SmallSynthetic(150);
  for (auto algo : {KnnAlgorithm::kHyrec, KnnAlgorithm::kNNDescent,
                    KnnAlgorithm::kLsh}) {
    KnnPipelineConfig c =
        Config(SimilarityMode::kGoldFinger, SimilarityMetric::kCosine);
    c.algorithm = algo;
    auto r = BuildKnnGraph(d, c);
    ASSERT_TRUE(r.ok()) << KnnAlgorithmName(algo);
    EXPECT_GT(r->graph.NumEdges(), 0u);
  }
}

}  // namespace
}  // namespace gf
