#include "knn/graph_metrics.h"

#include <gtest/gtest.h>

#include "knn/brute_force.h"
#include "knn/similarity_provider.h"
#include "testing/test_util.h"

namespace gf {
namespace {

// Builds a small graph from explicit directed edges.
KnnGraph GraphOf(std::size_t n, std::size_t k,
                 std::initializer_list<std::pair<UserId, UserId>> edges) {
  NeighborLists lists(n, k);
  for (const auto& [u, v] : edges) lists.Insert(u, v, 0.5);
  return lists.Finalize();
}

TEST(GraphMetricsTest, InDegreesCountIncomingEdges) {
  const KnnGraph g = GraphOf(4, 2, {{0, 1}, {2, 1}, {3, 1}, {1, 0}});
  const auto in = InDegrees(g);
  EXPECT_EQ(in[0], 1u);
  EXPECT_EQ(in[1], 3u);
  EXPECT_EQ(in[2], 0u);
  EXPECT_EQ(in[3], 0u);
}

TEST(GraphMetricsTest, ReciprocityFullAndNone) {
  const KnnGraph mutual = GraphOf(2, 1, {{0, 1}, {1, 0}});
  EXPECT_DOUBLE_EQ(EdgeReciprocity(mutual), 1.0);
  const KnnGraph oneway = GraphOf(3, 1, {{0, 1}, {1, 2}, {2, 0}});
  EXPECT_DOUBLE_EQ(EdgeReciprocity(oneway), 0.0);
  const KnnGraph empty = GraphOf(3, 1, {});
  EXPECT_DOUBLE_EQ(EdgeReciprocity(empty), 0.0);
}

TEST(GraphMetricsTest, ReciprocityMixed) {
  // Edges: 0<->1 (both reciprocated), 2->0 (not). 3 edges, 2 reciprocal.
  const KnnGraph g = GraphOf(3, 2, {{0, 1}, {1, 0}, {2, 0}});
  EXPECT_NEAR(EdgeReciprocity(g), 2.0 / 3.0, 1e-12);
}

TEST(GraphMetricsTest, ComponentsOfTwoIslands) {
  const KnnGraph g = GraphOf(5, 2, {{0, 1}, {1, 0}, {2, 3}, {3, 2}});
  const auto stats = ConnectedComponents(g);
  EXPECT_EQ(stats.num_components, 2u);
  EXPECT_EQ(stats.largest, 2u);
  EXPECT_EQ(stats.isolated_users, 1u);  // user 4 has no edges
}

TEST(GraphMetricsTest, DirectedEdgesCountAsWeakLinks) {
  // A chain 0->1->2: weakly one component.
  const KnnGraph g = GraphOf(3, 1, {{0, 1}, {1, 2}});
  const auto stats = ConnectedComponents(g);
  EXPECT_EQ(stats.num_components, 1u);
  EXPECT_EQ(stats.largest, 3u);
}

TEST(GraphMetricsTest, GiniZeroForUniformInDegree) {
  // Perfect cycle: everyone has in-degree 1.
  const KnnGraph g = GraphOf(4, 1, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  EXPECT_NEAR(InDegreeGini(g), 0.0, 1e-12);
}

TEST(GraphMetricsTest, GiniHighForHub) {
  // Everyone points at user 0.
  const KnnGraph g = GraphOf(5, 1, {{1, 0}, {2, 0}, {3, 0}, {4, 0}});
  EXPECT_GT(InDegreeGini(g), 0.7);
}

TEST(GraphMetricsTest, RealKnnGraphIsWellConnected) {
  const Dataset d = testing::SmallSynthetic(200);
  ExactJaccardProvider provider(d);
  const KnnGraph g = BruteForceKnn(provider, 10).value();
  const auto stats = ConnectedComponents(g);
  // A k=10 graph over community data: the giant component dominates.
  EXPECT_GT(stats.largest, d.NumUsers() * 3 / 4);
  EXPECT_GT(EdgeReciprocity(g), 0.2);
  EXPECT_LT(InDegreeGini(g), 0.9);
}

}  // namespace
}  // namespace gf
