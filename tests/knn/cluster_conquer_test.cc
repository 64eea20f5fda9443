// Property tests of Cluster-and-Conquer (knn/cluster_conquer.h):
//
//  - C = 1 degenerates edge-for-edge into the underlying algorithm's
//    global build (identity view + base seed for cluster 0 + the
//    pass-through conquer merge), for both inner algorithms;
//  - arbitrary C produces a structurally valid graph: in-range ids, no
//    self-loops, no duplicates, at most k rows per user, every row in
//    the total order (similarity descending, ties toward smaller id);
//  - the merged graph is bit-identical across thread counts while
//    refinement is off (the conquer merge is order-independent);
//  - a build with a checkpoint directory matches the build without
//    one, resumes from a populated directory to the same graph, and
//    rejects mismatched configurations;
//  - kClusterConquer checkpoints round-trip through the serializer and
//    hostile extras (next cluster out of range, unsorted members) are
//    rejected as Corruption.

#include "knn/cluster_conquer.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "io/env.h"
#include "knn/builder.h"
#include "knn/checkpoint.h"
#include "knn/similarity_provider.h"
#include "testing/test_util.h"

namespace gf {
namespace {

using io::JoinPath;
using io::PosixEnv;

std::string FreshDir(const std::string& name) {
  const std::string dir =
      ::testing::TempDir() + "/cluster_conquer_test_" + name;
  PosixEnv env;
  auto names = env.ListDirectory(dir);
  if (names.ok()) {
    for (const std::string& entry : *names) {
      EXPECT_TRUE(env.DeleteFile(JoinPath(dir, entry)).ok());
    }
  }
  EXPECT_TRUE(env.CreateDirs(dir).ok());
  return dir;
}

using testing::ExpectGraphsIdentical;

GreedyConfig SmallGreedy() {
  GreedyConfig config;
  config.k = 6;
  config.max_iterations = 8;
  config.seed = 99;
  return config;
}

ClusterConquerConfig SmallCc(std::size_t clusters, std::size_t assignments) {
  ClusterConquerConfig config;
  config.num_clusters = clusters;
  config.assignments = assignments;
  config.sketch_bits = 128;
  config.band_bits = 8;
  return config;
}

TEST(ClusterConquerTest, SingleClusterAssignsEveryUserOnce) {
  const Dataset d = testing::SmallSynthetic(90);
  auto assignment = ComputeClusterAssignment(d, SmallCc(1, 3));
  ASSERT_TRUE(assignment.ok()) << assignment.status().ToString();
  ASSERT_EQ(assignment->num_clusters, 1u);
  ASSERT_EQ(assignment->members.size(), d.NumUsers());
  for (UserId u = 0; u < d.NumUsers(); ++u) {
    EXPECT_EQ(assignment->members[u], u);
  }
}

TEST(ClusterConquerTest, AssignmentCoversEveryUserExactlyTTimesAtMost) {
  const Dataset d = testing::SmallSynthetic(200);
  const ClusterConquerConfig config = SmallCc(16, 2);
  auto assignment = ComputeClusterAssignment(d, config);
  ASSERT_TRUE(assignment.ok()) << assignment.status().ToString();
  std::vector<std::size_t> copies(d.NumUsers(), 0);
  for (std::size_t c = 0; c < assignment->num_clusters; ++c) {
    const auto members = assignment->MembersOf(c);
    for (std::size_t i = 0; i < members.size(); ++i) {
      ASSERT_LT(members[i], d.NumUsers());
      if (i > 0) {
        EXPECT_LT(members[i - 1], members[i]) << "cluster " << c;
      }
      ++copies[members[i]];
    }
  }
  for (UserId u = 0; u < d.NumUsers(); ++u) {
    EXPECT_GE(copies[u], 1u) << "user " << u << " unassigned";
    EXPECT_LE(copies[u], config.assignments) << "user " << u;
  }
}

TEST(ClusterConquerTest, SingleClusterMatchesGlobalBruteForce) {
  const Dataset d = testing::SmallSynthetic(150);
  ExactJaccardProvider provider(d);
  const GreedyConfig greedy = SmallGreedy();
  const KnnGraph global = BruteForceKnn(provider, greedy.k).value();

  auto cc = ClusterConquerKnn(d, provider, SmallCc(1, 1), greedy);
  ASSERT_TRUE(cc.ok()) << cc.status().ToString();
  ExpectGraphsIdentical(global, *cc);
}

TEST(ClusterConquerTest, SingleClusterMatchesGlobalHyrec) {
  const Dataset d = testing::SmallSynthetic(150);
  ExactJaccardProvider provider(d);
  const GreedyConfig greedy = SmallGreedy();
  const KnnGraph global = HyrecKnn(provider, greedy).value();

  ClusterConquerConfig config = SmallCc(1, 1);
  config.inner = ClusterConquerInner::kHyrec;
  auto cc = ClusterConquerKnn(d, provider, config, greedy);
  ASSERT_TRUE(cc.ok()) << cc.status().ToString();
  ExpectGraphsIdentical(global, *cc);
}

TEST(ClusterConquerTest, ArbitraryClusteringYieldsValidGraph) {
  const Dataset d = testing::SmallSynthetic(250);
  ExactJaccardProvider provider(d);
  const GreedyConfig greedy = SmallGreedy();
  for (const std::size_t clusters : {3u, 8u, 31u}) {
    auto cc = ClusterConquerKnn(d, provider, SmallCc(clusters, 2), greedy);
    ASSERT_TRUE(cc.ok()) << cc.status().ToString();
    ASSERT_EQ(cc->NumUsers(), d.NumUsers());
    for (UserId u = 0; u < cc->NumUsers(); ++u) {
      const auto row = cc->NeighborsOf(u);
      EXPECT_LE(row.size(), greedy.k);
      for (std::size_t i = 0; i < row.size(); ++i) {
        EXPECT_LT(row[i].id, d.NumUsers());
        EXPECT_NE(row[i].id, u);
        for (std::size_t j = i + 1; j < row.size(); ++j) {
          EXPECT_NE(row[i].id, row[j].id) << "duplicate neighbor of " << u;
        }
        if (i > 0) {
          // The total order: similarity descending, ties toward the
          // smaller id.
          EXPECT_TRUE(row[i - 1].similarity > row[i].similarity ||
                      (row[i - 1].similarity == row[i].similarity &&
                       row[i - 1].id < row[i].id))
              << "user " << u << " rank " << i;
        }
      }
    }
  }
}

// Without refinement and with one NNDescent pass over the merged graph.
TEST(ClusterConquerTest, GraphIsIdenticalAcrossThreadCounts) {
  const Dataset d = testing::SmallSynthetic(220);
  ExactJaccardProvider provider(d);
  const GreedyConfig greedy = SmallGreedy();
  for (const std::size_t refine : {0, 1}) {
    ClusterConquerConfig config = SmallCc(12, 2);
    config.refine_iterations = refine;
    auto sequential = ClusterConquerKnn(d, provider, config, greedy);
    ASSERT_TRUE(sequential.ok()) << sequential.status().ToString();
    for (const std::size_t threads : {2, 4}) {
      ThreadPool pool(threads);
      auto parallel = ClusterConquerKnn(d, provider, config, greedy, &pool);
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      ExpectGraphsIdentical(*sequential, *parallel,
                            "refine " + std::to_string(refine) + " on " +
                                std::to_string(threads) + " threads");
    }
  }
}

TEST(ClusterConquerTest, RefinementSmoke) {
  const Dataset d = testing::SmallSynthetic(120);
  ExactJaccardProvider provider(d);
  const GreedyConfig greedy = SmallGreedy();
  ClusterConquerConfig config = SmallCc(6, 1);
  config.refine_iterations = 2;
  KnnBuildStats stats;
  auto cc = ClusterConquerKnn(d, provider, config, greedy, nullptr, &stats);
  ASSERT_TRUE(cc.ok()) << cc.status().ToString();
  EXPECT_EQ(cc->NumUsers(), d.NumUsers());
  EXPECT_GE(stats.iterations, 2u);  // 1 (build) + at least one refinement
}

TEST(ClusterConquerTest, BuilderFacadeMatchesDirectCall) {
  const Dataset d = testing::SmallSynthetic(120);
  KnnPipelineConfig config;
  config.algorithm = KnnAlgorithm::kClusterConquer;
  config.mode = SimilarityMode::kNative;
  config.greedy = SmallGreedy();
  config.cluster_conquer = SmallCc(5, 2);
  auto built = BuildKnnGraph(d, config);
  ASSERT_TRUE(built.ok()) << built.status().ToString();

  ExactJaccardProvider provider(d);
  auto direct =
      ClusterConquerKnn(d, provider, config.cluster_conquer, config.greedy);
  ASSERT_TRUE(direct.ok());
  ExpectGraphsIdentical(*direct, built->graph);
}

TEST(ClusterConquerTest, BuilderRejectsDegenerateConfigs) {
  const Dataset d = testing::SmallSynthetic(40);
  KnnPipelineConfig config;
  config.algorithm = KnnAlgorithm::kClusterConquer;
  config.greedy = SmallGreedy();

  config.cluster_conquer = SmallCc(0, 1);  // no clusters
  EXPECT_EQ(BuildKnnGraph(d, config).status().code(),
            StatusCode::kInvalidArgument);

  config.cluster_conquer = SmallCc(4, 0);  // no assignments
  EXPECT_EQ(BuildKnnGraph(d, config).status().code(),
            StatusCode::kInvalidArgument);

  config.cluster_conquer = SmallCc(4, 1);
  config.cluster_conquer.sketch_bits = 100;  // not a multiple of 64
  EXPECT_EQ(BuildKnnGraph(d, config).status().code(),
            StatusCode::kInvalidArgument);

  config.cluster_conquer = SmallCc(4, 1);
  config.cluster_conquer.band_bits = 24;  // does not divide 64
  EXPECT_EQ(BuildKnnGraph(d, config).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ClusterConquerTest, CheckpointedBuildMatchesPlainBuild) {
  const Dataset d = testing::SmallSynthetic(150);
  ExactJaccardProvider provider(d);
  const GreedyConfig greedy = SmallGreedy();
  const ClusterConquerConfig config = SmallCc(9, 2);
  auto plain = ClusterConquerKnn(d, provider, config, greedy);
  ASSERT_TRUE(plain.ok());

  // every = 1: a snapshot after every cluster; 4: after waves of four.
  for (std::size_t every : {1u, 4u}) {
    CheckpointConfig checkpointing;
    checkpointing.dir = FreshDir("match_every_" + std::to_string(every));
    checkpointing.every = every;
    auto checkpointed = ClusterConquerKnn(d, provider, config, greedy,
                                          nullptr, nullptr, nullptr,
                                          checkpointing);
    ASSERT_TRUE(checkpointed.ok()) << checkpointed.status().ToString();
    ExpectGraphsIdentical(*plain, *checkpointed);

    PosixEnv env;
    auto names = env.ListDirectory(checkpointing.dir);
    ASSERT_TRUE(names.ok());
    EXPECT_FALSE(names->empty());  // snapshots were actually written
  }
}

TEST(ClusterConquerTest, ResumeFromPopulatedDirectoryMatchesPlainBuild) {
  const Dataset d = testing::SmallSynthetic(150);
  ExactJaccardProvider provider(d);
  const GreedyConfig greedy = SmallGreedy();
  const ClusterConquerConfig config = SmallCc(9, 2);
  auto plain = ClusterConquerKnn(d, provider, config, greedy);
  ASSERT_TRUE(plain.ok());

  CheckpointConfig checkpointing;
  checkpointing.dir = FreshDir("resume");
  checkpointing.every = 2;
  ASSERT_TRUE(ClusterConquerKnn(d, provider, config, greedy, nullptr,
                                nullptr, nullptr, checkpointing)
                  .ok());
  // Second run resumes from the last snapshot (mid-way through the
  // cluster sequence); the order-independent merge makes the replayed
  // tail idempotent, so the graph is still exact.
  checkpointing.resume = true;
  auto resumed = ClusterConquerKnn(d, provider, config, greedy, nullptr,
                                   nullptr, nullptr, checkpointing);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ExpectGraphsIdentical(*plain, *resumed);
}

TEST(ClusterConquerTest, ResumeRejectsMismatchedClustering) {
  const Dataset d = testing::SmallSynthetic(100);
  ExactJaccardProvider provider(d);
  const GreedyConfig greedy = SmallGreedy();
  CheckpointConfig checkpointing;
  checkpointing.dir = FreshDir("mismatch");
  checkpointing.every = 1;
  ASSERT_TRUE(ClusterConquerKnn(d, provider, SmallCc(8, 2), greedy, nullptr,
                                nullptr, nullptr, checkpointing)
                  .ok());

  checkpointing.resume = true;
  auto resumed = ClusterConquerKnn(d, provider, SmallCc(4, 2), greedy,
                                   nullptr, nullptr, nullptr, checkpointing);
  EXPECT_EQ(resumed.status().code(), StatusCode::kFailedPrecondition);
}

// The clustering can match while the graph would not: another inner
// construction or greedy seed builds different per-cluster lists, so a
// direct call must refuse to resume under either.
TEST(ClusterConquerTest, ResumeRejectsAnotherInnerOrGreedySeed) {
  const Dataset d = testing::SmallSynthetic(100);
  ExactJaccardProvider provider(d);
  const GreedyConfig greedy = SmallGreedy();
  const ClusterConquerConfig config = SmallCc(8, 2);
  CheckpointConfig checkpointing;
  checkpointing.dir = FreshDir("inner_mismatch");
  checkpointing.every = 1;
  ASSERT_TRUE(ClusterConquerKnn(d, provider, config, greedy, nullptr,
                                nullptr, nullptr, checkpointing)
                  .ok());

  checkpointing.resume = true;
  ClusterConquerConfig hyrec_inner = config;
  hyrec_inner.inner = ClusterConquerInner::kHyrec;
  EXPECT_EQ(ClusterConquerKnn(d, provider, hyrec_inner, greedy, nullptr,
                              nullptr, nullptr, checkpointing)
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
  GreedyConfig reseeded = greedy;
  reseeded.seed += 1;
  EXPECT_EQ(ClusterConquerKnn(d, provider, config, reseeded, nullptr,
                              nullptr, nullptr, checkpointing)
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(ClusterConquerKnn(d, provider, config, greedy, nullptr,
                                nullptr, nullptr, checkpointing)
                  .ok());
}

BuildCheckpoint MakeClusterCheckpoint() {
  BuildCheckpoint checkpoint;
  checkpoint.algorithm = CheckpointAlgorithm::kClusterConquer;
  checkpoint.num_users = 6;
  checkpoint.k = 2;
  checkpoint.seed = 42;
  checkpoint.next_user = 1;  // clusters completed
  checkpoint.computations = 7;
  checkpoint.num_clusters = 2;
  checkpoint.assignments_per_user = 1;
  checkpoint.cluster_sizes = {3, 3};
  checkpoint.cluster_members = {0, 2, 4, 1, 3, 5};
  checkpoint.row_sizes.assign(6, 0);
  checkpoint.row_sizes[0] = 1;
  checkpoint.rows.assign(6 * 2, NeighborLists::Entry{});
  checkpoint.rows[0] = {2, 0.5f, true};
  return checkpoint;
}

TEST(ClusterConquerTest, CheckpointExtrasRoundTrip) {
  const BuildCheckpoint checkpoint = MakeClusterCheckpoint();
  const std::string bytes = SerializeCheckpoint(checkpoint);
  auto loaded = DeserializeCheckpoint(bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->algorithm, CheckpointAlgorithm::kClusterConquer);
  EXPECT_EQ(loaded->next_user, 1u);
  EXPECT_EQ(loaded->num_clusters, 2u);
  EXPECT_EQ(loaded->assignments_per_user, 1u);
  EXPECT_EQ(loaded->cluster_sizes, checkpoint.cluster_sizes);
  EXPECT_EQ(loaded->cluster_members, checkpoint.cluster_members);
  ASSERT_EQ(loaded->row_sizes.size(), 6u);
  EXPECT_EQ(loaded->row_sizes[0], 1u);
  ASSERT_EQ(loaded->rows.size(), 12u);
  EXPECT_EQ(loaded->rows[0].id, 2u);
}

TEST(ClusterConquerTest, CheckpointRejectsNextClusterBeyondRange) {
  BuildCheckpoint checkpoint = MakeClusterCheckpoint();
  checkpoint.next_user = 3;  // only 2 clusters exist
  auto loaded = DeserializeCheckpoint(SerializeCheckpoint(checkpoint));
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST(ClusterConquerTest, CheckpointRejectsUnsortedMembers) {
  BuildCheckpoint checkpoint = MakeClusterCheckpoint();
  checkpoint.cluster_members = {2, 0, 4, 1, 3, 5};  // descending pair
  auto loaded = DeserializeCheckpoint(SerializeCheckpoint(checkpoint));
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST(ClusterConquerTest, CheckpointRejectsMemberIdOutOfRange) {
  BuildCheckpoint checkpoint = MakeClusterCheckpoint();
  checkpoint.cluster_members = {0, 2, 99, 1, 3, 5};  // 99 >= num_users
  auto loaded = DeserializeCheckpoint(SerializeCheckpoint(checkpoint));
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

// ClusterConquerKnn's checkpoint tag (the kClusterConquer seed field)
// covers every clustering parameter, the greedy seed and the caller's
// tag.
TEST(ClusterConquerTest, SeedTagDependsOnEveryClusteringParameter) {
  const ClusterConquerConfig base = SmallCc(8, 2);
  const GreedyConfig greedy = SmallGreedy();
  const uint64_t tag = ClusterConquerTag(0, base, greedy);
  const auto tag_with = [&](auto&& change) {
    ClusterConquerConfig other = base;
    change(other);
    return ClusterConquerTag(0, other, greedy);
  };
  EXPECT_NE(tag_with([](ClusterConquerConfig& c) { c.num_clusters = 9; }),
            tag);
  EXPECT_NE(tag_with([](ClusterConquerConfig& c) { c.assignments = 3; }),
            tag);
  EXPECT_NE(tag_with([](ClusterConquerConfig& c) { c.sketch_bits = 256; }),
            tag);
  EXPECT_NE(tag_with([](ClusterConquerConfig& c) { c.band_bits = 16; }),
            tag);
  EXPECT_NE(
      tag_with([](ClusterConquerConfig& c) { c.max_cluster_size = 512; }),
      tag);
  EXPECT_NE(tag_with([](ClusterConquerConfig& c) {
              c.inner = ClusterConquerInner::kHyrec;
            }),
            tag);
  EXPECT_NE(
      tag_with([](ClusterConquerConfig& c) { c.refine_iterations = 2; }),
      tag);
  EXPECT_NE(tag_with([](ClusterConquerConfig& c) { c.seed = 7; }), tag);
  GreedyConfig reseeded = greedy;
  reseeded.seed = 100;
  EXPECT_NE(ClusterConquerTag(0, base, reseeded), tag);
  EXPECT_NE(ClusterConquerTag(1, base, greedy), tag);
  EXPECT_EQ(tag_with([](ClusterConquerConfig&) {}), tag);
}

}  // namespace
}  // namespace gf
