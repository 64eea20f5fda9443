// The determinism contract of the resumable builds: with an empty or
// populated checkpoint directory, crashes or not, a build with a
// checkpoint directory must produce the exact graph of the same build
// without one — same edges, same similarities, same tie-breaks.
// (Crash/resume scenarios live in
// tests/integration/crash_recovery_test.cc; this file covers the
// no-fault paths and configuration validation.)

#include <gtest/gtest.h>

#include <string>

#include "common/thread_pool.h"
#include "io/env.h"
#include "io/fault_env.h"
#include "knn/brute_force.h"
#include "knn/builder.h"
#include "knn/hyrec.h"
#include "knn/nndescent.h"
#include "knn/similarity_provider.h"
#include "testing/test_util.h"

namespace gf {
namespace {

using io::JoinPath;
using io::PosixEnv;

std::string FreshDir(const std::string& name) {
  const std::string dir =
      ::testing::TempDir() + "/checkpointed_build_test_" + name;
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

TEST(CheckpointedBuildTest, BruteForceMatchesPlainBuild) {
  const Dataset d = testing::SmallSynthetic(120);
  ExactJaccardProvider provider(d);
  const KnnGraph plain = BruteForceKnn(provider, 6).value();

  CheckpointConfig checkpointing;
  checkpointing.dir = FreshDir("bf");
  checkpointing.chunk_users = 32;
  auto checkpointed =
      BruteForceKnn(provider, 6, nullptr, nullptr, nullptr, checkpointing);
  ASSERT_TRUE(checkpointed.ok()) << checkpointed.status().ToString();
  ExpectGraphsIdentical(plain, *checkpointed);
}

TEST(CheckpointedBuildTest, BruteForceChunkingDoesNotChangeTheGraph) {
  const Dataset d = testing::SmallSynthetic(90);
  ExactJaccardProvider provider(d);
  const KnnGraph plain = BruteForceKnn(provider, 5).value();
  for (std::size_t chunk : {1u, 7u, 64u, 1000u}) {
    for (std::size_t every : {1u, 3u}) {
      CheckpointConfig checkpointing;
      checkpointing.dir = FreshDir("bf_chunk_" + std::to_string(chunk) +
                                   "_every_" + std::to_string(every));
      checkpointing.chunk_users = chunk;
      checkpointing.every = every;
      auto graph = BruteForceKnn(provider, 5, nullptr, nullptr, nullptr,
                                 checkpointing);
      ASSERT_TRUE(graph.ok()) << graph.status().ToString();
      ExpectGraphsIdentical(plain, *graph);
    }
  }
}

TEST(CheckpointedBuildTest, HyrecMatchesPlainBuild) {
  const Dataset d = testing::SmallSynthetic(120);
  ExactJaccardProvider provider(d);
  const GreedyConfig config = SmallGreedy();
  const KnnGraph plain = HyrecKnn(provider, config).value();

  for (std::size_t every : {1u, 3u}) {
    CheckpointConfig checkpointing;
    checkpointing.dir = FreshDir("hyrec_every_" + std::to_string(every));
    checkpointing.every = every;
    auto checkpointed =
        HyrecKnn(provider, config, nullptr, nullptr, nullptr, checkpointing);
    ASSERT_TRUE(checkpointed.ok()) << checkpointed.status().ToString();
    ExpectGraphsIdentical(plain, *checkpointed);
  }
}

// The checkpointed builds run on a pool, the plain one without.
TEST(CheckpointedBuildTest, NNDescentMatchesPlainBuild) {
  const Dataset d = testing::SmallSynthetic(120);
  ExactJaccardProvider provider(d);
  const GreedyConfig config = SmallGreedy();
  const KnnGraph plain = NNDescentKnn(provider, config).value();

  ThreadPool pool(4);
  for (std::size_t every : {1u, 3u}) {
    CheckpointConfig checkpointing;
    checkpointing.dir = FreshDir("nndescent_every_" + std::to_string(every));
    checkpointing.every = every;
    auto checkpointed = NNDescentKnn(provider, config, &pool, nullptr,
                                     nullptr, checkpointing);
    ASSERT_TRUE(checkpointed.ok()) << checkpointed.status().ToString();
    ExpectGraphsIdentical(plain, *checkpointed);
  }
}

TEST(CheckpointedBuildTest, StatsMatchThePlainBuild) {
  const Dataset d = testing::SmallSynthetic(80);
  ExactJaccardProvider provider(d);
  const GreedyConfig config = SmallGreedy();
  KnnBuildStats plain_stats;
  (void)HyrecKnn(provider, config, nullptr, &plain_stats);

  CheckpointConfig checkpointing;
  checkpointing.dir = FreshDir("stats");
  KnnBuildStats stats;
  auto graph =
      HyrecKnn(provider, config, nullptr, &stats, nullptr, checkpointing);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(stats.iterations, plain_stats.iterations);
  EXPECT_EQ(stats.similarity_computations,
            plain_stats.similarity_computations);
  EXPECT_EQ(stats.updates_per_iteration, plain_stats.updates_per_iteration);
}

// Checkpoints written before Hyrec's steps read the is_new flags hold
// every flag set. Resuming from one scores every neighbor-of-neighbor
// in the next step, and builds the same graph with the same updates.
TEST(CheckpointedBuildTest, HyrecResumesFromCheckpointWithEveryFlagSet) {
  const Dataset d = testing::SmallSynthetic(120);
  ExactJaccardProvider provider(d);
  const GreedyConfig config = SmallGreedy();
  KnnBuildStats plain_stats;
  const KnnGraph plain =
      HyrecKnn(provider, config, nullptr, &plain_stats).value();
  ASSERT_GT(plain_stats.iterations, 3u);

  HyrecState state(d.NumUsers(), config.k);
  HyrecInit(provider, config, state);
  ASSERT_FALSE(HyrecStep(provider, config, state));
  ASSERT_FALSE(HyrecStep(provider, config, state));
  BuildCheckpoint checkpoint;
  checkpoint.algorithm = CheckpointAlgorithm::kHyrec;
  checkpoint.seed = GreedyTag(0, config);
  CaptureProgress(state, &checkpoint);
  for (NeighborLists::Entry& entry : checkpoint.rows) entry.is_new = true;
  const std::string dir = FreshDir("hyrec_all_new");
  CheckpointStore store(dir);
  ASSERT_TRUE(store.Init().ok());
  ASSERT_TRUE(store.Save(checkpoint).ok());

  CheckpointConfig checkpointing;
  checkpointing.dir = dir;
  checkpointing.resume = true;
  KnnBuildStats stats;
  auto resumed =
      HyrecKnn(provider, config, nullptr, &stats, nullptr, checkpointing);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ExpectGraphsIdentical(plain, *resumed);
  EXPECT_EQ(stats.iterations, plain_stats.iterations);
  EXPECT_EQ(stats.updates_per_iteration, plain_stats.updates_per_iteration);
  EXPECT_GE(stats.similarity_computations,
            plain_stats.similarity_computations);
}

TEST(CheckpointedBuildTest, FreshBuildIgnoresStaleCheckpoints) {
  const Dataset d = testing::SmallSynthetic(80);
  ExactJaccardProvider provider(d);
  const GreedyConfig config = SmallGreedy();
  const std::string dir = FreshDir("stale");

  // A previous run with a different seed leaves checkpoints behind.
  CheckpointConfig checkpointing;
  checkpointing.dir = dir;
  GreedyConfig other = config;
  other.seed = 1234;
  ASSERT_TRUE(
      HyrecKnn(provider, other, nullptr, nullptr, nullptr, checkpointing)
          .ok());

  // A fresh (resume = false) build must not pick them up.
  const KnnGraph plain = HyrecKnn(provider, config).value();
  auto graph =
      HyrecKnn(provider, config, nullptr, nullptr, nullptr, checkpointing);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  ExpectGraphsIdentical(plain, *graph);
}

TEST(CheckpointedBuildTest, ResumeRejectsMismatchedConfiguration) {
  const Dataset d = testing::SmallSynthetic(80);
  ExactJaccardProvider provider(d);
  const GreedyConfig config = SmallGreedy();
  CheckpointConfig checkpointing;
  checkpointing.dir = FreshDir("mismatch");
  ASSERT_TRUE(HyrecKnn(provider, config, nullptr, nullptr, nullptr,
                       checkpointing)
                  .ok());

  checkpointing.resume = true;
  GreedyConfig other = config;
  other.seed = config.seed + 1;
  auto resumed =
      HyrecKnn(provider, other, nullptr, nullptr, nullptr, checkpointing);
  EXPECT_EQ(resumed.status().code(), StatusCode::kFailedPrecondition);
}

// A direct call checks every GreedyConfig setting that shapes the
// graph, not only the seed: each change below makes the resume fail,
// while the unchanged config still resumes.
TEST(CheckpointedBuildTest, DirectResumeRejectsAnotherGreedyConfig) {
  const Dataset d = testing::SmallSynthetic(80);
  ExactJaccardProvider provider(d);
  GreedyConfig config = SmallGreedy();
  config.delta = 0.0;  // run every iteration, so snapshots exist
  const auto build = [&](bool hyrec, const GreedyConfig& greedy,
                         const CheckpointConfig& checkpointing) {
    return hyrec ? HyrecKnn(provider, greedy, nullptr, nullptr, nullptr,
                            checkpointing)
                 : NNDescentKnn(provider, greedy, nullptr, nullptr, nullptr,
                                checkpointing);
  };
  for (const bool hyrec : {true, false}) {
    CheckpointConfig checkpointing;
    checkpointing.dir = FreshDir(hyrec ? "direct_hyrec" : "direct_nnd");
    ASSERT_TRUE(build(hyrec, config, checkpointing).ok());
    checkpointing.resume = true;
    for (int change = 0; change < 4; ++change) {
      GreedyConfig other = config;
      if (change == 0) other.seed += 1;
      if (change == 1) other.delta = 0.05;
      if (change == 2) other.sample_rate = 0.5;
      if (change == 3) other.max_iterations += 1;
      EXPECT_EQ(build(hyrec, other, checkpointing).status().code(),
                StatusCode::kFailedPrecondition)
          << (hyrec ? "Hyrec" : "NNDescent") << " change " << change;
    }
    EXPECT_TRUE(build(hyrec, config, checkpointing).ok());
  }
}

TEST(CheckpointedBuildTest, BuilderResumeRejectsAnotherSeed) {
  const Dataset d = testing::SmallSynthetic(80);
  KnnPipelineConfig config;
  config.algorithm = KnnAlgorithm::kHyrec;
  config.greedy = SmallGreedy();
  config.checkpoint.dir = FreshDir("builder_mismatch");
  ASSERT_TRUE(BuildKnnGraph(d, config).ok());

  config.checkpoint.resume = true;
  config.greedy.seed += 1;
  auto resumed = BuildKnnGraph(d, config);
  EXPECT_EQ(resumed.status().code(), StatusCode::kFailedPrecondition);
}

// A checkpoint's configuration tag covers the similarity substrate, not
// just the seed: a native build's checkpoints must not seed a GoldFinger
// resume (the two graphs differ).
TEST(CheckpointedBuildTest, ResumeRejectsAnotherSimilarityMode) {
  const Dataset d = testing::SmallSynthetic(100);
  KnnPipelineConfig config;
  config.algorithm = KnnAlgorithm::kHyrec;
  config.mode = SimilarityMode::kNative;
  config.greedy.k = 10;
  config.greedy.max_iterations = 4;
  config.greedy.delta = 0.0;
  config.checkpoint.dir = FreshDir("mode_switch");
  ASSERT_TRUE(BuildKnnGraph(d, config).ok());

  config.mode = SimilarityMode::kGoldFinger;
  config.checkpoint.resume = true;
  auto resumed = BuildKnnGraph(d, config);
  EXPECT_EQ(resumed.status().code(), StatusCode::kFailedPrecondition);
}

TEST(CheckpointedBuildTest, ResumeRejectsAnotherDelta) {
  const Dataset d = testing::SmallSynthetic(100);
  KnnPipelineConfig config;
  config.algorithm = KnnAlgorithm::kNNDescent;
  config.greedy = SmallGreedy();
  config.greedy.delta = 0.0;
  config.checkpoint.dir = FreshDir("delta_change");
  ASSERT_TRUE(BuildKnnGraph(d, config).ok());

  config.greedy.delta = 0.05;
  config.checkpoint.resume = true;
  auto resumed = BuildKnnGraph(d, config);
  EXPECT_EQ(resumed.status().code(), StatusCode::kFailedPrecondition);
}

TEST(CheckpointedBuildTest, ResumeWithEmptyDirectoryRunsFresh) {
  const Dataset d = testing::SmallSynthetic(80);
  ExactJaccardProvider provider(d);
  const GreedyConfig config = SmallGreedy();
  const KnnGraph plain = NNDescentKnn(provider, config).value();

  CheckpointConfig checkpointing;
  checkpointing.dir = FreshDir("resume_empty");
  checkpointing.resume = true;
  auto graph =
      NNDescentKnn(provider, config, nullptr, nullptr, nullptr, checkpointing);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  ExpectGraphsIdentical(plain, *graph);
}

TEST(CheckpointedBuildTest, BuilderFacadeRoutesToCheckpointedBuild) {
  const Dataset d = testing::SmallSynthetic(60);
  KnnPipelineConfig config;
  config.algorithm = KnnAlgorithm::kHyrec;
  config.mode = SimilarityMode::kNative;
  config.greedy = SmallGreedy();

  auto plain = BuildKnnGraph(d, config);
  ASSERT_TRUE(plain.ok());
  config.checkpoint.dir = FreshDir("facade");
  auto checkpointed = BuildKnnGraph(d, config);
  ASSERT_TRUE(checkpointed.ok()) << checkpointed.status().ToString();
  ExpectGraphsIdentical(plain->graph, checkpointed->graph);

  // Checkpoint files were actually written.
  PosixEnv env;
  auto names = env.ListDirectory(config.checkpoint.dir);
  ASSERT_TRUE(names.ok());
  EXPECT_FALSE(names->empty());
}

// Without a checkpoint directory the builds never touch the Env: no
// store is opened, nothing is listed, read or written.
TEST(CheckpointedBuildTest, EmptyDirectoryMakesNoEnvCall) {
  const Dataset d = testing::SmallSynthetic(60);
  ExactJaccardProvider provider(d);
  const GreedyConfig config = SmallGreedy();
  io::FaultInjectingEnv env(io::Env::Default());
  CheckpointConfig checkpointing;
  checkpointing.env = &env;
  checkpointing.chunk_users = 8;
  ASSERT_TRUE(
      BruteForceKnn(provider, 6, nullptr, nullptr, nullptr, checkpointing)
          .ok());
  ASSERT_TRUE(
      HyrecKnn(provider, config, nullptr, nullptr, nullptr, checkpointing)
          .ok());
  ASSERT_TRUE(
      NNDescentKnn(provider, config, nullptr, nullptr, nullptr, checkpointing)
          .ok());
  ClusterConquerConfig cc;
  cc.num_clusters = 4;
  ASSERT_TRUE(ClusterConquerKnn(d, provider, cc, config, nullptr, nullptr,
                                nullptr, checkpointing)
                  .ok());
  EXPECT_EQ(env.op_count(), 0u);
}

TEST(CheckpointedBuildTest, BuilderRejectsCheckpointingForOtherAlgorithms) {
  const Dataset d = testing::SmallSynthetic(60);
  KnnPipelineConfig config;
  config.algorithm = KnnAlgorithm::kLsh;
  config.checkpoint.dir = FreshDir("reject");
  auto result = BuildKnnGraph(d, config);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace gf
