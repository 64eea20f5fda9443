// Crash-recovery end to end: kill a build with a checkpoint directory
// at every scripted fault point, resume it, and require the final graph
// to be edge-for-edge identical — same neighbor ids, same similarities,
// same tie-breaks — to an uninterrupted build without one. All builds
// run single-threaded (pool = nullptr): NNDescent's cross-row
// InsertLocked updates make its result thread-schedule-dependent, and
// bitwise identity is exactly what this suite asserts.

#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "io/env.h"
#include "io/fault_env.h"
#include "knn/brute_force.h"
#include "knn/cluster_conquer.h"
#include "knn/hyrec.h"
#include "knn/nndescent.h"
#include "knn/similarity_provider.h"
#include "testing/test_util.h"

namespace gf {
namespace {

using io::FaultInjectingEnv;
using io::JoinPath;
using io::PosixEnv;
using Fault = FaultInjectingEnv::Fault;

PosixEnv* BaseEnv() {
  static PosixEnv env;
  return &env;
}

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/crash_recovery_" + name;
  auto names = BaseEnv()->ListDirectory(dir);
  if (names.ok()) {
    for (const std::string& entry : *names) {
      EXPECT_TRUE(BaseEnv()->DeleteFile(JoinPath(dir, entry)).ok());
    }
  }
  EXPECT_TRUE(BaseEnv()->CreateDirs(dir).ok());
  return dir;
}

void ExpectGraphsIdentical(const KnnGraph& a, const KnnGraph& b,
                           const std::string& context) {
  ASSERT_EQ(a.NumUsers(), b.NumUsers()) << context;
  ASSERT_EQ(a.k(), b.k()) << context;
  for (UserId u = 0; u < a.NumUsers(); ++u) {
    const auto na = a.NeighborsOf(u);
    const auto nb = b.NeighborsOf(u);
    ASSERT_EQ(na.size(), nb.size()) << context << ", user " << u;
    for (std::size_t i = 0; i < na.size(); ++i) {
      ASSERT_EQ(na[i].id, nb[i].id)
          << context << ", user " << u << ", rank " << i;
      ASSERT_EQ(na[i].similarity, nb[i].similarity)
          << context << ", user " << u << ", rank " << i;
    }
  }
}

/// One resumable-build scenario: `run(config)` executes the build
/// against whatever Env the config carries and returns its result.
using BuildFn =
    std::function<Result<KnnGraph>(const CheckpointConfig& config)>;

/// The full crash matrix for one algorithm: count the checkpoint writes
/// of a clean run, then for every write index and both failure shapes
/// (clean IOError, torn write) kill the build there, resume, and demand
/// the baseline graph.
void RunCrashMatrix(const std::string& tag, const KnnGraph& baseline,
                    const BuildFn& build) {
  // Clean run with a checkpoint directory: must already match the build
  // without one, and tells us how many checkpoint writes it performs.
  uint64_t writes = 0;
  {
    FaultInjectingEnv env(BaseEnv());
    CheckpointConfig config;
    config.dir = FreshDir(tag + "_clean");
    config.env = &env;
    auto graph = build(config);
    ASSERT_TRUE(graph.ok()) << graph.status().ToString();
    ExpectGraphsIdentical(baseline, *graph, tag + " clean run");
    writes = env.write_count();
  }
  ASSERT_GT(writes, 0u) << tag << ": the scenario never checkpointed; "
                           "shrink chunk_users or the dataset";

  for (uint64_t fail_at = 1; fail_at <= writes; ++fail_at) {
    for (const bool torn : {false, true}) {
      const std::string context =
          tag + (torn ? " torn write " : " IOError at write ") +
          std::to_string(fail_at);
      const std::string dir =
          FreshDir(tag + "_w" + std::to_string(fail_at) +
                   (torn ? "_torn" : "_err"));

      // Crash the build at the scripted write. Torn writes leave a
      // garbage prefix under the final checkpoint name — the worst case
      // a non-atomic file system can produce.
      FaultInjectingEnv env(BaseEnv());
      Fault fault;
      if (torn) {
        fault.kind = Fault::Kind::kTornWrite;
        fault.keep_bytes = 24;  // header survives, payload torn off
      } else {
        fault.kind = Fault::Kind::kError;
      }
      env.InjectWriteFault(fail_at, fault);

      CheckpointConfig config;
      config.dir = dir;
      config.env = &env;
      auto crashed = build(config);
      ASSERT_FALSE(crashed.ok()) << context << ": build survived the fault";
      ASSERT_EQ(crashed.status().code(), StatusCode::kIOError) << context;

      // Resume on a healthy environment.
      env.ClearFaults();
      config.resume = true;
      auto resumed = build(config);
      ASSERT_TRUE(resumed.ok())
          << context << ": resume failed: " << resumed.status().ToString();
      ExpectGraphsIdentical(baseline, *resumed, context);
    }
  }
}

TEST(CrashRecoveryTest, BruteForce) {
  const Dataset d = testing::SmallSynthetic(100);
  ExactJaccardProvider provider(d);
  const KnnGraph baseline = BruteForceKnn(provider, 6).value();
  RunCrashMatrix("bruteforce", baseline, [&](const CheckpointConfig& base) {
    CheckpointConfig config = base;
    config.chunk_users = 25;
    return BruteForceKnn(provider, 6, nullptr, nullptr, nullptr, config);
  });
}

TEST(CrashRecoveryTest, Hyrec) {
  const Dataset d = testing::SmallSynthetic(100);
  ExactJaccardProvider provider(d);
  GreedyConfig greedy;
  greedy.k = 6;
  greedy.max_iterations = 6;
  greedy.seed = 17;
  const KnnGraph baseline = HyrecKnn(provider, greedy).value();
  RunCrashMatrix("hyrec", baseline, [&](const CheckpointConfig& config) {
    return HyrecKnn(provider, greedy, nullptr, nullptr, nullptr, config);
  });
}

TEST(CrashRecoveryTest, NNDescent) {
  const Dataset d = testing::SmallSynthetic(100);
  ExactJaccardProvider provider(d);
  GreedyConfig greedy;
  greedy.k = 6;
  greedy.max_iterations = 6;
  greedy.seed = 17;
  const KnnGraph baseline = NNDescentKnn(provider, greedy).value();
  RunCrashMatrix("nndescent", baseline, [&](const CheckpointConfig& config) {
    return NNDescentKnn(provider, greedy, nullptr, nullptr, nullptr, config);
  });
}

// Cluster-and-Conquer snapshots after every wave of `every` clusters;
// a crash at any of those writes must resume to the uninterrupted graph
// (the conquer merge is order-independent, so replaying the tail of the
// cluster sequence over the restored lists changes nothing).
TEST(CrashRecoveryTest, ClusterConquer) {
  const Dataset d = testing::SmallSynthetic(100);
  ExactJaccardProvider provider(d);
  GreedyConfig greedy;
  greedy.k = 6;
  greedy.max_iterations = 6;
  greedy.seed = 17;
  ClusterConquerConfig cc;
  cc.num_clusters = 7;
  cc.assignments = 2;
  cc.sketch_bits = 128;
  cc.band_bits = 8;
  cc.inner = ClusterConquerInner::kHyrec;
  const KnnGraph baseline =
      ClusterConquerKnn(d, provider, cc, greedy).value();
  RunCrashMatrix("cluster_conquer", baseline,
                 [&](const CheckpointConfig& base) {
                   CheckpointConfig config = base;
                   config.every = 2;
                   return ClusterConquerKnn(d, provider, cc, greedy, nullptr,
                                            nullptr, nullptr, config);
                 });
}

// A hard kill mid-build (every I/O operation failing from a scripted
// global index, not just one write) must also leave a resumable
// directory.
TEST(CrashRecoveryTest, HardKillSwitchThenResume) {
  const Dataset d = testing::SmallSynthetic(100);
  ExactJaccardProvider provider(d);
  const KnnGraph baseline = BruteForceKnn(provider, 6).value();

  uint64_t total_ops = 0;
  {
    FaultInjectingEnv env(BaseEnv());
    CheckpointConfig config;
    config.dir = FreshDir("kill_count");
    config.env = &env;
    config.chunk_users = 25;
    ASSERT_TRUE(
        BruteForceKnn(provider, 6, nullptr, nullptr, nullptr, config).ok());
    total_ops = env.op_count();
  }
  ASSERT_GT(total_ops, 2u);

  // Kill at every operation index. A kill that only hits best-effort
  // maintenance (checkpoint pruning) may let the build finish — then
  // the graph must already be correct; otherwise the build must abort
  // and a resume on a healthy environment must recover the baseline.
  std::size_t aborts = 0;
  for (uint64_t kill_at = 1; kill_at <= total_ops; ++kill_at) {
    const std::string context = "kill at op " + std::to_string(kill_at);
    FaultInjectingEnv env(BaseEnv());
    const std::string dir =
        FreshDir("kill_at_" + std::to_string(kill_at));
    CheckpointConfig config;
    config.dir = dir;
    config.env = &env;
    config.chunk_users = 25;
    env.FailFrom(kill_at);
    auto crashed =
        BruteForceKnn(provider, 6, nullptr, nullptr, nullptr, config);
    if (crashed.ok()) {
      ExpectGraphsIdentical(baseline, *crashed, context + " (survived)");
      continue;
    }
    ++aborts;

    env.ClearFaults();
    config.resume = true;
    auto resumed =
        BruteForceKnn(provider, 6, nullptr, nullptr, nullptr, config);
    ASSERT_TRUE(resumed.ok())
        << context << ": resume failed: " << resumed.status().ToString();
    ExpectGraphsIdentical(baseline, *resumed, context);
  }
  EXPECT_GT(aborts, 0u);
}

}  // namespace
}  // namespace gf
