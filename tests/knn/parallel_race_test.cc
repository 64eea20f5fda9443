// Exercises every parallel KNN construction path with a real thread
// pool and concurrent AccessCounter accounting, so that a
// -DGF_SANITIZE=thread build of this binary proves the batched scoring
// path, NNDescent's block joins (score every row, then write each row
// from its owner) and the access counters race-free (and an address
// build proves the tile/batch kernels stay in bounds). In plain builds
// these run as ordinary determinism checks.

#include <gtest/gtest.h>

#include "common/access_counter.h"
#include "common/thread_pool.h"
#include "core/fingerprint_store.h"
#include "knn/brute_force.h"
#include "knn/nndescent.h"
#include "knn/similarity_provider.h"
#include "testing/test_util.h"

namespace gf {
namespace {

FingerprintStore BuildStore(const Dataset& d, std::size_t bits) {
  FingerprintConfig config;
  config.num_bits = bits;
  auto store = FingerprintStore::Build(d, config);
  EXPECT_TRUE(store.ok());
  return std::move(store).value();
}

TEST(ParallelRaceTest, BruteForceTiledScanUnderThreads) {
  const Dataset d = testing::SmallSynthetic(300);
  const FingerprintStore store = BuildStore(d, 1024);
  GoldFingerProvider provider(store);
  ThreadPool pool(4);

  AccessCounter::Instance().Reset();
  AccessCounter::Enable(true);  // concurrent relaxed counting
  const KnnGraph parallel = BruteForceKnn(provider, 10, &pool).value();
  AccessCounter::Enable(false);

  // Thread-partitioned rows: the parallel graph equals the sequential
  // one exactly.
  const KnnGraph sequential = BruteForceKnn(provider, 10).value();
  testing::ExpectGraphsIdentical(sequential, parallel);
  AccessCounter::Instance().Reset();
}

TEST(ParallelRaceTest, NNDescentBlockJoinsUnderThreads) {
  const Dataset d = testing::SmallSynthetic(300);
  const FingerprintStore store = BuildStore(d, 256);
  GoldFingerProvider provider(store);
  ThreadPool pool(4);

  GreedyConfig config;
  config.k = 10;
  config.max_iterations = 4;
  config.seed = 17;

  AccessCounter::Instance().Reset();
  AccessCounter::Enable(true);
  KnnBuildStats stats;
  const KnnGraph parallel =
      NNDescentKnn(provider, config, &pool, &stats).value();
  AccessCounter::Enable(false);

  // Rows are written only by their owner, in the sequential order: the
  // pooled graph equals the sequential one bit for bit.
  KnnBuildStats sequential_stats;
  const KnnGraph sequential =
      NNDescentKnn(provider, config, nullptr, &sequential_stats).value();
  testing::ExpectGraphsIdentical(sequential, parallel);
  EXPECT_EQ(stats.similarity_computations,
            sequential_stats.similarity_computations);
  EXPECT_EQ(stats.updates_per_iteration,
            sequential_stats.updates_per_iteration);
  AccessCounter::Instance().Reset();
}

}  // namespace
}  // namespace gf
