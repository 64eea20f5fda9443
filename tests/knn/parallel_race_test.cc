// Exercises every parallel KNN construction path with a real thread
// pool and concurrent AccessCounter accounting, so that a
// -DGF_SANITIZE=thread build of this binary proves the batched scoring
// path, the NeighborLists TTAS spinlocks, and the access counters are
// race-free (and an address build proves the tile/batch kernels stay in
// bounds). In plain builds these run as ordinary determinism checks.

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
  ASSERT_EQ(parallel.NumUsers(), sequential.NumUsers());
  for (UserId u = 0; u < parallel.NumUsers(); ++u) {
    const auto a = parallel.NeighborsOf(u);
    const auto b = sequential.NeighborsOf(u);
    ASSERT_EQ(a.size(), b.size()) << "user " << u;
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].id, b[i].id) << "user " << u << " slot " << i;
      ASSERT_EQ(a[i].similarity, b[i].similarity);
    }
  }
  AccessCounter::Instance().Reset();
}

TEST(ParallelRaceTest, NNDescentLockedJoinsUnderThreads) {
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
  const KnnGraph g = NNDescentKnn(provider, config, &pool, &stats).value();
  AccessCounter::Enable(false);

  // The graph is well-formed: full lists, no self loops, no duplicates.
  ASSERT_EQ(g.NumUsers(), d.NumUsers());
  for (UserId u = 0; u < g.NumUsers(); ++u) {
    const auto nb = g.NeighborsOf(u);
    ASSERT_EQ(nb.size(), config.k) << "user " << u;
    for (std::size_t i = 0; i < nb.size(); ++i) {
      EXPECT_NE(nb[i].id, u);
      for (std::size_t j = i + 1; j < nb.size(); ++j) {
        EXPECT_NE(nb[i].id, nb[j].id) << "duplicate neighbor of " << u;
      }
    }
  }
  EXPECT_GT(stats.similarity_computations, 0u);
  AccessCounter::Instance().Reset();
}

}  // namespace
}  // namespace gf
