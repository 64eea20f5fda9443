#include "knn/hyrec.h"

#include <gtest/gtest.h>

#include <bit>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "knn/brute_force.h"
#include "knn/quality.h"
#include "knn/similarity_provider.h"
#include "testing/test_util.h"

namespace gf {
namespace {

GreedyConfig Config(std::size_t k = 10) {
  GreedyConfig c;
  c.k = k;
  c.seed = 99;
  return c;
}

TEST(HyrecTest, ConvergesToHighQualityGraph) {
  const Dataset d = testing::SmallSynthetic(300);
  ExactJaccardProvider provider(d);
  KnnBuildStats stats;
  const KnnGraph approx = HyrecKnn(provider, Config(), nullptr, &stats).value();
  const KnnGraph exact = BruteForceKnn(provider, 10).value();

  const double approx_avg = AverageExactSimilarity(approx, d);
  const double exact_avg = AverageExactSimilarity(exact, d);
  EXPECT_GT(GraphQuality(approx_avg, exact_avg), 0.9);
}

TEST(HyrecTest, ComputesFarFewerSimilaritiesThanBruteForce) {
  // Greedy refinement beats exhaustive search once n >> k^2; test at a
  // scale with clear margin (the paper's datasets have n >= 6k users).
  const Dataset d = testing::SmallSynthetic(1600);
  ExactJaccardProvider provider(d);
  KnnBuildStats stats;
  HyrecKnn(provider, Config(8), nullptr, &stats);
  const auto brute_pairs =
      static_cast<uint64_t>(d.NumUsers()) * (d.NumUsers() - 1);
  EXPECT_LT(stats.similarity_computations, brute_pairs / 2);
  EXPECT_LT(stats.ScanRate(d.NumUsers()), 1.0);
}

TEST(HyrecTest, TerminatesWithinMaxIterations) {
  const Dataset d = testing::SmallSynthetic(200);
  ExactJaccardProvider provider(d);
  GreedyConfig config = Config();
  config.max_iterations = 4;
  KnnBuildStats stats;
  HyrecKnn(provider, config, nullptr, &stats);
  EXPECT_LE(stats.iterations, 4u);
  EXPECT_EQ(stats.updates_per_iteration.size(), stats.iterations);
}

TEST(HyrecTest, DeltaTerminationStopsEarly) {
  const Dataset d = testing::SmallSynthetic(150);
  ExactJaccardProvider provider(d);
  GreedyConfig config = Config();
  config.delta = 1.0;  // huge threshold: stop after first iteration
  KnnBuildStats stats;
  HyrecKnn(provider, config, nullptr, &stats);
  EXPECT_LE(stats.iterations, 2u);
}

TEST(HyrecTest, UpdatesDecreaseOverIterations) {
  const Dataset d = testing::SmallSynthetic(300);
  ExactJaccardProvider provider(d);
  KnnBuildStats stats;
  HyrecKnn(provider, Config(), nullptr, &stats);
  ASSERT_GE(stats.updates_per_iteration.size(), 2u);
  // Greedy refinement converges: last iteration changes far fewer
  // entries than the first.
  EXPECT_LT(stats.updates_per_iteration.back(),
            stats.updates_per_iteration.front() / 2);
}

TEST(HyrecTest, DeterministicGivenSeedSequential) {
  const Dataset d = testing::SmallSynthetic(120);
  ExactJaccardProvider provider(d);
  const KnnGraph a = HyrecKnn(provider, Config(), nullptr).value();
  const KnnGraph b = HyrecKnn(provider, Config(), nullptr).value();
  for (UserId u = 0; u < d.NumUsers(); ++u) {
    const auto na = a.NeighborsOf(u);
    const auto nb = b.NeighborsOf(u);
    ASSERT_EQ(na.size(), nb.size());
    for (std::size_t i = 0; i < na.size(); ++i) {
      EXPECT_EQ(na[i].id, nb[i].id);
    }
  }
}

TEST(HyrecTest, ParallelRunReachesSameQuality) {
  const Dataset d = testing::SmallSynthetic(250);
  ExactJaccardProvider provider(d);
  ThreadPool pool(4);
  const KnnGraph exact = BruteForceKnn(provider, 10).value();
  const double exact_avg = AverageExactSimilarity(exact, d);
  const KnnGraph par = HyrecKnn(provider, Config(), &pool).value();
  EXPECT_GT(GraphQuality(AverageExactSimilarity(par, d), exact_avg), 0.9);
}

TEST(HyrecTest, TinyDatasetDegenerate) {
  const Dataset d = testing::TinyDataset();
  ExactJaccardProvider provider(d);
  const KnnGraph g = HyrecKnn(provider, Config(2), nullptr).value();
  // With 4 users and k=2 Hyrec behaves like an exhaustive search.
  ASSERT_EQ(g.NeighborsOf(0).size(), 2u);
  EXPECT_EQ(g.NeighborsOf(0)[0].id, 2u);  // the identical profile
}

TEST(HyrecTest, WorksWithGoldFingerProvider) {
  const Dataset d = testing::SmallSynthetic(200);
  FingerprintConfig fc;
  fc.num_bits = 1024;
  auto store = FingerprintStore::Build(d, fc);
  ASSERT_TRUE(store.ok());
  GoldFingerProvider provider(*store);
  KnnBuildStats stats;
  const KnnGraph g = HyrecKnn(provider, Config(), nullptr, &stats).value();

  ExactJaccardProvider exact_provider(d);
  const KnnGraph exact = BruteForceKnn(exact_provider, 10).value();
  const double q = GraphQuality(AverageExactSimilarity(g, d),
                                AverageExactSimilarity(exact, d));
  EXPECT_GT(q, 0.8);  // paper Table 4: Hyrec+GolFi quality ~0.78-0.93
}

TEST(HyrecTest, BatchScoringMatchesPerPairScoringExactly) {
  // Same store, same seed: the ScoreBatch path must walk the identical
  // refinement trajectory as the per-pair path (batch scores are
  // bit-exact and applied in the same order), so the final graphs are
  // identical down to tie-breaks.
  const Dataset d = testing::SmallSynthetic(200);
  FingerprintConfig fc;
  fc.num_bits = 256;
  auto store = FingerprintStore::Build(d, fc);
  ASSERT_TRUE(store.ok());

  struct PerPairProvider {
    const FingerprintStore* store;
    std::size_t num_users() const { return store->num_users(); }
    double operator()(UserId a, UserId b) const {
      return store->EstimateJaccard(a, b);
    }
  };
  static_assert(BatchSimilarityProvider<GoldFingerProvider>);
  static_assert(!BatchSimilarityProvider<PerPairProvider>);

  GoldFingerProvider batched(*store);
  PerPairProvider per_pair{&*store};
  KnnBuildStats bs, ps;
  const KnnGraph gb = HyrecKnn(batched, Config(), nullptr, &bs).value();
  const KnnGraph gp = HyrecKnn(per_pair, Config(), nullptr, &ps).value();

  EXPECT_EQ(bs.similarity_computations, ps.similarity_computations);
  EXPECT_EQ(bs.iterations, ps.iterations);
  ASSERT_EQ(gb.NumUsers(), gp.NumUsers());
  for (UserId u = 0; u < gb.NumUsers(); ++u) {
    const auto a = gb.NeighborsOf(u);
    const auto b = gp.NeighborsOf(u);
    ASSERT_EQ(a.size(), b.size()) << "user " << u;
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].id, b[i].id) << "user " << u << " slot " << i;
      ASSERT_EQ(a[i].similarity, b[i].similarity);
    }
  }
}

// The paper's step, the reference HyrecStep must match: u is scored
// against every neighbor-of-neighbor in the snapshot, whatever the
// entries' is_new flags say.
struct RescanCounts {
  uint64_t updates = 0;
  uint64_t scored = 0;
};

template <typename Provider>
RescanCounts FullRescanStep(const Provider& provider, NeighborLists& lists) {
  const std::size_t n = lists.num_users();
  std::vector<std::vector<UserId>> snapshot(n);
  for (UserId u = 0; u < n; ++u) {
    for (const NeighborLists::Entry& entry : lists.Of(u)) {
      snapshot[u].push_back(entry.id);
    }
  }
  CandidateSet marked(n);
  std::vector<UserId> candidates;
  OfferScratch scratch;
  RescanCounts counts;
  for (UserId u = 0; u < n; ++u) {
    for (const UserId v : snapshot[u]) {
      for (const UserId w : snapshot[v]) marked.Insert(w);
    }
    marked.Erase(u);
    for (const UserId v : snapshot[u]) marked.Erase(v);
    candidates.clear();
    marked.Drain(candidates);
    counts.updates += OfferCandidates(provider, u, candidates, lists, scratch);
    counts.scored += candidates.size();
  }
  return counts;
}

// Pairs scored over a whole build by HyrecStep and by FullRescanStep.
struct ScoredPairs {
  uint64_t incremental = 0;
  uint64_t rescan = 0;
};

// Where a compared build starts.
enum class Start {
  kHyrecInit,           // HyrecInit's k random neighbors per row
  kTwoRandomNeighbors,  // two random neighbors per row, scored
};

template <typename Provider>
void StartBuild(const Provider& provider, Start start,
                const GreedyConfig& config, HyrecState& state,
                ThreadPool* pool) {
  if (start == Start::kHyrecInit) {
    HyrecInit(provider, config, state, pool);
    return;
  }
  const std::size_t n = provider.num_users();
  Rng rng(config.seed);
  std::vector<double> sims(2);
  const auto other = [&](UserId u) {
    return static_cast<UserId>((u + 1 + rng.Below(n - 1)) % n);
  };
  for (UserId u = 0; u < n; ++u) {
    const UserId a = other(u);
    UserId b = other(u);
    while (b == a) b = other(u);
    const UserId row[2] = {a, b};
    ScoreCandidates(provider, u, row, sims);
    for (int i = 0; i < 2; ++i) state.lists.Insert(u, row[i], sims[i]);
  }
}

// How the pairs HyrecStep scores over a whole build compare with the
// full rescan's.
enum class Scored {
  kFewer,  // rows fill, and a w that only old edges reach is skipped
  kEqual,  // no row ever refuses a pair, so such a w is always held
  kNone,   // every row already holds all n - 1 others
};

// Runs HyrecStep and FullRescanStep side by side from the same start
// until HyrecStep converges; after every step the rows must agree slot
// for slot (ids and float bits) and so must the updates, and HyrecStep
// may not score more pairs.
template <typename Provider>
void ExpectStepsMatchRescan(const Provider& provider, std::size_t k,
                            uint64_t seed, ThreadPool* pool, Start start,
                            const std::string& label,
                            ScoredPairs* scored_pairs) {
  GreedyConfig config;
  config.k = k;
  config.seed = seed;
  config.delta = 0.0;  // step until an iteration changes nothing
  config.max_iterations = 25;
  const std::size_t n = provider.num_users();
  HyrecState state(n, k);
  HyrecState reference(n, k);
  StartBuild(provider, start, config, state, pool);
  StartBuild(provider, start, config, reference, pool);
  for (std::size_t step = 1; step <= config.max_iterations; ++step) {
    const std::string at = label + " step " + std::to_string(step);
    const uint64_t before = state.computations;
    const bool converged = HyrecStep(provider, config, state, pool);
    const uint64_t scored = state.computations - before;
    const RescanCounts want = FullRescanStep(provider, reference.lists);
    EXPECT_EQ(state.updates_per_iteration.back(), want.updates) << at;
    EXPECT_LE(scored, want.scored) << at;
    scored_pairs->incremental += scored;
    scored_pairs->rescan += want.scored;
    for (UserId u = 0; u < n; ++u) {
      const auto got = state.lists.Of(u);
      const auto expected = reference.lists.Of(u);
      ASSERT_EQ(got.size(), expected.size()) << at << " user " << u;
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].id, expected[i].id)
            << at << " user " << u << " slot " << i;
        ASSERT_EQ(std::bit_cast<uint32_t>(got[i].similarity),
                  std::bit_cast<uint32_t>(expected[i].similarity))
            << at << " user " << u << " slot " << i;
      }
    }
    if (converged) break;
  }
}

// Every k in `ks`, on pools of 1 and 4 threads, over three seeds: the
// incremental steps build the full rescan's rows and updates, and over
// each whole build they score pairs as `scored` says.
template <typename Provider>
void ExpectIncrementalStepsMatchRescan(const Provider& provider,
                                       const std::string& name,
                                       std::initializer_list<std::size_t> ks,
                                       Start start, Scored scored) {
  ThreadPool one(1);
  ThreadPool four(4);
  for (const std::size_t k : ks) {
    for (ThreadPool* pool : {&one, &four}) {
      for (const uint64_t seed : {1u, 2u, 3u}) {
        const std::string label =
            name + " k=" + std::to_string(k) + " threads=" +
            std::to_string(pool->num_threads()) +
            " seed=" + std::to_string(seed);
        ScoredPairs pairs;
        ExpectStepsMatchRescan(provider, k, seed, pool, start, label, &pairs);
        switch (scored) {
          case Scored::kFewer:
            EXPECT_LT(pairs.incremental, pairs.rescan) << label;
            break;
          case Scored::kEqual:
            EXPECT_GT(pairs.rescan, 0u) << label;
            EXPECT_EQ(pairs.incremental, pairs.rescan) << label;
            break;
          case Scored::kNone:
            EXPECT_EQ(pairs.rescan, 0u) << label;
            break;
        }
      }
    }
  }
}

TEST(HyrecTest, IncrementalStepsMatchFullRescanGoldFinger) {
  const Dataset d = testing::SmallSynthetic(300);
  FingerprintConfig fc;
  fc.num_bits = 256;
  const FingerprintStore store = FingerprintStore::Build(d, fc).value();
  const GoldFingerProvider provider(store);
  static_assert(IntersectionCountProvider<GoldFingerProvider>);
  ExpectIncrementalStepsMatchRescan(provider, "goldfinger", {1, 5, 30},
                                    Start::kHyrecInit, Scored::kFewer);
}

TEST(HyrecTest, IncrementalStepsMatchFullRescanExactJaccard) {
  const Dataset d = testing::SmallSynthetic(300);
  const ExactJaccardProvider provider(d);
  static_assert(!IntersectionCountProvider<ExactJaccardProvider>);
  ExpectIncrementalStepsMatchRescan(provider, "exact", {1, 5, 30},
                                    Start::kHyrecInit, Scored::kFewer);
}

// With k >= n - 1 no floor ever refuses a pair. HyrecInit already
// gives every row all n - 1 other users, and no step finds a
// candidate. From two random neighbors per row instead, the rows grow
// over several steps and every offer is an insert; the incremental
// steps still match the rescan, and score exactly as many pairs: a w
// that only old edges reach was offered before, so u's row holds it
// and it is erased on both sides.
TEST(HyrecTest, IncrementalStepsMatchFullRescanWhereRowsNeverFill) {
  const Dataset d = testing::SmallSynthetic(40);
  const std::size_t n = d.NumUsers();
  FingerprintConfig fc;
  fc.num_bits = 256;
  const FingerprintStore store = FingerprintStore::Build(d, fc).value();
  const GoldFingerProvider goldfinger(store);
  const ExactJaccardProvider exact(d);
  ExpectIncrementalStepsMatchRescan(goldfinger, "goldfinger init", {n - 1, n},
                                    Start::kHyrecInit, Scored::kNone);
  ExpectIncrementalStepsMatchRescan(goldfinger, "goldfinger sparse",
                                    {n - 1, n}, Start::kTwoRandomNeighbors,
                                    Scored::kEqual);
  ExpectIncrementalStepsMatchRescan(exact, "exact init", {n - 1, n},
                                    Start::kHyrecInit, Scored::kNone);
  ExpectIncrementalStepsMatchRescan(exact, "exact sparse", {n - 1, n},
                                    Start::kTwoRandomNeighbors,
                                    Scored::kEqual);
}

}  // namespace
}  // namespace gf
