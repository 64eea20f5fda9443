// Candidate-source seam tests: each source proposes the ids it
// promises, the composed engine rescores exactly (its answer is always
// a subsequence of the full exact ranking), later sources are only
// consulted when earlier ones come up short, and the
// SnapshotQueryEngine candidate mode serves and caches end to end.

#include "knn/candidate_source.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <vector>

#include "common/bit_util.h"
#include "common/random.h"
#include "core/store_snapshot.h"
#include "knn/query.h"
#include "knn/snapshot_query.h"
#include "obs/metrics.h"
#include "obs/pipeline_context.h"

namespace gf {
namespace {

FingerprintStore RandomStore(std::size_t users, std::size_t bits, Rng& rng) {
  const std::size_t words_per_shf = bits::WordsForBits(bits);
  std::vector<uint64_t> words(users * words_per_shf);
  for (auto& w : words) w = rng.Next() & rng.Next();
  std::vector<uint32_t> cards(users);
  for (std::size_t u = 0; u < users; ++u) {
    cards[u] =
        bits::PopCount({words.data() + u * words_per_shf, words_per_shf});
  }
  FingerprintConfig config;
  config.num_bits = bits;
  return FingerprintStore::FromRaw(config, users, std::move(words),
                                   std::move(cards))
      .value();
}

// Proposes every stored user — makes the candidate engine exhaustive.
class AllUsersSource final : public CandidateSource {
 public:
  explicit AllUsersSource(std::size_t n) : n_(n) {}
  std::string_view name() const override { return "all"; }
  void Collect(const Shf&, std::size_t,
               std::vector<UserId>* out) const override {
    for (std::size_t u = 0; u < n_; ++u) {
      out->push_back(static_cast<UserId>(u));
    }
  }

 private:
  std::size_t n_;
};

// Proposes a fixed id list and counts how often it was consulted.
class CountingSource final : public CandidateSource {
 public:
  CountingSource(std::vector<UserId> ids) : ids_(std::move(ids)) {}
  std::string_view name() const override { return "counting"; }
  void Collect(const Shf&, std::size_t,
               std::vector<UserId>* out) const override {
    calls.fetch_add(1, std::memory_order_relaxed);
    out->insert(out->end(), ids_.begin(), ids_.end());
  }

  mutable std::atomic<int> calls{0};

 private:
  std::vector<UserId> ids_;
};

TEST(CandidateSourceTest, PopularityProposesHighestCardinalityUsers) {
  Rng rng(0xC0DE01);
  const auto store = RandomStore(40, 128, rng);
  PopularityCandidateSource source(store, 8);
  ASSERT_EQ(source.popular().size(), 8u);

  // The proposed set is exactly the top-8 by (cardinality desc, id asc).
  std::vector<UserId> expected(store.num_users());
  for (std::size_t u = 0; u < store.num_users(); ++u) {
    expected[u] = static_cast<UserId>(u);
  }
  std::sort(expected.begin(), expected.end(), [&](UserId a, UserId b) {
    const uint32_t ca = store.Cardinalities()[a];
    const uint32_t cb = store.Cardinalities()[b];
    return ca != cb ? ca > cb : a < b;
  });
  expected.resize(8);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(source.popular()[i], expected[i]) << "rank " << i;
  }

  std::vector<UserId> out;
  source.Collect(store.Extract(0), 5, &out);
  EXPECT_EQ(out.size(), 8u);
}

TEST(CandidateSourceTest, BandedSourceFindsTheStoredDuplicate) {
  Rng rng(0xC0DE02);
  const auto store = RandomStore(60, 256, rng);
  auto engine =
      BandedShfQueryEngine::Build(store, BandedShfQueryEngine::Options{});
  ASSERT_TRUE(engine.ok());
  BandedCandidateSource source(&*engine);

  // A stored row collides with itself in every band: it must be among
  // its own candidates.
  std::vector<UserId> out;
  source.Collect(store.Extract(17), 5, &out);
  EXPECT_NE(std::find(out.begin(), out.end(), UserId{17}), out.end());
}

TEST(CandidateSourceTest, RecentAnswersSeedsNearestRecordedQuery) {
  RecentAnswers recent(4);
  auto qa = Shf::Create(128);
  ASSERT_TRUE(qa.ok());
  qa->SetBit(1);
  qa->SetBit(2);
  auto qb = Shf::Create(128);
  ASSERT_TRUE(qb.ok());
  qb->SetBit(100);

  const std::vector<Neighbor> ra = {{UserId{1}, 0.5f}, {UserId{2}, 0.25f}};
  const std::vector<Neighbor> rb = {{UserId{9}, 0.5f}};
  recent.Record(*qa, ra);
  recent.Record(*qb, rb);
  EXPECT_EQ(recent.size(), 2u);

  // A probe identical to qa maps to qa's ids; an impossible threshold
  // returns nothing.
  const std::vector<UserId> seeds = recent.NearestSeeds(*qa, 0.5);
  ASSERT_EQ(seeds.size(), 2u);
  EXPECT_EQ(seeds[0], UserId{1});
  EXPECT_EQ(seeds[1], UserId{2});
  EXPECT_TRUE(recent.NearestSeeds(*qa, 1.5).empty());
}

TEST(CandidateSourceTest, GraphSourceExpandsSeedsOneHop) {
  RecentAnswers recent(4);
  auto query = Shf::Create(128);
  ASSERT_TRUE(query.ok());
  query->SetBit(5);
  const std::vector<Neighbor> answer = {{UserId{1}, 0.5f}, {UserId{2}, 0.5f}};
  recent.Record(*query, answer);

  // Graph: 1 -> {3}, 2 -> {4}; everyone else empty.
  const std::size_t n = 6, k = 2;
  std::vector<Neighbor> edges(n * k);
  std::vector<uint32_t> counts(n, 0);
  edges[1 * k] = {UserId{3}, 0.9f};
  counts[1] = 1;
  edges[2 * k] = {UserId{4}, 0.8f};
  counts[2] = 1;
  auto graph =
      std::make_shared<const KnnGraph>(n, k, std::move(edges), std::move(counts));

  GraphNeighborsSource source(&recent, graph, n);
  std::vector<UserId> out;
  source.Collect(*query, 3, &out);
  for (UserId expected : {UserId{1}, UserId{2}, UserId{3}, UserId{4}}) {
    EXPECT_NE(std::find(out.begin(), out.end(), expected), out.end())
        << "missing " << expected;
  }

  // Without a graph the seeds still go in, unexpanded.
  GraphNeighborsSource no_graph(&recent, nullptr, n);
  out.clear();
  no_graph.Collect(*query, 3, &out);
  EXPECT_NE(std::find(out.begin(), out.end(), UserId{1}), out.end());
  EXPECT_EQ(std::find(out.begin(), out.end(), UserId{3}), out.end());
}

TEST(CandidateSourceTest, GraphSourceSeedsFromSimilarAnswersAndCapsSeeds) {
  // Seeds come only from an answer whose query estimates >= 0.05
  // similar: against a recorded 40-bit query, a 20-bit probe sharing 3
  // bits estimates 3/57 ~ 0.053, one sharing 2 bits 2/58 ~ 0.034.
  RecentAnswers recent(4);
  auto recorded = Shf::Create(128);
  ASSERT_TRUE(recorded.ok());
  for (std::size_t bit = 0; bit < 40; ++bit) recorded->SetBit(bit);
  const std::vector<Neighbor> answer = {{UserId{1}, 0.5f}, {UserId{2}, 0.5f}};
  recent.Record(*recorded, answer);
  auto probe = [](std::size_t shared) {
    Shf shf = Shf::Create(128).value();
    for (std::size_t bit = 0; bit < shared; ++bit) shf.SetBit(bit);
    for (std::size_t bit = 40; bit < 60 - shared; ++bit) shf.SetBit(bit);
    return shf;
  };
  const std::size_t n = 40;
  GraphNeighborsSource source(&recent, nullptr, n);
  std::vector<UserId> out;
  source.Collect(probe(3), 5, &out);
  EXPECT_EQ(out, (std::vector<UserId>{1, 2}));
  out.clear();
  source.Collect(probe(2), 5, &out);
  EXPECT_TRUE(out.empty());

  // Only the first 16 ids of the nearest answer are expanded. Graph:
  // u -> {u + 20} for every u < 20.
  RecentAnswers long_answer(4);
  auto query = Shf::Create(128);
  ASSERT_TRUE(query.ok());
  query->SetBit(5);
  std::vector<Neighbor> ids;
  for (UserId u = 0; u < 20; ++u) ids.push_back({u, 0.5f});
  long_answer.Record(*query, ids);
  std::vector<Neighbor> edges(n);
  std::vector<uint32_t> counts(n, 0);
  for (UserId u = 0; u < 20; ++u) {
    edges[u] = {static_cast<UserId>(u + 20), 0.9f};
    counts[u] = 1;
  }
  auto graph = std::make_shared<const KnnGraph>(n, 1, std::move(edges),
                                                std::move(counts));
  GraphNeighborsSource capped(&long_answer, graph, n);
  out.clear();
  capped.Collect(*query, 5, &out);
  std::sort(out.begin(), out.end());
  std::vector<UserId> expected;
  for (UserId u = 0; u < 16; ++u) expected.push_back(u);
  for (UserId u = 20; u < 36; ++u) expected.push_back(u);
  EXPECT_EQ(out, expected);
}

TEST(CandidateSourceTest, EngineWithExhaustiveSourceMatchesScan) {
  Rng rng(0xC0DE03);
  const auto store = RandomStore(50, 128, rng);
  AllUsersSource all(store.num_users());
  CandidateQueryEngine engine(&store, {&all}, CandidateQueryEngine::Options{});

  const ScanQueryEngine scan(store);
  for (UserId u : {UserId{0}, UserId{13}, UserId{42}}) {
    const Shf query = store.Extract(u);
    auto got = engine.Query(query, 7);
    ASSERT_TRUE(got.ok());
    auto expected = scan.Query(query, 7);
    ASSERT_TRUE(expected.ok());
    ASSERT_EQ(got->size(), expected->size());
    for (std::size_t i = 0; i < got->size(); ++i) {
      EXPECT_EQ((*got)[i].id, (*expected)[i].id);
      EXPECT_EQ((*got)[i].similarity, (*expected)[i].similarity);
    }
  }
}

TEST(CandidateSourceTest, AnswerIsASubsequenceOfTheExactRanking) {
  // Whatever a partial source proposes, the engine's answer must list
  // those candidates in exactly the order (and with exactly the
  // scores) of the full exact ranking — rescoring is never approximate.
  Rng rng(0xC0DE04);
  const auto store = RandomStore(64, 128, rng);
  CountingSource partial({UserId{3}, UserId{8}, UserId{21}, UserId{40},
                          UserId{55}});
  CandidateQueryEngine::Options options;
  options.min_candidates = 1;
  CandidateQueryEngine engine(&store, {&partial}, options);

  const Shf query = store.Extract(10);
  auto got = engine.Query(query, 3);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->size(), 3u);

  const ScanQueryEngine scan(store);
  auto full = scan.Query(query, store.num_users());
  ASSERT_TRUE(full.ok());
  std::size_t cursor = 0;
  for (const Neighbor& neighbor : *got) {
    while (cursor < full->size() && (*full)[cursor].id != neighbor.id) {
      ++cursor;
    }
    ASSERT_LT(cursor, full->size()) << "id " << neighbor.id
                                    << " out of ranking order";
    EXPECT_EQ(neighbor.similarity, (*full)[cursor].similarity);
  }
}

TEST(CandidateSourceTest, LaterSourcesAreOnlyConsultedWhenShort) {
  Rng rng(0xC0DE05);
  const auto store = RandomStore(30, 128, rng);
  std::vector<UserId> many;
  for (UserId u = 0; u < 10; ++u) many.push_back(u);
  CountingSource first(many);
  CountingSource fallback({UserId{20}});

  CandidateQueryEngine::Options options;
  options.min_candidates = 5;  // first source alone satisfies this
  CandidateQueryEngine engine(&store, {&first, &fallback}, options);
  ASSERT_TRUE(engine.Query(store.Extract(0), 3).ok());
  EXPECT_EQ(first.calls.load(), 1);
  EXPECT_EQ(fallback.calls.load(), 0);

  options.min_candidates = 15;  // now the fallback must be consulted
  CandidateQueryEngine hungry(&store, {&first, &fallback}, options);
  ASSERT_TRUE(hungry.Query(store.Extract(0), 3).ok());
  EXPECT_EQ(fallback.calls.load(), 1);
}

TEST(CandidateSourceTest, SnapshotEngineCandidateModeServesAndCaches) {
  Rng rng(0xC0DE06);
  const auto store = RandomStore(80, 256, rng);
  FixedSnapshotSource source(store);

  obs::MetricRegistry registry;
  obs::PipelineContext obs{.metrics = &registry};
  SnapshotQueryEngine::Options options;
  options.use_candidate_sources = true;
  options.cache_capacity = 64;
  SnapshotQueryEngine engine(&source, options, nullptr, &obs);

  std::vector<Shf> queries;
  for (UserId u = 0; u < 8; ++u) queries.push_back(store.Extract(u));

  auto first = engine.QueryBatch(queries, 5);
  ASSERT_TRUE(first.ok());
  // A stored row's best candidate is itself (the banded source always
  // finds the exact duplicate).
  for (std::size_t q = 0; q < queries.size(); ++q) {
    ASSERT_FALSE((*first)[q].empty()) << "query " << q;
    EXPECT_EQ((*first)[q][0].id, static_cast<UserId>(q));
  }

  // The second pass replays from the L1 cache, bit-identically.
  auto second = engine.QueryBatch(queries, 5);
  ASSERT_TRUE(second.ok());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    ASSERT_EQ((*first)[q].size(), (*second)[q].size());
    for (std::size_t i = 0; i < (*first)[q].size(); ++i) {
      EXPECT_EQ((*first)[q][i].id, (*second)[q][i].id);
      EXPECT_EQ((*first)[q][i].similarity, (*second)[q][i].similarity);
    }
  }
  EXPECT_EQ(registry.GetCounter("cache.hits")->value(), queries.size());
  EXPECT_GT(registry.GetCounter("candidates.banded")->value(), 0u);
}

}  // namespace
}  // namespace gf
