// OfferCandidates against the loop it replaces: score every candidate
// (ScoreCandidates), then Insert the pairs in order. The fused offer
// counts intersections and skips the pairs that cannot beat a full
// row's floor, so these tests pin what that skip must leave unchanged:
// every row, slot for slot, and the number of updates, with candidates
// whose Eq. 4 value ties the row's floor and users with no bit set
// (a union of 0) among the offers.

#include "knn/graph.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/fingerprint_store.h"
#include "knn/cluster_conquer.h"
#include "knn/similarity_provider.h"

namespace gf {
namespace {

constexpr std::size_t kUsers = 160;

// The fused path is taken through every wrapper of the Jaccard
// provider, and never for a similarity that is not Eq. 4.
static_assert(IntersectionCountProvider<GoldFingerProvider>);
static_assert(IntersectionCountProvider<CountingProvider<GoldFingerProvider>>);
static_assert(IntersectionCountProvider<
              internal::ClusterProviderView<GoldFingerProvider>>);
static_assert(!IntersectionCountProvider<GoldFingerCosineProvider>);
static_assert(!IntersectionCountProvider<BbitMinHashProvider>);
static_assert(!IntersectionCountProvider<ExactJaccardProvider>);

// b = 64 fingerprints whose bits fall in 12 positions, so Eq. 4 takes
// few distinct values and offers often tie a row's floor. Every
// seventh user has no bit set.
FingerprintStore CoarseStore(uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> words(kUsers, 0);
  std::vector<uint32_t> cards(kUsers, 0);
  for (std::size_t u = 0; u < kUsers; ++u) {
    if (u % 7 == 3) continue;
    const std::size_t bits = 1 + rng.Below(5);
    for (std::size_t b = 0; b < bits; ++b) {
      words[u] |= uint64_t{1} << rng.Below(12);
    }
    cards[u] = static_cast<uint32_t>(std::popcount(words[u]));
  }
  FingerprintConfig config;
  config.num_bits = 64;
  return FingerprintStore::FromRaw(config, kUsers, std::move(words),
                                   std::move(cards))
      .value();
}

// Offers each row 0..2k random pairs: some rows end full, some not.
template <typename Provider>
void Prefill(const Provider& provider, uint64_t seed, NeighborLists& lists) {
  Rng rng(seed);
  const std::size_t n = lists.num_users();
  for (UserId u = 0; u < n; ++u) {
    const std::size_t offers = rng.Below(2 * lists.k() + 1);
    for (std::size_t i = 0; i < offers; ++i) {
      const auto v = static_cast<UserId>(rng.Below(n));
      if (v != u) lists.Insert(u, v, provider(u, v));
    }
  }
}

// Ascending distinct ids other than u, like a drained CandidateSet.
// They may include u's current neighbors.
std::vector<UserId> Candidates(Rng& rng, std::size_t n, UserId u) {
  std::vector<UserId> ids;
  const std::size_t draws = rng.Below(n / 2);
  for (std::size_t i = 0; i < draws; ++i) {
    const auto v = static_cast<UserId>(rng.Below(n));
    if (v != u) ids.push_back(v);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

// What the reference loop offered, to check that the inputs reach the
// cases the skip has to get right.
struct Coverage {
  uint64_t to_partial_rows = 0;
  uint64_t to_full_rows = 0;
  uint64_t floor_ties = 0;    // float(sim) == the full row's floor
  uint64_t empty_unions = 0;  // both users without a bit, to a full row

  void Tally(const NeighborLists& lists, UserId row, double sim,
             bool empty_union) {
    const auto entries = lists.Of(row);
    if (entries.size() < lists.k()) {
      ++to_partial_rows;
      return;
    }
    ++to_full_rows;
    float floor = entries[0].similarity;
    for (const auto& e : entries) floor = std::min(floor, e.similarity);
    floor_ties += static_cast<float>(sim) == floor;
    empty_unions += empty_union;
  }
};

// Today's loop: ScoreCandidates, then Insert in candidate order.
// `cards` holds the cardinality of each of the provider's users.
template <typename Provider>
uint64_t ScoreThenInsert(const Provider& provider, UserId u,
                         std::span<const UserId> candidates,
                         NeighborLists& lists, OfferRows rows,
                         std::span<const uint32_t> cards,
                         Coverage& coverage) {
  std::vector<double> sims(candidates.size());
  ScoreCandidates(provider, u, candidates, sims);
  uint64_t updates = 0;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const UserId v = candidates[i];
    const bool empty_union = cards[u] == 0 && cards[v] == 0;
    coverage.Tally(lists, u, sims[i], empty_union);
    updates += lists.Insert(u, v, sims[i]);
    if (rows == OfferRows::kBoth) {
      coverage.Tally(lists, v, sims[i], empty_union);
      updates += lists.Insert(v, u, sims[i]);
    }
  }
  return updates;
}

void ExpectSameRows(const NeighborLists& want, const NeighborLists& got,
                    const std::string& label) {
  ASSERT_EQ(want.num_users(), got.num_users());
  for (UserId u = 0; u < want.num_users(); ++u) {
    const auto a = want.Of(u);
    const auto b = got.Of(u);
    ASSERT_EQ(a.size(), b.size()) << label << " user " << u;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id) << label << " user " << u << " slot " << i;
      EXPECT_EQ(std::bit_cast<uint32_t>(a[i].similarity),
                std::bit_cast<uint32_t>(b[i].similarity))
          << label << " user " << u << " slot " << i;
      EXPECT_EQ(a[i].is_new, b[i].is_new);
    }
  }
}

// Three rounds of random candidate lists for every user, offered by
// both loops to identically prefilled lists: the update counts must
// agree call by call and the rows at the end.
template <typename Provider>
Coverage ExpectOfferMatches(const Provider& want_provider,
                            const Provider& got_provider, std::size_t k,
                            OfferRows rows, std::span<const uint32_t> cards,
                            const std::string& label) {
  const std::size_t n = want_provider.num_users();
  NeighborLists want(n, k);
  NeighborLists got(n, k);
  Prefill(want_provider, 100 + k, want);
  Prefill(got_provider, 100 + k, got);
  Rng rng(200 + k);
  OfferScratch scratch;
  Coverage coverage;
  for (int round = 0; round < 3; ++round) {
    for (UserId u = 0; u < n; ++u) {
      const std::vector<UserId> ids = Candidates(rng, n, u);
      const uint64_t want_updates = ScoreThenInsert(
          want_provider, u, ids, want, rows, cards, coverage);
      EXPECT_EQ(OfferCandidates(got_provider, u, ids, got, scratch, rows),
                want_updates)
          << label << " round " << round << " user " << u;
    }
  }
  ExpectSameRows(want, got, label);
  return coverage;
}

void ExpectCovered(const Coverage& c, const std::string& label) {
  EXPECT_GT(c.to_partial_rows, 0u) << label;
  EXPECT_GT(c.to_full_rows, 0u) << label;
  EXPECT_GT(c.floor_ties, 0u) << label;
  EXPECT_GT(c.empty_unions, 0u) << label;
}

std::string Label(std::size_t k, OfferRows rows) {
  return "k=" + std::to_string(k) +
         (rows == OfferRows::kBoth ? " both rows" : " own row");
}

TEST(OfferCandidatesTest, MatchesScoreThenInsertOverGoldFinger) {
  for (const std::size_t k : {1, 5, 30}) {
    const FingerprintStore store = CoarseStore(k);
    const GoldFingerProvider provider(store);
    for (const OfferRows rows : {OfferRows::kOwn, OfferRows::kBoth}) {
      const std::string label = Label(k, rows);
      ExpectCovered(ExpectOfferMatches(provider, provider, k, rows,
                                       store.Cardinalities(), label),
                    label);
    }
  }
}

TEST(OfferCandidatesTest, CountingProviderCountsEveryPair) {
  for (const std::size_t k : {1, 5, 30}) {
    const FingerprintStore store = CoarseStore(k);
    const GoldFingerProvider provider(store);
    for (const OfferRows rows : {OfferRows::kOwn, OfferRows::kBoth}) {
      const CountingProvider<GoldFingerProvider> want(provider);
      const CountingProvider<GoldFingerProvider> got(provider);
      ExpectOfferMatches(want, got, k, rows, store.Cardinalities(),
                         Label(k, rows));
      EXPECT_GT(want.count(), 0u);
      EXPECT_EQ(got.count(), want.count()) << Label(k, rows);
    }
  }
}

TEST(OfferCandidatesTest, MatchesScoreThenInsertOverClusterView) {
  for (const std::size_t k : {1, 5, 30}) {
    const FingerprintStore store = CoarseStore(k);
    const GoldFingerProvider provider(store);
    // Two thirds of the users, renumbered densely as a cluster's are.
    std::vector<UserId> members;
    std::vector<uint32_t> cards;
    for (UserId u = 0; u < kUsers; ++u) {
      if (u % 3 == 1) continue;
      members.push_back(u);
      cards.push_back(store.CardinalityOf(u));
    }
    const internal::ClusterProviderView<GoldFingerProvider> want(provider,
                                                                 members);
    const internal::ClusterProviderView<GoldFingerProvider> got(provider,
                                                                members);
    for (const OfferRows rows : {OfferRows::kOwn, OfferRows::kBoth}) {
      const std::string label = Label(k, rows);
      ExpectCovered(ExpectOfferMatches(want, got, k, rows, cards, label),
                    label);
    }
  }
}

// A provider without counts keeps the score-then-insert loop.
TEST(OfferCandidatesTest, MatchesScoreThenInsertWithoutCounts) {
  const FingerprintStore store = CoarseStore(5);
  const GoldFingerCosineProvider provider(store);
  for (const OfferRows rows : {OfferRows::kOwn, OfferRows::kBoth}) {
    ExpectOfferMatches(provider, provider, 5, rows, store.Cardinalities(),
                       Label(5, rows));
  }
}

}  // namespace
}  // namespace gf
