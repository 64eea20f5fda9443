#include "knn/graph.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"

namespace gf {
namespace {

TEST(NeighborListsTest, InsertFillsUpToK) {
  NeighborLists lists(5, 3);
  EXPECT_TRUE(lists.Insert(0, 1, 0.5));
  EXPECT_TRUE(lists.Insert(0, 2, 0.1));
  EXPECT_TRUE(lists.Insert(0, 3, 0.9));
  EXPECT_EQ(lists.Of(0).size(), 3u);
}

TEST(NeighborListsTest, DuplicateInsertRejected) {
  NeighborLists lists(5, 3);
  EXPECT_TRUE(lists.Insert(0, 1, 0.5));
  EXPECT_FALSE(lists.Insert(0, 1, 0.9));  // same neighbor id
  EXPECT_EQ(lists.Of(0).size(), 1u);
}

TEST(NeighborListsTest, WorseThanWorstRejectedWhenFull) {
  NeighborLists lists(5, 2);
  lists.Insert(0, 1, 0.5);
  lists.Insert(0, 2, 0.8);
  EXPECT_FALSE(lists.Insert(0, 3, 0.4));
  EXPECT_TRUE(lists.Insert(0, 4, 0.6));  // evicts 0.5
  bool has_1 = false;
  for (const auto& e : lists.Of(0)) has_1 |= (e.id == 1);
  EXPECT_FALSE(has_1);
}

TEST(NeighborListsTest, EqualToWorstRejected) {
  NeighborLists lists(2, 1);
  lists.Insert(0, 1, 0.5);
  EXPECT_FALSE(lists.Insert(0, 2, 0.5));  // ties keep the incumbent
}

// Floor is what Insert tests a full row's offers against: -infinity
// while the row has room, then the row's worst similarity as float.
TEST(NeighborListsTest, FloorIsTheFullRowsWorstSimilarity) {
  NeighborLists lists(5, 2);
  EXPECT_EQ(lists.Floor(0), -std::numeric_limits<float>::infinity());
  lists.Insert(0, 1, 0.7);
  EXPECT_EQ(lists.Floor(0), -std::numeric_limits<float>::infinity());
  lists.Insert(0, 2, 0.3);
  EXPECT_EQ(lists.Floor(0), 0.3f);
  EXPECT_FALSE(lists.Insert(0, 3, 0.3));  // float(sim) <= Floor
  EXPECT_EQ(lists.Floor(0), 0.3f);
  EXPECT_TRUE(lists.Insert(0, 4, 0.5));
  EXPECT_EQ(lists.Floor(0), 0.5f);
  lists.RestoreRow(0, {});
  EXPECT_EQ(lists.Floor(0), -std::numeric_limits<float>::infinity());
  const NeighborLists::Entry restored[] = {{1, 0.25f, true}, {2, 0.75f, true}};
  lists.RestoreRow(0, restored);
  EXPECT_EQ(lists.Floor(0), 0.25f);
}

TEST(NeighborListsTest, ConcurrentInsertLockedKeepsExactTopK) {
  // Hammer one row (and a few others) from several threads through the
  // TTAS spinlock. With all-distinct similarities the bounded list is
  // order-independent: whatever the interleaving, the surviving entries
  // must be exactly the k best offered.
  constexpr std::size_t kK = 8;
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 250;
  NeighborLists lists(4, kK);

  // Distinct similarities: sim(v) strictly increasing in v.
  const auto sim_of = [](UserId v) {
    return 0.001 * static_cast<double>(v + 1);
  };
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        const auto v = static_cast<UserId>(10 + t * kPerThread + i);
        lists.InsertLocked(0, v, sim_of(v));
        lists.InsertLocked(1 + (v % 3), v, sim_of(v));
      }
    });
  }
  for (auto& th : threads) th.join();

  const UserId max_v = 10 + kThreads * kPerThread - 1;
  for (UserId row = 0; row < 2; ++row) {
    std::vector<UserId> got;
    for (const auto& e : lists.Of(row)) got.push_back(e.id);
    std::sort(got.begin(), got.end());
    ASSERT_EQ(got.size(), kK) << "row " << row;
    if (row == 0) {
      // Row 0 saw every v in [10, max_v]; top-k = the k largest ids.
      for (std::size_t i = 0; i < kK; ++i) {
        EXPECT_EQ(got[i], max_v - (kK - 1) + i);
      }
    }
    for (const auto& e : lists.Of(row)) {
      EXPECT_DOUBLE_EQ(e.similarity, static_cast<float>(sim_of(e.id)));
    }
  }
}

TEST(NeighborListsTest, InsertMarksEntryNew) {
  NeighborLists lists(3, 2);
  lists.Insert(0, 1, 0.5);
  EXPECT_TRUE(lists.Of(0)[0].is_new);
  lists.MutableOf(0)[0].is_new = false;
  EXPECT_FALSE(lists.Of(0)[0].is_new);
}

TEST(NeighborListsTest, InitRandomFillsDistinctNeighbors) {
  NeighborLists lists(20, 5);
  Rng rng(3);
  ThreadPool pool(2);
  std::atomic<uint64_t> calls{0};
  const uint64_t scored = lists.InitRandom(
      rng,
      [&calls](UserId, UserId) {
        calls.fetch_add(1, std::memory_order_relaxed);
        return 0.1;
      },
      &pool);
  EXPECT_EQ(scored, calls.load());
  EXPECT_GE(scored, 20u * 5u);
  for (UserId u = 0; u < 20; ++u) {
    const auto row = lists.Of(u);
    ASSERT_EQ(row.size(), 5u);
    std::vector<UserId> ids;
    for (const auto& e : row) {
      EXPECT_NE(e.id, u);
      ids.push_back(e.id);
    }
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
  }
}

TEST(NeighborListsTest, InitRandomWithFewerUsersThanK) {
  NeighborLists lists(3, 10);
  Rng rng(4);
  ThreadPool pool(2);
  lists.InitRandom(rng, [](UserId, UserId) { return 0.0; }, &pool);
  for (UserId u = 0; u < 3; ++u) {
    EXPECT_EQ(lists.Of(u).size(), 2u);  // everyone else
  }
}

// InitRandom draws every row first and scores afterwards. It must give
// what drawing, scoring and inserting one id at a time gives: the same
// rows in the same slot order, with repeated draws scored and counted.
// The coarse score makes ties, so the first of equal scores must win.
TEST(NeighborListsTest, InitRandomMatchesDrawScoreInsertLoop) {
  constexpr std::size_t kUsers = 40;
  constexpr std::size_t kK = 12;
  const auto score = [](UserId u, UserId v) {
    return static_cast<double>((u * 7 + v * 13) % 5) / 5.0;
  };
  NeighborLists want(kUsers, kK);
  Rng want_rng(11);
  uint64_t want_scored = 0;
  for (UserId u = 0; u < kUsers; ++u) {
    std::size_t guard = 0;
    while (want.Of(u).size() < kK && guard++ < 100 * kK + 100) {
      const auto v = static_cast<UserId>(want_rng.Below(kUsers));
      if (v == u) continue;
      ++want_scored;
      want.Insert(u, v, score(u, v));
    }
  }
  ASSERT_GT(want_scored, kUsers * kK) << "no repeated draw to check";
  const uint64_t want_next = want_rng.Next();  // the draws consumed alike

  for (const std::size_t threads : {0, 1, 3}) {
    std::optional<ThreadPool> pool;
    if (threads > 0) pool.emplace(threads);
    NeighborLists got(kUsers, kK);
    Rng rng(11);
    EXPECT_EQ(got.InitRandom(rng, score, pool ? &*pool : nullptr),
              want_scored);
    EXPECT_EQ(rng.Next(), want_next) << threads << " threads";
    for (UserId u = 0; u < kUsers; ++u) {
      const auto a = want.Of(u);
      const auto b = got.Of(u);
      ASSERT_EQ(a.size(), b.size()) << "user " << u;
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id, b[i].id) << "user " << u << " slot " << i;
        EXPECT_EQ(a[i].similarity, b[i].similarity);
      }
    }
  }
}

TEST(NeighborListsTest, FinalizeSortsByDescendingSimilarity) {
  NeighborLists lists(2, 4);
  lists.Insert(0, 1, 0.3);
  lists.Insert(0, 2, 0.9);
  lists.Insert(0, 3, 0.6);
  const KnnGraph g = lists.Finalize();
  const auto nb = g.NeighborsOf(0);
  ASSERT_EQ(nb.size(), 3u);
  EXPECT_EQ(nb[0].id, 2u);
  EXPECT_EQ(nb[1].id, 3u);
  EXPECT_EQ(nb[2].id, 1u);
}

TEST(NeighborListsTest, FinalizeTieBreaksById) {
  NeighborLists lists(2, 3);
  lists.Insert(0, 5, 0.5);
  lists.Insert(0, 3, 0.5);
  const KnnGraph g = lists.Finalize();
  EXPECT_EQ(g.NeighborsOf(0)[0].id, 3u);
  EXPECT_EQ(g.NeighborsOf(0)[1].id, 5u);
}

TEST(NeighborListsTest, ConcurrentLockedInsertsOnSameRow) {
  NeighborLists lists(1, 8);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&lists, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const auto v = static_cast<UserId>(1 + t * kPerThread + i);
        lists.InsertLocked(0, v, static_cast<double>(v) / 10000.0);
      }
    });
  }
  for (auto& t : threads) t.join();
  // The 8 best are the 8 highest ids inserted.
  const KnnGraph g = lists.Finalize();
  const auto nb = g.NeighborsOf(0);
  ASSERT_EQ(nb.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(nb[i].id, static_cast<UserId>(kThreads * kPerThread - i));
  }
}

TEST(NeighborListsTest, EmptyRestoreRowEmptiesOnlyThatRow) {
  NeighborLists lists(3, 2);
  lists.Insert(0, 1, 0.5);
  lists.Insert(1, 2, 0.7);
  lists.RestoreRow(0, {});
  EXPECT_EQ(lists.Of(0).size(), 0u);
  EXPECT_EQ(lists.Of(1).size(), 1u);
  // The row is reusable after clearing.
  EXPECT_TRUE(lists.Insert(0, 2, 0.9));
  EXPECT_EQ(lists.Of(0).size(), 1u);
}

// Reference top-k bookkeeping for the floor-cache property test: a
// plain map of the best-k (id, sim) offers with NeighborLists'
// semantics (duplicates rejected, ties keep the incumbent).
class NaiveRow {
 public:
  explicit NaiveRow(std::size_t k) : k_(k) {}

  bool Insert(UserId v, float sim) {
    for (const auto& e : entries_) {
      if (e.first == v) return false;
    }
    if (entries_.size() < k_) {
      entries_.push_back({v, sim});
      return true;
    }
    std::size_t worst = 0;
    for (std::size_t i = 1; i < entries_.size(); ++i) {
      if (entries_[i].second < entries_[worst].second) worst = i;
    }
    if (sim <= entries_[worst].second) return false;
    entries_[worst] = {v, sim};
    return true;
  }

  std::vector<std::pair<UserId, float>> Sorted() const {
    auto out = entries_;
    std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
      if (a.second != b.second) return a.second > b.second;
      return a.first < b.first;
    });
    return out;
  }

 private:
  std::size_t k_;
  std::vector<std::pair<UserId, float>> entries_;
};

TEST(NeighborListsTest, FloorCacheMatchesNaiveReferenceUnderRandomOffers) {
  // The worst-similarity fast path must be behavior-preserving: same
  // accept/reject decisions and same surviving multiset as a naive
  // reference, across random offer streams with many duplicates, ties,
  // clears and restores.
  Rng rng(99);
  for (const std::size_t k : {1ul, 2ul, 5ul}) {
    NeighborLists lists(3, k);
    NaiveRow naive(k);
    for (int step = 0; step < 3000; ++step) {
      const auto v = static_cast<UserId>(rng.Below(30));
      // Quantized sims produce frequent exact ties.
      const double sim = static_cast<double>(rng.Below(8)) / 8.0;
      ASSERT_EQ(lists.Insert(1, v, sim),
                naive.Insert(v, static_cast<float>(sim)))
          << "k=" << k << " step " << step;
    }
    // Same survivors (compare under the deterministic Finalize order).
    const auto want = naive.Sorted();
    const KnnGraph graph = lists.Finalize();
    const auto got = graph.NeighborsOf(1);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].id, want[i].first) << "k=" << k << " rank " << i;
      EXPECT_EQ(got[i].similarity, want[i].second) << "k=" << k;
    }
  }
}

TEST(NeighborListsTest, FloorCacheSurvivesClearAndRestore) {
  NeighborLists lists(2, 2);
  ASSERT_TRUE(lists.Insert(0, 1, 0.8));
  ASSERT_TRUE(lists.Insert(0, 2, 0.6));
  // Full row, floor 0.6: below-floor offers bounce.
  EXPECT_FALSE(lists.Insert(0, 3, 0.5));
  EXPECT_FALSE(lists.Insert(0, 3, 0.6));

  // After an empty RestoreRow the floor must reset — low offers fill
  // again.
  lists.RestoreRow(0, {});
  EXPECT_TRUE(lists.Insert(0, 3, 0.1));
  EXPECT_TRUE(lists.Insert(0, 4, 0.2));
  EXPECT_FALSE(lists.Insert(0, 5, 0.05));  // new floor is 0.1
  EXPECT_TRUE(lists.Insert(0, 5, 0.3));

  // RestoreRow recomputes the floor from the restored entries.
  const std::vector<NeighborLists::Entry> snapshot = {
      {7, 0.9f, false}, {8, 0.4f, true}};
  lists.RestoreRow(0, snapshot);
  EXPECT_FALSE(lists.Insert(0, 9, 0.4));  // at the restored floor
  EXPECT_TRUE(lists.Insert(0, 9, 0.45));

  // A partial restore (row no longer full) must drop the floor.
  const std::vector<NeighborLists::Entry> partial = {{7, 0.9f, false}};
  lists.RestoreRow(1, partial);
  EXPECT_TRUE(lists.Insert(1, 9, 0.01));  // room left: anything enters
}

TEST(KnnGraphTest, EmptyGraph) {
  const KnnGraph g;
  EXPECT_EQ(g.NumUsers(), 0u);
  EXPECT_EQ(g.NumEdges(), 0u);
  EXPECT_DOUBLE_EQ(g.AverageStoredSimilarity(), 0.0);
}

TEST(KnnGraphTest, AverageStoredSimilarity) {
  NeighborLists lists(2, 2);
  lists.Insert(0, 1, 0.4);
  lists.Insert(1, 0, 0.6);
  const KnnGraph g = lists.Finalize();
  EXPECT_EQ(g.NumEdges(), 2u);
  EXPECT_NEAR(g.AverageStoredSimilarity(), 0.5, 1e-6);
}

}  // namespace
}  // namespace gf
