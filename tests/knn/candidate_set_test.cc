#include "knn/candidate_set.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <vector>

#include "common/random.h"

namespace gf {
namespace {

std::vector<UserId> Drained(CandidateSet& set) {
  std::vector<UserId> out;
  set.Drain(out);
  return out;
}

TEST(CandidateSetTest, DrainIsAscendingAndEmptiesTheSet) {
  CandidateSet set(1000);
  for (UserId id : {700u, 3u, 999u, 64u, 0u, 65u}) set.Insert(id);
  EXPECT_EQ(Drained(set), (std::vector<UserId>{0, 3, 64, 65, 700, 999}));
  EXPECT_TRUE(Drained(set).empty());
}

TEST(CandidateSetTest, DrainAppendsToWhatOutHolds) {
  CandidateSet set(100);
  set.Insert(7);
  std::vector<UserId> out = {42};
  set.Drain(out);
  EXPECT_EQ(out, (std::vector<UserId>{42, 7}));
}

TEST(CandidateSetTest, DuplicateInsertsAppearOnce) {
  CandidateSet set(200);
  EXPECT_TRUE(set.Insert(150));
  EXPECT_FALSE(set.Insert(150));
  EXPECT_TRUE(set.Insert(2));
  EXPECT_FALSE(set.Insert(150));
  EXPECT_EQ(Drained(set), (std::vector<UserId>{2, 150}));
  // Drained ids count as absent again.
  EXPECT_TRUE(set.Insert(150));
  EXPECT_EQ(Drained(set), (std::vector<UserId>{150}));
}

TEST(CandidateSetTest, EraseOfPresentAndAbsentIds) {
  CandidateSet set(300);
  for (UserId id : {10u, 11u, 200u}) set.Insert(id);
  set.Erase(11);   // present
  set.Erase(12);   // absent, same word as a present id
  set.Erase(250);  // absent, untouched word
  EXPECT_EQ(Drained(set), (std::vector<UserId>{10, 200}));

  // A word emptied by Erase drains to nothing and is reusable.
  set.Insert(70);
  set.Erase(70);
  EXPECT_TRUE(Drained(set).empty());
  EXPECT_TRUE(set.Insert(70));
  EXPECT_EQ(Drained(set), (std::vector<UserId>{70}));
}

TEST(CandidateSetTest, BoundaryIds) {
  constexpr std::size_t kUsers = 2 * 4096 + 37;  // > 4096, not a multiple of 64
  CandidateSet set(kUsers);
  const std::vector<UserId> ids = {0, 63, 64, 4095, 4096, kUsers - 1};
  for (auto it = ids.rbegin(); it != ids.rend(); ++it) {
    EXPECT_TRUE(set.Insert(*it));
  }
  EXPECT_EQ(Drained(set), ids);
  for (UserId id : ids) {
    set.Insert(id);
    set.Erase(id);
  }
  EXPECT_TRUE(Drained(set).empty());
}

TEST(CandidateSetTest, EmptyDrain) {
  CandidateSet set(5000);
  EXPECT_TRUE(Drained(set).empty());
  CandidateSet none(0);
  EXPECT_TRUE(Drained(none).empty());
}

TEST(CandidateSetTest, ReuseAcrossManyDrains) {
  constexpr std::size_t kUsers = 777;
  CandidateSet set(kUsers);
  for (UserId round = 0; round < 2000; ++round) {
    const UserId a = round % kUsers;
    const UserId b = (round * 7 + 5) % kUsers;
    set.Insert(a);
    set.Insert(b);
    std::vector<UserId> want = {std::min(a, b), std::max(a, b)};
    want.erase(std::unique(want.begin(), want.end()), want.end());
    ASSERT_EQ(Drained(set), want) << "round " << round;
  }
}

TEST(CandidateSetTest, MatchesSortUnique) {
  Rng rng(0xCA5D);
  constexpr std::size_t kUsers = 10000;
  CandidateSet set(kUsers);
  for (int trial = 0; trial < 200; ++trial) {
    // Dense and sparse sets, some clustered in a narrow id range.
    const std::size_t draws = rng.Below(trial % 2 == 0 ? 50 : 3000);
    const std::size_t span = 1 + rng.Below(kUsers);
    std::vector<UserId> inserted;
    std::vector<UserId> erased;
    for (std::size_t i = 0; i < draws; ++i) {
      const auto id = static_cast<UserId>(rng.Below(span));
      if (rng.Below(5) == 0) {
        erased.push_back(id);
      } else {
        inserted.push_back(id);
      }
    }
    for (UserId id : inserted) set.Insert(id);
    for (UserId id : erased) set.Erase(id);

    std::vector<UserId> want = inserted;
    std::sort(want.begin(), want.end());
    want.erase(std::unique(want.begin(), want.end()), want.end());
    std::sort(erased.begin(), erased.end());
    std::vector<UserId> kept;
    std::set_difference(want.begin(), want.end(), erased.begin(),
                        erased.end(), std::back_inserter(kept));
    ASSERT_EQ(Drained(set), kept) << "trial " << trial;
  }
}

}  // namespace
}  // namespace gf
