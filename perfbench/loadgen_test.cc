// Unit tests of the load generator's helpers: the percentile rule, FIFO
// request-to-batch attribution, span coverage, the event-to-epoch
// mapping and the seeded arrival schedule.
//
//   cmake --build <dir> --target perfbench_tests && <dir>/perfbench_tests

#include "loadgen.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

namespace perfbench {
namespace {

std::vector<double> OneTo(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(PercentileTest, NearestRankOnSortedAndShuffledInput) {
  std::vector<double> v = OneTo(1000);
  EXPECT_EQ(Percentile(v, 0.5), 500.0);
  EXPECT_EQ(Percentile(v, 0.99), 990.0);
  EXPECT_EQ(Percentile(v, 1.0), 1000.0);
  std::reverse(v.begin(), v.end());
  EXPECT_EQ(Percentile(v, 0.5), 500.0);
  EXPECT_EQ(Percentile(v, 0.99), 990.0);
  EXPECT_EQ(Percentile({}, 0.5), 0.0);
  EXPECT_EQ(Percentile({7.0}, 0.99), 7.0);
}

TEST(PercentileTest, TenSamplesBeyondTheReportedPercentile) {
  // p99 needs 1000 samples: rank 990 leaves exactly 10 beyond it.
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_TRUE(SupportsPercentile(1000, 0.99));
  EXPECT_EQ(SamplesBeyond(999, 0.99), 9u);
  EXPECT_FALSE(SupportsPercentile(999, 0.99));
  // The median of 20 samples has 10 beyond it; of 19, only 9.
  EXPECT_TRUE(SupportsPercentile(20, 0.5));
  EXPECT_FALSE(SupportsPercentile(19, 0.5));
  EXPECT_FALSE(SupportsPercentile(0, 0.5));
}

TEST(AttributeFifoTest, QueuedRequestsRideInOrder) {
  const std::vector<std::size_t> sizes = {3, 1, 2};
  EXPECT_EQ(AttributeFifo(sizes, 6),
            (std::vector<std::size_t>{0, 0, 0, 1, 2, 2}));
}

TEST(AttributeFifoTest, RequestsPastTheLastBatchHaveNone) {
  const std::vector<std::size_t> sizes = {2};
  EXPECT_EQ(AttributeFifo(sizes, 4),
            (std::vector<std::size_t>{0, 0, kNoBatch, kNoBatch}));
  EXPECT_TRUE(AttributeFifo({}, 0).empty());
}

TEST(AttributeFifoTest, ExtraBatchCapacityIsIgnored) {
  const std::vector<std::size_t> sizes = {4, 4};
  EXPECT_EQ(AttributeFifo(sizes, 3), (std::vector<std::size_t>{0, 0, 0}));
}

TEST(CoveredNanosTest, CountsTheUnionInsideTheWindow) {
  // Overlapping spans count once; parts outside [10, 100) do not count.
  EXPECT_EQ(CoveredNanos(10, 100, {{20, 40}, {30, 50}, {0, 15}, {90, 120}}),
            5 + 30 + 10);
  // Gaps between calls stay uncovered; a span inside another adds nothing.
  EXPECT_EQ(CoveredNanos(0, 100, {{60, 70}, {0, 10}, {62, 65}}), 20);
  EXPECT_EQ(CoveredNanos(0, 100, {}), 0);
  EXPECT_EQ(CoveredNanos(0, 100, {{100, 200}}), 0);
}

TEST(EpochOfEventTest, CadenceMapsEventsToTheirEpoch) {
  // Publishing every 1024 events from epoch 0: events 0..1023 land in
  // epoch 1, event 1024 in epoch 2.
  EXPECT_EQ(EpochOfEvent(0, 1024, 0), 1u);
  EXPECT_EQ(EpochOfEvent(1023, 1024, 0), 1u);
  EXPECT_EQ(EpochOfEvent(1024, 1024, 0), 2u);
  EXPECT_EQ(EpochOfEvent(5, 2, 10), 13u);
}

TEST(EpochOfEventTest, OnlyFullEpochsCount) {
  EXPECT_EQ(FullEpochEvents(3000, 1024), 2048u);
  EXPECT_EQ(FullEpochEvents(1023, 1024), 0u);
  EXPECT_EQ(FullEpochEvents(2048, 1024), 2048u);
}

TEST(ScheduleTest, PoissonIsSeededAscendingAndNearItsRate) {
  const std::vector<int64_t> a = PoissonSchedule(1000.0, 10.0, 7);
  EXPECT_EQ(a, PoissonSchedule(1000.0, 10.0, 7));
  EXPECT_NE(a, PoissonSchedule(1000.0, 10.0, 8));
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_GT(a.size(), 9500u);
  EXPECT_LT(a.size(), 10500u);
  EXPECT_LT(a.back(), 10'000'000'000);
}

}  // namespace
}  // namespace perfbench
