#include "common/thread_pool.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace gf {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitWithNoTasksReturnsImmediately) {
  ThreadPool pool(2);
  pool.Wait();  // must not hang
  SUCCEED();
}

TEST(ThreadPoolTest, NumThreadsHonored) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_threads(), 3u);
}

TEST(ThreadPoolTest, ZeroThreadsMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1u);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> touched(kN);
  pool.ParallelFor(kN, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) touched[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(touched[i].load(), 1);
}

TEST(ThreadPoolTest, ParallelForZeroElements) {
  ThreadPool pool(2);
  bool called = false;
  pool.ParallelFor(0, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, ParallelForSingleElement) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  pool.ParallelFor(1, [&](std::size_t begin, std::size_t end) {
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 1u);
    count.fetch_add(1);
  });
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPoolTest, FreeFunctionNullPoolRunsInline) {
  std::atomic<int> total{0};
  ParallelFor(nullptr, 100, [&](std::size_t begin, std::size_t end) {
    total.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(total.load(), 100);
}

TEST(ThreadPoolTest, SequentialUseAfterParallelFor) {
  ThreadPool pool(4);
  std::atomic<long> sum{0};
  for (int round = 0; round < 5; ++round) {
    pool.ParallelFor(1000, [&](std::size_t begin, std::size_t end) {
      long local = 0;
      for (std::size_t i = begin; i < end; ++i) local += static_cast<long>(i);
      sum.fetch_add(local);
    });
  }
  EXPECT_EQ(sum.load(), 5L * (999L * 1000L / 2));
}

// Two callers share one pool (as serve_cluster's two replicas do). The
// first caller's two chunks hold two of the four workers; the second
// caller's two trivial chunks run on the free workers, and its
// ParallelFor returns without waiting for the first caller's tasks.
TEST(ThreadPoolTest, ParallelForDoesNotWaitForAnotherCallersTasks) {
  using std::chrono::steady_clock;
  ThreadPool pool(4);
  std::mutex mu;
  std::condition_variable cv;
  int blocked = 0;
  bool release = false;
  std::thread first([&] {
    pool.ParallelFor(2, [&](std::size_t, std::size_t) {
      std::unique_lock<std::mutex> lock(mu);
      ++blocked;
      cv.notify_all();
      // Bounded, so a pool that makes the second caller wait fails the
      // test below instead of hanging it.
      cv.wait_for(lock, std::chrono::seconds(2), [&] { return release; });
    });
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return blocked == 2; });
  }

  const auto start = steady_clock::now();
  std::atomic<int> ran{0};
  pool.ParallelFor(2, [&](std::size_t begin, std::size_t end) {
    ran.fetch_add(static_cast<int>(end - begin));
  });
  const auto elapsed = steady_clock::now() - start;
  {
    const std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  first.join();

  EXPECT_EQ(ran.load(), 2);
  EXPECT_LT(elapsed, std::chrono::seconds(1));
}

TEST(ThreadPoolTest, DestructorJoinsCleanly) {
  // Pool with queued work destroyed after Wait: no crash, no leak
  // (exercised under the test runner's lifetime checks).
  auto pool = std::make_unique<ThreadPool>(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 10; ++i) pool->Submit([&] { counter.fetch_add(1); });
  pool->Wait();
  pool.reset();
  EXPECT_EQ(counter.load(), 10);
}

}  // namespace
}  // namespace gf
