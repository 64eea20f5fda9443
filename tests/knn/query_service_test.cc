#include "knn/query_service.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/bit_util.h"
#include "common/clock.h"
#include "common/random.h"
#include "core/sharded_store.h"
#include "knn/query.h"
#include "obs/metrics.h"

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

QueryService::BatchFn EngineFn(const ScanQueryEngine& engine) {
  return [&engine](std::span<const Shf> batch, std::size_t k) {
    return engine.QueryBatch(batch, k);
  };
}

// Stepping-mode fixture: FakeClock is single-threaded by contract, so
// these tests run the coalescer themselves via DrainOnce() instead of
// the dispatcher thread.
QueryService::Options SteppingOptions() {
  QueryService::Options options;
  options.start_dispatcher = false;
  return options;
}

TEST(QueryServiceTest, RejectsInvalidRequestsUpFront) {
  Rng rng(1);
  const auto store = RandomStore(20, 128, rng);
  const ScanQueryEngine engine(store);
  auto options = SteppingOptions();
  options.expected_bits = 128;
  QueryService service(EngineFn(engine), options);

  auto bad_k = service.Submit(store.Extract(0), 0);
  auto bad_bits = service.Submit(*Shf::Create(64), 3);
  EXPECT_EQ(bad_k.get().status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(bad_bits.get().status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(service.QueueDepth(), 0u);  // neither was admitted
}

TEST(QueryServiceTest, RejectsOnFullQueueWithUnavailable) {
  Rng rng(2);
  const auto store = RandomStore(20, 128, rng);
  const ScanQueryEngine engine(store);
  obs::MetricRegistry registry;
  obs::PipelineContext obs{.metrics = &registry};
  auto options = SteppingOptions();
  options.max_queue = 2;
  QueryService service(EngineFn(engine), options, &obs);

  auto a = service.Submit(store.Extract(0), 3);
  auto b = service.Submit(store.Extract(1), 3);
  auto rejected = service.Submit(store.Extract(2), 3);  // queue full
  EXPECT_EQ(rejected.get().status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(registry.GetCounter("query.rejected")->value(), 1u);
  EXPECT_EQ(registry.GetCounter("query.service.submitted")->value(), 3u);

  // The two admitted requests still get served.
  EXPECT_EQ(service.DrainOnce(), 2u);
  EXPECT_TRUE(a.get().ok());
  EXPECT_TRUE(b.get().ok());
}

TEST(QueryServiceTest, ExpiresQueuedDeadlinesOnTheInjectedClock) {
  Rng rng(3);
  const auto store = RandomStore(20, 128, rng);
  const ScanQueryEngine engine(store);
  FakeClock clock;
  clock.Advance(1000);
  obs::MetricRegistry registry;
  obs::PipelineContext obs{.metrics = &registry, .clock = &clock};
  QueryService service(EngineFn(engine), SteppingOptions(), &obs);

  auto expires = service.Submit(store.Extract(0), 3, /*deadline=*/1500);
  auto survives = service.Submit(store.Extract(1), 3, /*deadline=*/5000);
  auto no_deadline = service.Submit(store.Extract(2), 3, /*deadline=*/0);
  clock.Advance(2000);  // now = 3000: first deadline passed while queued
  EXPECT_EQ(service.DrainOnce(), 3u);

  EXPECT_EQ(expires.get().status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(survives.get().ok());
  EXPECT_TRUE(no_deadline.get().ok());
  EXPECT_EQ(registry.GetCounter("query.deadline_expired")->value(), 1u);
  EXPECT_EQ(registry.GetCounter("query.service.served")->value(), 2u);
}

TEST(QueryServiceTest, MixedKBatchTruncatesEachReplyExactly) {
  Rng rng(4);
  const std::size_t users = 50;
  const auto store = RandomStore(users, 256, rng);
  const ScanQueryEngine engine(store);
  QueryService service(EngineFn(engine), SteppingOptions());

  // Coalesced into ONE batch at k_max = 9; each reply must be the
  // prefix of the exhaustive ranking at its own k.
  auto small = service.Submit(store.Extract(3), 2);
  auto large = service.Submit(store.Extract(3), 9);
  EXPECT_EQ(service.DrainOnce(), 2u);

  const auto want = engine.Query(store.Extract(3), 9).value();
  const auto got_small = small.get().value();
  const auto got_large = large.get().value();
  ASSERT_EQ(got_small.size(), 2u);
  ASSERT_EQ(got_large.size(), 9u);
  for (std::size_t i = 0; i < got_large.size(); ++i) {
    EXPECT_EQ(got_large[i].id, want[i].id);
    EXPECT_EQ(got_large[i].similarity, want[i].similarity);
  }
  for (std::size_t i = 0; i < got_small.size(); ++i) {
    EXPECT_EQ(got_small[i].id, want[i].id);
    EXPECT_EQ(got_small[i].similarity, want[i].similarity);
  }
}

TEST(QueryServiceTest, ShutdownDrainsAdmittedRequests) {
  Rng rng(5);
  const auto store = RandomStore(30, 128, rng);
  const ScanQueryEngine engine(store);
  QueryService service(EngineFn(engine), SteppingOptions());

  std::vector<std::future<Result<std::vector<Neighbor>>>> futures;
  for (std::size_t q = 0; q < 5; ++q) {
    futures.push_back(service.Submit(store.Extract(static_cast<UserId>(q)), 4));
  }
  service.Shutdown();  // stepping mode: Shutdown itself drains

  for (auto& future : futures) {
    EXPECT_TRUE(future.get().ok());  // admitted => served, never dropped
  }
  // After shutdown every new request is shed.
  auto late = service.Submit(store.Extract(0), 4);
  EXPECT_EQ(late.get().status().code(), StatusCode::kUnavailable);
}

TEST(QueryServiceTest, BatchSizeIsCappedByMaxBatch) {
  Rng rng(6);
  const auto store = RandomStore(30, 128, rng);
  const ScanQueryEngine engine(store);
  obs::MetricRegistry registry;
  obs::PipelineContext obs{.metrics = &registry};
  auto options = SteppingOptions();
  options.max_batch = 3;
  QueryService service(EngineFn(engine), options, &obs);

  std::vector<std::future<Result<std::vector<Neighbor>>>> futures;
  for (std::size_t q = 0; q < 7; ++q) {
    futures.push_back(service.Submit(store.Extract(static_cast<UserId>(q)), 2));
  }
  EXPECT_EQ(service.DrainOnce(), 3u);  // one full micro-batch
  EXPECT_EQ(service.DrainOnce(), 3u);
  EXPECT_EQ(service.DrainOnce(), 1u);  // the remainder
  EXPECT_EQ(service.DrainOnce(), 0u);  // empty
  for (auto& future : futures) EXPECT_TRUE(future.get().ok());
  EXPECT_EQ(registry.GetCounter("query.service.batches")->value(), 3u);
}

// End-to-end with the real dispatcher thread and the sharded engine:
// concurrent clients, every reply bit-identical to the exhaustive scan.
TEST(QueryServiceTest, ThreadedEndToEndMatchesScan) {
  Rng rng(7);
  const std::size_t users = 80;
  const auto store = RandomStore(users, 256, rng);
  const ScanQueryEngine scan(store);
  const ScanQueryEngine engine(std::make_shared<const ShardedFingerprintStore>(
      ShardedFingerprintStore::ViewOf(
          store, ShardedFingerprintStore::BalancedBegins(users, 3))
          .value()));

  QueryService::Options options;
  options.max_batch = 8;
  options.max_wait_micros = 100;
  QueryService service(EngineFn(engine), options);

  std::vector<Shf> queries;
  std::vector<std::future<Result<std::vector<Neighbor>>>> futures;
  for (std::size_t q = 0; q < 40; ++q) {
    queries.push_back(store.Extract(static_cast<UserId>(rng.Below(users))));
    futures.push_back(service.Submit(queries.back(), 6));
  }
  for (std::size_t q = 0; q < futures.size(); ++q) {
    const auto got = futures[q].get().value();
    const auto want = scan.Query(queries[q], 6).value();
    ASSERT_EQ(got.size(), want.size()) << "query " << q;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].id, want[i].id);
      EXPECT_EQ(got[i].similarity, want[i].similarity);
    }
  }
  service.Shutdown();
}

// Regression: a k above the row count used to size the engine's top-k
// buffers by k, so k = SIZE_MAX threw std::length_error on the
// dispatcher thread and aborted the process. It must answer exactly
// what k = n does.
TEST(QueryServiceTest, KAtSizeMaxMatchesKEqualsN) {
  Rng rng(9);
  const std::size_t users = 40;
  const auto store = RandomStore(users, 128, rng);
  const ScanQueryEngine engine(store);
  QueryService service(EngineFn(engine), QueryService::Options{});
  const Shf query = store.Extract(3);
  const auto got = service.Submit(query, SIZE_MAX).get().value();
  const auto want = engine.Query(query, users).value();
  ASSERT_EQ(got.size(), users);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id);
    EXPECT_EQ(got[i].similarity, want[i].similarity);
  }
  service.Shutdown();
}

// Regression: two Shutdown() callers (or Shutdown racing the
// destructor) used to BOTH see dispatcher_.joinable() and both join the
// same std::thread — undefined behavior. The join is now guarded; every
// admitted request must still be answered exactly once.
TEST(QueryServiceTest, ConcurrentShutdownCallsJoinExactlyOnce) {
  Rng rng(8);
  const auto store = RandomStore(30, 128, rng);
  const ScanQueryEngine engine(store);
  QueryService service(EngineFn(engine), QueryService::Options{});

  std::vector<std::future<Result<std::vector<Neighbor>>>> futures;
  for (std::size_t q = 0; q < 20; ++q) {
    futures.push_back(
        service.Submit(store.Extract(static_cast<UserId>(q % 30)), 4));
  }
  std::vector<std::thread> closers;
  for (int t = 0; t < 4; ++t) {
    closers.emplace_back([&service] { service.Shutdown(); });
  }
  for (auto& closer : closers) closer.join();
  // No reply lost on Close(): everything admitted resolves.
  for (auto& future : futures) EXPECT_TRUE(future.get().ok());
}

// Regression: in stepping mode a Shutdown() from one thread could run
// the drain loop concurrently with a stepping thread still inside
// DrainOnce() — two engine calls mutating batch state at once (a TSan
// report). DrainOnce bodies are now serialized; whichever thread takes
// a request must answer it.
TEST(QueryServiceTest, SteppingShutdownRacesAStepperWithoutLostReplies) {
  Rng rng(9);
  const auto store = RandomStore(30, 128, rng);
  const ScanQueryEngine engine(store);
  auto options = SteppingOptions();
  options.max_batch = 2;  // many small drains widen the race window
  QueryService service(EngineFn(engine), options);

  std::vector<std::future<Result<std::vector<Neighbor>>>> futures;
  for (std::size_t q = 0; q < 12; ++q) {
    futures.push_back(
        service.Submit(store.Extract(static_cast<UserId>(q % 30)), 3));
  }
  std::thread stepper([&service] {
    while (service.DrainOnce() > 0) {
    }
  });
  service.Shutdown();
  stepper.join();
  for (auto& future : futures) EXPECT_TRUE(future.get().ok());
}

// L1 fast path: a cache_try hit resolves inside Submit — ready future,
// empty queue, query.cache_bypass counted — while misses take the
// normal coalescing path untouched.
TEST(QueryServiceTest, CacheTryHitsBypassTheQueue) {
  Rng rng(10);
  const auto store = RandomStore(20, 128, rng);
  const ScanQueryEngine engine(store);
  obs::MetricRegistry registry;
  obs::PipelineContext obs{.metrics = &registry};

  const std::vector<Neighbor> canned = {{UserId{7}, 0.75f}};
  const Shf hot = store.Extract(0);
  auto options = SteppingOptions();
  options.cache_try = [&](const Shf& query, std::size_t k,
                          std::vector<Neighbor>* out) {
    if (k != 3 || !(query == hot)) return false;
    *out = canned;
    return true;
  };
  QueryService service(EngineFn(engine), options, &obs);

  auto hit = service.Submit(hot, 3);
  ASSERT_EQ(hit.wait_for(std::chrono::seconds(0)),
            std::future_status::ready)
      << "a cache hit must resolve without a drain";
  EXPECT_EQ(service.QueueDepth(), 0u);
  auto hit_result = hit.get();
  ASSERT_TRUE(hit_result.ok());
  ASSERT_EQ(hit_result->size(), 1u);
  EXPECT_EQ((*hit_result)[0].id, UserId{7});
  EXPECT_EQ((*hit_result)[0].similarity, 0.75f);
  EXPECT_EQ(registry.GetCounter("query.cache_bypass")->value(), 1u);

  // Same query at a different k misses the probe and queues normally.
  auto miss = service.Submit(hot, 5);
  EXPECT_EQ(service.QueueDepth(), 1u);
  EXPECT_EQ(service.DrainOnce(), 1u);
  auto miss_result = miss.get();
  ASSERT_TRUE(miss_result.ok());
  EXPECT_EQ(registry.GetCounter("query.cache_bypass")->value(), 1u);
  service.Shutdown();
}

}  // namespace
}  // namespace gf
