// Real-socket round trips: PosixServer + BlockingCall/PosixTransport
// carrying the same wire frames the fake carries, with the Env error
// taxonomy (kUnavailable on refused connections, kDeadlineExceeded on
// stalls, kCorruption on non-frames). The in-process two-shard
// coordinator run at the end is the single-machine version of the
// two-process ctest smoke.

#include "net/posix_transport.h"

#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "core/sharded_store.h"
#include "knn/query.h"
#include "net/coordinator.h"
#include "net/net_test_util.h"
#include "net/replica_server.h"
#include "net/wire.h"

namespace gf::net {
namespace {

uint64_t NowMicros() { return Clock::System()->NowMicros(); }

std::string Address(const PosixServer& server) {
  return "127.0.0.1:" + std::to_string(server.port());
}

// This process's virtual size in KiB (Linux /proc; 0 elsewhere).
std::size_t VmSizeKib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) return std::stoul(line.substr(7));
  }
  return 0;
}

TEST(PosixRoundTripTest, BlockingCallServesABatch) {
  Rng rng(0x50C4E7);
  const auto store = RandomStore(30, 128, rng);
  const ReplicaServer replica(store, /*user_base=*/0);
  PosixServer server(
      [&replica](std::string_view frame) { return replica.Handle(frame); });
  ASSERT_TRUE(server.Start(0).ok());
  ASSERT_NE(server.port(), 0);

  const auto queries = FirstQueries(store, 4);
  auto request = QueryBatchRequest::Pack(7, queries, 5);
  ASSERT_TRUE(request.ok());
  auto raw = BlockingCall(Address(server), EncodeQueryRequest(*request),
                          NowMicros() + 2'000'000);
  ASSERT_TRUE(raw.ok()) << raw.status().message();
  auto response = DecodeQueryResponse(*raw);
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response->status.ok());
  EXPECT_EQ(response->request_id, 7u);

  // The socket carried the exact doubles the engine computed.
  ScanQueryEngine engine(store);
  auto reference = engine.QueryBatchPacked(
      request->num_bits, request->query_words, request->query_cards, 5);
  ASSERT_TRUE(reference.ok());
  ASSERT_EQ(response->results.size(), reference->size());
  for (std::size_t q = 0; q < reference->size(); ++q) {
    ASSERT_EQ(response->results[q].size(), (*reference)[q].size());
    for (std::size_t i = 0; i < (*reference)[q].size(); ++i) {
      EXPECT_EQ(response->results[q][i].id, (*reference)[q][i].id);
      EXPECT_EQ(response->results[q][i].similarity,
                (*reference)[q][i].similarity);
    }
  }
}

// Every BlockingCall opens a connection, served on its own thread. The
// server must join those threads as they end, not at Stop(): each one
// left unjoined keeps its 8 MiB stack mapped, so a replica serving a
// coordinator used to grow by 8 MiB per call until thread creation
// failed (~32k calls) and the process aborted.
TEST(PosixRoundTripTest, ServerReapsFinishedConnectionThreads) {
  Rng rng(0x2EA9);
  const auto store = RandomStore(8, 128, rng);
  auto request = QueryBatchRequest::Pack(1, FirstQueries(store, 1), 1);
  ASSERT_TRUE(request.ok());
  const std::string frame = EncodeQueryRequest(*request);
  PosixServer server([](std::string_view in) { return std::string(in); });
  ASSERT_TRUE(server.Start(0).ok());
  const auto call = [&] {
    auto echoed = BlockingCall(Address(server), frame, NowMicros() + 5'000'000);
    ASSERT_TRUE(echoed.ok()) << echoed.status().message();
    ASSERT_EQ(*echoed, frame);
  };
  for (int i = 0; i < 10; ++i) call();
  const std::size_t baseline = VmSizeKib();
  for (int i = 0; i < 2000; ++i) call();
  // Unreaped, the 2000 calls add ~16 GiB. Reaped, what may still grow
  // is bounded by the few threads alive at once: glibc keeps up to
  // 40 MiB of exited stacks for reuse and reserves a 64 MiB malloc
  // arena per concurrently running thread.
  EXPECT_LT(VmSizeKib(), baseline + 512 * 1024);
}

TEST(PosixRoundTripTest, ConnectionRefusedIsUnavailable) {
  // Bind an ephemeral port, then stop the server so nobody listens.
  uint16_t dead_port = 0;
  {
    PosixServer server([](std::string_view) { return std::string(); });
    ASSERT_TRUE(server.Start(0).ok());
    dead_port = server.port();
  }
  auto result = BlockingCall("127.0.0.1:" + std::to_string(dead_port),
                             "irrelevant", NowMicros() + 1'000'000);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
}

TEST(PosixRoundTripTest, MalformedAddressIsInvalidArgument) {
  for (const char* address : {"no-port", "host:notaport", ":", ""}) {
    auto result = BlockingCall(address, "x", NowMicros() + 100'000);
    ASSERT_FALSE(result.ok()) << address;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
        << address;
  }
}

TEST(PosixRoundTripTest, StalledServerHitsTheDeadlineNotAHang) {
  PosixServer server([](std::string_view frame) {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    return std::string(frame);
  });
  ASSERT_TRUE(server.Start(0).ok());

  Rng rng(0x57A11);
  const auto store = RandomStore(4, 128, rng);
  const auto queries = FirstQueries(store, 1);
  const std::string frame =
      EncodeQueryRequest(*QueryBatchRequest::Pack(1, queries, 1));
  const uint64_t t0 = NowMicros();
  auto result = BlockingCall(Address(server), frame, t0 + 50'000);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  // Returned at the deadline, not after the server's 300 ms stall.
  EXPECT_LT(NowMicros() - t0, 250'000u);
}

TEST(PosixRoundTripTest, NonFrameResponseIsCorruption) {
  PosixServer server([](std::string_view) {
    return std::string("this is not a GFSZ frame at all");
  });
  ASSERT_TRUE(server.Start(0).ok());

  Rng rng(0xBAD);
  const auto store = RandomStore(4, 128, rng);
  const auto queries = FirstQueries(store, 1);
  const std::string frame =
      EncodeQueryRequest(*QueryBatchRequest::Pack(1, queries, 1));
  auto result = BlockingCall(Address(server), frame, NowMicros() + 1'000'000);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
}

TEST(PosixRoundTripTest, TwoShardCoordinatorOverRealSocketsIsBitExact) {
  Rng rng(0x2B0CE55);
  const auto store = RandomStore(30, 128, rng);
  const auto view = ShardedFingerprintStore::ViewOf(
                        store, ShardedFingerprintStore::BalancedBegins(30, 2))
                        .value();
  const ReplicaServer replica0(view.shard(0), view.ShardBegin(0));
  const ReplicaServer replica1(view.shard(1), view.ShardBegin(1));
  PosixServer server0(
      [&replica0](std::string_view frame) { return replica0.Handle(frame); });
  PosixServer server1(
      [&replica1](std::string_view frame) { return replica1.Handle(frame); });
  ASSERT_TRUE(server0.Start(0).ok());
  ASSERT_TRUE(server1.Start(0).ok());

  ClusterConfig config;
  config.replicas = {{Address(server0)}, {Address(server1)}};
  config.shard_begins = {0, 15};
  config.num_users = 30;

  PosixTransport transport;
  ClusterCoordinator::Options options;
  options.deadline_micros = 5'000'000;
  ClusterCoordinator coordinator(config, &transport, options);
  const auto queries = FirstQueries(store, 5);
  auto answer = coordinator.QueryBatch(queries, 6);
  ASSERT_TRUE(answer.ok()) << answer.status().message();
  EXPECT_TRUE(answer->complete());

  ScanQueryEngine engine(store);
  auto reference = engine.QueryBatch(queries, 6);
  ASSERT_TRUE(reference.ok());
  EXPECT_TRUE(BitIdentical(answer->results, *reference));
}

}  // namespace
}  // namespace gf::net
