// Shared fixtures for the distributed-serving tests: random stores and
// an in-process cluster (FakeClock + FakeTransport + one ReplicaServer
// per shard, carved by ShardedFingerprintStore's balanced cut) every
// failure-matrix case starts from.

#ifndef GF_TESTS_NET_NET_TEST_UTIL_H_
#define GF_TESTS_NET_NET_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/bit_util.h"
#include "common/clock.h"
#include "common/random.h"
#include "core/fingerprint_store.h"
#include "core/sharded_store.h"
#include "net/cluster.h"
#include "net/fake_transport.h"
#include "net/replica_server.h"
#include "obs/pipeline_context.h"

namespace gf::net {

inline FingerprintStore RandomStore(std::size_t users, std::size_t bits,
                                    Rng& rng) {
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

/// Replica address "s<shard>r<replica>".
inline std::string ReplicaAddress(std::size_t shard, std::size_t replica) {
  std::string address = "s";
  address += std::to_string(shard);
  address += 'r';
  address += std::to_string(replica);
  return address;
}

/// An in-process cluster: `shards` shards x `replicas` replicas, every
/// replica of a shard backed by the same ReplicaServer over that
/// shard's zero-copy view of `full`, all reachable through one
/// FakeTransport. `full` must outlive the cluster.
struct TestCluster {
  FakeClock* clock;
  FakeTransport transport;
  ShardedFingerprintStore view;
  std::vector<std::unique_ptr<ReplicaServer>> servers;
  ClusterConfig config;

  TestCluster(const FingerprintStore& full, std::size_t shards,
              std::size_t replicas, FakeClock* clock_in,
              const obs::PipelineContext* obs = nullptr)
      : clock(clock_in),
        transport(clock_in),
        view(ShardedFingerprintStore::ViewOf(
                 full, ShardedFingerprintStore::BalancedBegins(
                           full.num_users(), shards))
                 .value()) {
    config.num_users = static_cast<UserId>(full.num_users());
    config.replicas.resize(shards);
    for (std::size_t s = 0; s < shards; ++s) {
      config.shard_begins.push_back(view.ShardBegin(s));
      servers.push_back(std::make_unique<ReplicaServer>(
          view.shard(s), view.ShardBegin(s), nullptr, obs));
      ReplicaServer* server = servers.back().get();
      for (std::size_t r = 0; r < replicas; ++r) {
        const std::string address = ReplicaAddress(s, r);
        config.replicas[s].push_back(address);
        transport.RegisterHandler(address,
                                  [server](std::string_view frame) {
                                    return server->Handle(frame);
                                  });
      }
    }
  }
};

/// Bit-exact equality of two per-query neighbor lists: same ids, same
/// float payloads TO THE BIT (the distributed-merge claim is bitwise
/// identity with the single-box scan, not approximate agreement).
inline ::testing::AssertionResult BitIdentical(
    const std::vector<std::vector<Neighbor>>& got,
    const std::vector<std::vector<Neighbor>>& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << "answered " << got.size() << " queries, expected "
           << want.size();
  }
  for (std::size_t q = 0; q < got.size(); ++q) {
    if (got[q].size() != want[q].size()) {
      return ::testing::AssertionFailure()
             << "query " << q << ": " << got[q].size() << " neighbors vs "
             << want[q].size();
    }
    for (std::size_t i = 0; i < got[q].size(); ++i) {
      if (got[q][i].id != want[q][i].id ||
          std::bit_cast<uint32_t>(got[q][i].similarity) !=
              std::bit_cast<uint32_t>(want[q][i].similarity)) {
        return ::testing::AssertionFailure()
               << "query " << q << " rank " << i << ": got (" << got[q][i].id
               << ", " << got[q][i].similarity << "), want ("
               << want[q][i].id << ", " << want[q][i].similarity << ")";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// The first `count` stored fingerprints as external queries.
inline std::vector<Shf> FirstQueries(const FingerprintStore& store,
                                     std::size_t count) {
  std::vector<Shf> queries;
  queries.reserve(count);
  for (UserId u = 0; u < count; ++u) queries.push_back(store.Extract(u));
  return queries;
}

}  // namespace gf::net

#endif  // GF_TESTS_NET_NET_TEST_UTIL_H_
