// Corruption fuzzing across every GFSZ payload kind: a reader handed a
// truncated or bit-flipped container must fail with a clean Status —
// never crash, hang, or allocate absurdly (the suite runs under ASan /
// UBSan in CI). Truncations must always surface as Corruption;
// bit-flips may also legitimately surface as InvalidArgument (a flip in
// the kind field turns a valid container into a different, valid kind).

#include <gtest/gtest.h>

#include <string>

#include "common/random.h"
#include "io/serialization.h"
#include "knn/brute_force.h"
#include "knn/checkpoint.h"
#include "knn/similarity_provider.h"
#include "testing/test_util.h"

namespace gf::io {
namespace {

/// GFSZ header bytes (magic, version, kind, payload length).
constexpr std::size_t kHeaderBytes = 20;

std::string CheckpointBytes() {
  const Dataset d = gf::testing::SmallSynthetic(30);
  ExactJaccardProvider provider(d);
  NeighborLists lists(d.NumUsers(), 4);
  BruteForceScoreRows(provider, lists, 0, d.NumUsers());
  BuildCheckpoint checkpoint;
  checkpoint.algorithm = CheckpointAlgorithm::kBruteForce;
  checkpoint.next_user = d.NumUsers();
  checkpoint.computations = 123;
  CaptureLists(lists, &checkpoint);
  return SerializeCheckpoint(checkpoint);
}

// A kClusterConquer checkpoint: the kind-4 extras section (cluster
// assignment) sits between the RNG state and the row payload, so the
// fuzzers cover its bounds checks too.
std::string ClusterCheckpointBytes() {
  const Dataset d = gf::testing::SmallSynthetic(30);
  ExactJaccardProvider provider(d);
  NeighborLists lists(d.NumUsers(), 4);
  BruteForceScoreRows(provider, lists, 0, d.NumUsers());
  BuildCheckpoint checkpoint;
  checkpoint.algorithm = CheckpointAlgorithm::kClusterConquer;
  checkpoint.seed = 77;
  checkpoint.next_user = 2;  // clusters merged so far
  checkpoint.computations = 55;
  checkpoint.num_clusters = 3;
  checkpoint.assignments_per_user = 2;
  checkpoint.cluster_sizes = {10, 10, 10};
  for (UserId u = 0; u < d.NumUsers(); ++u) {
    checkpoint.cluster_members.push_back(u);
  }
  CaptureLists(lists, &checkpoint);
  return SerializeCheckpoint(checkpoint);
}

struct Artifact {
  const char* name;
  std::string bytes;
  // Deserializes and reports (ok, code); never throws or crashes.
  Status (*parse)(std::string_view);
};

Status ParseDataset(std::string_view bytes) {
  return DeserializeDataset(bytes).status();
}
Status ParseFingerprints(std::string_view bytes) {
  return DeserializeFingerprintStore(bytes).status();
}
Status ParseGraph(std::string_view bytes) {
  return DeserializeKnnGraph(bytes).status();
}
Status ParseCheckpoint(std::string_view bytes) {
  return DeserializeCheckpoint(bytes).status();
}

std::vector<Artifact> AllArtifacts() {
  const Dataset d = gf::testing::SmallSynthetic(30);
  FingerprintConfig config;
  config.num_bits = 64;
  ExactJaccardProvider provider(d);
  return {
      {"dataset", SerializeDataset(d), &ParseDataset},
      {"fingerprints",
       SerializeFingerprintStore(FingerprintStore::Build(d, config).value()),
       &ParseFingerprints},
      {"graph", SerializeKnnGraph(BruteForceKnn(provider, 4).value()),
       &ParseGraph},
      {"checkpoint", CheckpointBytes(), &ParseCheckpoint},
      {"cc_checkpoint", ClusterCheckpointBytes(), &ParseCheckpoint},
  };
}

TEST(CorruptionFuzzTest, EveryHeaderTruncationIsCorruption) {
  for (const Artifact& artifact : AllArtifacts()) {
    for (std::size_t len = 0; len <= kHeaderBytes; ++len) {
      const Status status =
          artifact.parse(std::string_view(artifact.bytes).substr(0, len));
      EXPECT_EQ(status.code(), StatusCode::kCorruption)
          << artifact.name << " truncated to " << len << " bytes: "
          << status.ToString();
    }
  }
}

TEST(CorruptionFuzzTest, EveryTruncationIsCorruption) {
  for (const Artifact& artifact : AllArtifacts()) {
    for (std::size_t len = 0; len < artifact.bytes.size(); ++len) {
      const Status status =
          artifact.parse(std::string_view(artifact.bytes).substr(0, len));
      EXPECT_EQ(status.code(), StatusCode::kCorruption)
          << artifact.name << " truncated to " << len << " of "
          << artifact.bytes.size() << " bytes: " << status.ToString();
    }
  }
}

TEST(CorruptionFuzzTest, TrailingGarbageIsCorruption) {
  for (const Artifact& artifact : AllArtifacts()) {
    std::string padded = artifact.bytes + std::string("junk");
    EXPECT_EQ(artifact.parse(padded).code(), StatusCode::kCorruption)
        << artifact.name;
  }
}

TEST(CorruptionFuzzTest, RandomBitFlipsNeverCrashAndAlwaysFail) {
  Rng rng(20260805);
  for (const Artifact& artifact : AllArtifacts()) {
    constexpr int kFlips = 400;
    for (int i = 0; i < kFlips; ++i) {
      std::string mutated = artifact.bytes;
      const std::size_t bit = rng.Below(mutated.size() * 8);
      mutated[bit / 8] = static_cast<char>(
          static_cast<unsigned char>(mutated[bit / 8]) ^ (1u << (bit % 8)));
      const Status status = artifact.parse(mutated);
      EXPECT_FALSE(status.ok())
          << artifact.name << ": single bit flip at bit " << bit
          << " went undetected";
      EXPECT_TRUE(status.code() == StatusCode::kCorruption ||
                  status.code() == StatusCode::kInvalidArgument)
          << artifact.name << " bit " << bit << ": " << status.ToString();
    }
  }
}

TEST(CorruptionFuzzTest, EveryHeaderBitFlipIsDetected) {
  for (const Artifact& artifact : AllArtifacts()) {
    for (std::size_t bit = 0; bit < kHeaderBytes * 8; ++bit) {
      std::string mutated = artifact.bytes;
      mutated[bit / 8] = static_cast<char>(
          static_cast<unsigned char>(mutated[bit / 8]) ^ (1u << (bit % 8)));
      const Status status = artifact.parse(mutated);
      EXPECT_FALSE(status.ok())
          << artifact.name << ": header bit flip at bit " << bit
          << " went undetected";
    }
  }
}

}  // namespace
}  // namespace gf::io
