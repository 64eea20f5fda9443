// Golden byte-exact files pinning the on-disk layout (field order,
// byte order, framing) of every GFSZ payload kind and of the GFIX
// index. Any change to the wire format — intentional or not — fails
// here first; an intentional change must bump the format version and
// regenerate the files by running this binary with GF_UPDATE_GOLDEN=1
// (it rewrites tests/io/testdata/ in the source tree).
//
// All inputs are fully deterministic: TinyDataset, sequential
// (pool-less) fingerprint builds and hand-written graphs/checkpoints.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "io/gfix.h"
#include "io/serialization.h"
#include "knn/checkpoint.h"
#include "testing/test_util.h"

namespace gf::io {
namespace {

bool UpdateMode() { return std::getenv("GF_UPDATE_GOLDEN") != nullptr; }

std::string GoldenPath(const std::string& file) {
  return std::string(GF_IO_TESTDATA_DIR) + "/" + file;
}

// In update mode writes `bytes` as the new golden; otherwise asserts
// byte equality with the committed file.
void CheckGolden(const std::string& file, const std::string& bytes) {
  const std::string path = GoldenPath(file);
  Env* env = Env::Default();
  if (UpdateMode()) {
    ASSERT_TRUE(env->CreateDirs(std::string(GF_IO_TESTDATA_DIR)).ok());
    ASSERT_TRUE(env->WriteFileAtomic(path, bytes).ok());
    return;
  }
  auto golden = env->ReadFile(path);
  ASSERT_TRUE(golden.ok()) << golden.status().ToString()
                           << " — regenerate with GF_UPDATE_GOLDEN=1";
  EXPECT_EQ(bytes, *golden) << "wire format drifted from " << path
                            << "; a layout change needs a version bump";
}

FingerprintConfig GoldenConfig() {
  FingerprintConfig config;
  config.num_bits = 64;
  config.seed = 42;
  return config;
}

TEST(GoldenFileTest, Dataset) {
  CheckGolden("dataset.gfsz", SerializeDataset(gf::testing::TinyDataset()));
}

TEST(GoldenFileTest, FingerprintStore) {
  const FingerprintStore store =
      FingerprintStore::Build(gf::testing::TinyDataset(), GoldenConfig())
          .value();
  CheckGolden("store.gfsz", SerializeFingerprintStore(store));

  // The golden bytes also round-trip.
  auto back = DeserializeFingerprintStore(SerializeFingerprintStore(store));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_users(), store.num_users());
}

TEST(GoldenFileTest, KnnGraph) {
  // 3 users, k = 2, one short row — exercises the count field.
  const std::vector<Neighbor> edges = {
      {1, 0.5f}, {2, 0.25f},  // user 0
      {0, 0.5f}, {2, 0.125f},  // user 1
      {0, 0.25f}, {0, 0.0f},  // user 2 (second slot unused)
  };
  const KnnGraph graph(3, 2, edges, {2, 2, 1});
  CheckGolden("graph.gfsz", SerializeKnnGraph(graph));
}

TEST(GoldenFileTest, Checkpoint) {
  BuildCheckpoint checkpoint;
  checkpoint.algorithm = CheckpointAlgorithm::kNNDescent;
  checkpoint.num_users = 2;
  checkpoint.k = 2;
  checkpoint.seed = 42;
  checkpoint.next_user = 1;
  checkpoint.iterations = 3;
  checkpoint.computations = 17;
  checkpoint.updates_per_iteration = {5, 2, 0};
  checkpoint.rng.lanes = {1, 2, 3, 4};
  checkpoint.rng.spare = 0.5;
  checkpoint.rng.has_spare = true;
  checkpoint.row_sizes = {2, 1};
  checkpoint.rows = {{1, 0.75f, true},
                     {0, 0.5f, false},
                     {0, 0.75f, true},
                     {}};
  CheckGolden("checkpoint.gfsz", SerializeCheckpoint(checkpoint));
}

TEST(GoldenFileTest, GfixIndex) {
  const FingerprintStore store =
      FingerprintStore::Build(gf::testing::TinyDataset(), GoldenConfig())
          .value();
  GfixWriteOptions options;
  options.shard_begins = {0, 2};

  Env* env = Env::Default();
  const std::string tmp =
      ::testing::TempDir() + "/golden_index_candidate.gfix";
  ASSERT_TRUE(WriteGfixIndex(store, tmp, options, env).ok());
  auto bytes = env->ReadFile(tmp);
  ASSERT_TRUE(bytes.ok());
  CheckGolden("index.gfix", *bytes);

  // The golden index must open and serve under full verification.
  auto mapped = MappedFingerprintStore::Open(
      GoldenPath("index.gfix"),
      MappedFingerprintStore::OpenOptions{GfixVerify::kFull}, env);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(mapped->num_users(), 4u);
}

}  // namespace
}  // namespace gf::io
