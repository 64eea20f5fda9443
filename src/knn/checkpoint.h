// Checkpoint/resume for long KNN builds. The paper's deployment story
// (§1.2) recomputes graphs "in short intervals on fresh data"; a build
// that dies near the end of an interval must not forfeit the whole
// similarity budget. A BuildCheckpoint captures the complete mutable
// state of a construction at a deterministic boundary (a brute-force
// row chunk or a greedy iteration): the partial neighbor lists
// (including the is_new flags NNDescent's joins and Hyrec's steps
// read), the sampling RNG, and the progress counters. Because the
// algorithms are deterministic given that state, a resumed build
// replays the remaining work and provably converges to the same graph
// — edge-for-edge, tie-break-for-tie-break — as an uninterrupted run
// (test-enforced in tests/integration).
//
// Checkpoints travel in the GFSZ container (io/container.h, payload
// kind 4 = Checkpoint), CRC-validated like every other artifact, and
// reach disk through the Env seam so crash-recovery tests can script
// torn writes at exact operation indices.
//
// Every resumable construction (BruteForceKnn, HyrecKnn, NNDescentKnn,
// ClusterConquerKnn) has one loop; BuildCheckpointer below is what
// that loop does between units of work when CheckpointConfig::dir is
// set, and nothing at all when it is empty. Three properties make a
// crashed-and-resumed build produce the exact graph of an
// uninterrupted one:
//
//  1. Snapshots are taken only at deterministic boundaries (a
//     brute-force row chunk, a greedy iteration, a wave of clusters)
//     and capture everything the remaining work depends on.
//  2. No snapshot is taken after the build's last unit of work;
//     otherwise a resumed run would re-enter the loop and do work the
//     uninterrupted run never did.
//  3. With or without a directory the loop runs the same
//     init-then-step sequence, so cadence never changes the result,
//     only where a crash can resume from.
//
// A failed checkpoint write aborts the build with the write's error:
// silently continuing would let a checkpointed build lose arbitrary
// progress, which is exactly what the caller asked to prevent.
//
// Checkpoint payload layout (little-endian, after the GFSZ header):
//
//   u32  algorithm       (1=BruteForce, 2=Hyrec, 3=NNDescent,
//                          4=ClusterConquer)
//   u64  num_users
//   u64  k
//   u64  seed            (configuration tag, BuildCheckpointer::Open;
//                          a resume under another tag is refused)
//   u64  next_user       (brute force: rows [0, next_user) are final;
//                          ClusterConquer: clusters [0, next_user) are
//                          built and merged)
//   u64  iterations      (greedy iterations completed)
//   u64  computations    (similarity computations so far)
//   u32  |updates_per_iteration|, then that many u64
//   4x u64 RNG lanes, f64 RNG spare, u8 RNG has_spare
//   ClusterConquer only (absent for the other algorithms):
//     u64  num_clusters
//     u64  assignments_per_user (t)
//     per cluster: u32 size, then size x u32 member id
//                  (strictly ascending within each cluster)
//   per user: u32 size, then size x (u32 id, f32 similarity, u8 is_new)

#ifndef GF_KNN_CHECKPOINT_H_
#define GF_KNN_CHECKPOINT_H_

#include <bit>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "hash/murmur3.h"
#include "io/env.h"
#include "knn/graph.h"
#include "knn/greedy_config.h"
#include "obs/metrics.h"
#include "obs/pipeline_context.h"

namespace gf {

/// Which construction wrote the checkpoint. Stable wire values —
/// intentionally NOT KnnAlgorithm (whose enumerators may be reordered).
enum class CheckpointAlgorithm : uint32_t {
  kBruteForce = 1,
  kHyrec = 2,
  kNNDescent = 3,
  kClusterConquer = 4,
};

/// Complete resumable state of an in-progress KNN build.
struct BuildCheckpoint {
  CheckpointAlgorithm algorithm = CheckpointAlgorithm::kBruteForce;
  uint64_t num_users = 0;
  uint64_t k = 0;
  uint64_t seed = 0;       // the configuration tag
  uint64_t next_user = 0;  // ClusterConquer: the next *cluster* index
  uint64_t iterations = 0;
  uint64_t computations = 0;
  std::vector<uint64_t> updates_per_iteration;
  Rng::State rng;
  // Cluster-and-Conquer extras (kClusterConquer only; empty otherwise):
  // the cluster assignment the partial lists were merged under.
  uint64_t num_clusters = 0;
  uint64_t assignments_per_user = 0;
  std::vector<uint32_t> cluster_sizes;          // num_clusters
  std::vector<uint32_t> cluster_members;        // concatenated, ascending
                                                // within each cluster
  std::vector<uint32_t> row_sizes;              // num_users
  std::vector<NeighborLists::Entry> rows;       // num_users * k, row-major
};

/// Checkpointing policy of the resumable builds and the pipeline
/// facade (knn/builder.h).
struct CheckpointConfig {
  /// Directory holding checkpoint-NNNNNN.gfsz files. Empty disables
  /// checkpointing entirely.
  std::string dir;
  /// Snapshot every `every` progress units (greedy iterations,
  /// clusters, or brute-force chunks of `chunk_users` rows).
  std::size_t every = 1;
  std::size_t chunk_users = 256;
  /// Resume from the newest valid checkpoint in `dir` (falling back to
  /// older ones past torn/corrupt files); a fresh build otherwise.
  bool resume = false;
  /// nullptr means io::Env::Default().
  io::Env* env = nullptr;
};

/// Registry names of the checkpoint I/O counters (AttachMetrics below).
inline constexpr std::string_view kStatCheckpointSaves = "checkpoint.saves";
inline constexpr std::string_view kStatCheckpointBytesWritten =
    "checkpoint.bytes_written";
inline constexpr std::string_view kStatCheckpointLoads = "checkpoint.loads";
inline constexpr std::string_view kStatCheckpointBytesRead =
    "checkpoint.bytes_read";
inline constexpr std::string_view kStatCheckpointPruned =
    "checkpoint.files_pruned";
inline constexpr std::string_view kStatCheckpointCorruptSkipped =
    "checkpoint.corrupt_skipped";

/// GFSZ (de)serialization, payload kind 4. Deserialize validates
/// internal consistency (row sizes <= k, ids < num_users, exact
/// payload length) and returns Corruption on any violation.
std::string SerializeCheckpoint(const BuildCheckpoint& checkpoint);
Result<BuildCheckpoint> DeserializeCheckpoint(std::string_view buffer);

/// Snapshots every row of `lists` into `checkpoint` (sets num_users, k,
/// row_sizes, rows; the caller fills the rest).
void CaptureLists(const NeighborLists& lists, BuildCheckpoint* checkpoint);

/// Restores every row captured by CaptureLists. Fails with
/// FailedPrecondition when the shapes disagree.
Status RestoreLists(const BuildCheckpoint& checkpoint, NeighborLists* lists);

/// The progress of a greedy build's state (HyrecState,
/// NNDescentState): its lists plus the iteration, computation and
/// per-iteration update counters.
template <typename GreedyState>
void CaptureProgress(const GreedyState& state, BuildCheckpoint* checkpoint) {
  checkpoint->iterations = state.iterations;
  checkpoint->computations = state.computations;
  checkpoint->updates_per_iteration = state.updates_per_iteration;
  CaptureLists(state.lists, checkpoint);
}

template <typename GreedyState>
Status RestoreProgress(const BuildCheckpoint& checkpoint,
                       GreedyState& state) {
  GF_RETURN_IF_ERROR(RestoreLists(checkpoint, &state.lists));
  state.iterations = static_cast<std::size_t>(checkpoint.iterations);
  state.computations = checkpoint.computations;
  state.updates_per_iteration = checkpoint.updates_per_iteration;
  return Status::OK();
}

/// Verifies a loaded checkpoint belongs to this build: same algorithm,
/// shape and configuration tag.
Status ValidateCheckpoint(const BuildCheckpoint& checkpoint,
                          CheckpointAlgorithm algorithm, uint64_t num_users,
                          uint64_t k, uint64_t tag);

/// Folds `values` into a configuration tag (BuildCheckpointer::Open).
inline uint64_t MixTag(uint64_t tag, std::initializer_list<uint64_t> values) {
  for (const uint64_t value : values) tag = hash::Murmur3Hash64(value, tag);
  return tag;
}

/// `tag` with every GreedyConfig setting but k (checked on its own)
/// mixed in. HyrecKnn and NNDescentKnn open their checkpoints under
/// it, so a direct call refuses a resume under another δ, sample rate,
/// iteration cap or seed, as BuildKnnGraph does.
inline uint64_t GreedyTag(uint64_t tag, const GreedyConfig& config) {
  return MixTag(tag, {std::bit_cast<uint64_t>(config.delta),
                      std::bit_cast<uint64_t>(config.sample_rate),
                      config.max_iterations, config.seed});
}

/// Rotating on-disk checkpoint sequence: checkpoint-000000.gfsz,
/// checkpoint-000001.gfsz, ... in a directory, written atomically
/// through the Env, pruned to the newest `keep` (builds keep 2, so a
/// crash during the newest write always leaves a valid predecessor).
class CheckpointStore {
 public:
  /// Does not own `env`; nullptr means io::Env::Default().
  CheckpointStore(std::string dir, io::Env* env = nullptr,
                  std::size_t keep = 2);

  /// Creates the directory.
  Status Init();

  /// Deletes every checkpoint file (a fresh build invalidates whatever
  /// an earlier run left behind). Best effort on individual files.
  Status Reset();

  /// Writes the next checkpoint in the sequence and prunes old ones.
  Status Save(const BuildCheckpoint& checkpoint);

  /// Loads the newest checkpoint that deserializes cleanly, skipping
  /// torn or corrupt files. NotFound when the directory holds no usable
  /// checkpoint. Subsequent Save() calls continue the sequence past the
  /// loaded file.
  Result<BuildCheckpoint> LoadLatest();

  /// Routes checkpoint I/O counters (kStatCheckpoint*) into `metrics`.
  /// nullptr detaches. The registry must outlive the store.
  void AttachMetrics(obs::MetricRegistry* metrics);

  const std::string& dir() const { return dir_; }

 private:
  std::string FilePath(uint64_t seq) const;
  void Count(std::string_view name, uint64_t n) const;

  std::string dir_;
  io::Env* env_;
  std::size_t keep_;
  uint64_t next_seq_ = 0;
  obs::MetricRegistry* metrics_ = nullptr;
};

/// The checkpoint side of a resumable build's one loop. Inactive when
/// CheckpointConfig::dir is empty: no store is opened, no Env call is
/// made and Advance never writes, so the build does exactly its
/// uncheckpointed work. Active, it owns the whole policy: Open clears
/// the directory for a fresh build or loads and validates the newest
/// checkpoint for a resume, and Advance snapshots every `every` units
/// of work, never after the last one, pruning to the newest two files.
class BuildCheckpointer {
 public:
  /// Inactive.
  BuildCheckpointer() = default;

  /// Opens the checkpoint side of an `algorithm` build of
  /// `num_users` x `k` lists. `tag` hashes the rest of the
  /// configuration (the entry point's caller's tag with the entry
  /// point's own config mixed in); it is written into every snapshot,
  /// and a resume from a checkpoint with another tag fails with
  /// FailedPrecondition. Checkpoint I/O counters land in obs->metrics
  /// and saves run under a "checkpoint.save" span.
  static Result<BuildCheckpointer> Open(const CheckpointConfig& config,
                                        CheckpointAlgorithm algorithm,
                                        uint64_t num_users, uint64_t k,
                                        uint64_t tag,
                                        const obs::PipelineContext* obs);

  bool active() const { return store_.has_value(); }

  /// Units of work per snapshot (CheckpointConfig::every, at least 1).
  std::size_t every() const { return every_; }

  /// The checkpoint this build resumes from; nullptr for a fresh start.
  const BuildCheckpoint* resumed() const {
    return resumed_.has_value() ? &*resumed_ : nullptr;
  }

  /// Records `units` finished units of work. Once `every` have
  /// finished since the last snapshot and `more_work` remains, writes a
  /// snapshot: `capture(BuildCheckpoint&)` fills in the build's
  /// progress (lists, counters, RNG) of a checkpoint whose algorithm
  /// and tag are already set.
  template <typename Capture>
  Status Advance(std::size_t units, bool more_work, Capture&& capture) {
    if (!active()) return Status::OK();
    since_save_ += units;
    if (!more_work || since_save_ < every_) return Status::OK();
    obs::ScopedPhase save_span(obs_, "checkpoint.save");
    BuildCheckpoint checkpoint;
    checkpoint.algorithm = algorithm_;
    checkpoint.seed = tag_;
    capture(checkpoint);
    GF_RETURN_IF_ERROR(store_->Save(checkpoint));
    since_save_ = 0;
    return Status::OK();
  }

 private:
  std::optional<CheckpointStore> store_;
  std::optional<BuildCheckpoint> resumed_;
  CheckpointAlgorithm algorithm_ = CheckpointAlgorithm::kBruteForce;
  uint64_t tag_ = 0;
  std::size_t every_ = 1;
  std::size_t since_save_ = 0;
  const obs::PipelineContext* obs_ = nullptr;
};

}  // namespace gf

#endif  // GF_KNN_CHECKPOINT_H_
