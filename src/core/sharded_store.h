// ShardedFingerprintStore: one fingerprint arena seen as S contiguous
// zero-copy user shards (DESIGN.md §12). Shard s is a borrowed view
// over a run of the arena's rows — no bytes move — so every global
// user id appears in exactly one shard, bit for bit the source row, and
// a scatter/merge scan over the shards stays bit-exact with a scan of
// the whole store.
//
// Why contiguous shards: the SHF rows are fixed-width (words_per_shf
// words each), so S equal slices are perfectly balanced in both bytes
// and scan work, and a shard-local tile scan is the same cache-friendly
// kernel the single store runs (core/fingerprint_store.h). Global ids
// recover as ShardBegin(s) + local row.

#ifndef GF_CORE_SHARDED_STORE_H_
#define GF_CORE_SHARDED_STORE_H_

#include <cstddef>
#include <span>
#include <vector>

#include "common/result.h"
#include "core/fingerprint_store.h"
#include "core/store_snapshot.h"
#include "obs/pipeline_context.h"

namespace gf {

/// Immutable sharded view of one FingerprintStore's arena.
class ShardedFingerprintStore {
 public:
  /// Zero-copy hydration (also the mmap serving path, io/gfix.h): shard
  /// s becomes a borrowed view over rows [shard_begins[s],
  /// shard_begins[s+1]) of `source`'s arena — no bytes move, so a
  /// million-user store shards in microseconds. `shard_begins` must
  /// start at 0, be non-decreasing and stay within
  /// source.num_users(), which closes the last shard; anything else
  /// (a GFIX file's shard bounds included) is InvalidArgument. Equal
  /// begins make empty shards, which scans skip. The SOURCE's memory
  /// (not the source object) must outlive the result.
  static Result<ShardedFingerprintStore> ViewOf(
      const FingerprintStore& source, std::span<const UserId> shard_begins,
      const obs::PipelineContext* obs = nullptr);

  /// ViewOf over an epoch snapshot: the same zero-copy hydration, but
  /// the result co-owns the snapshot, so the epoch's arena stays alive
  /// for as long as this view (or any engine built on it) does. This is
  /// how a query batch stays pinned to one epoch end to end under live
  /// ingestion (DESIGN.md §15).
  static Result<ShardedFingerprintStore> ViewOf(
      SnapshotPtr snapshot, std::span<const UserId> shard_begins,
      const obs::PipelineContext* obs = nullptr);

  /// The canonical balanced split: num_shards begins with shard sizes
  /// differing by at most one user (the first num_users % num_shards
  /// shards take the extra). Feed the result to ViewOf.
  static std::vector<UserId> BalancedBegins(std::size_t num_users,
                                            std::size_t num_shards);

  std::size_t num_shards() const { return shards_.size(); }

  /// Shard `s`, a store borrowing its rows; its local row r is global
  /// user ShardBegin(s) + r.
  const FingerprintStore& shard(std::size_t s) const { return shards_[s]; }

  /// First global user id of shard `s`.
  UserId ShardBegin(std::size_t s) const { return shard_begins_[s]; }

  std::size_t num_users() const { return num_users_; }
  std::size_t num_bits() const { return config_.num_bits; }
  const FingerprintConfig& config() const { return config_; }

 private:
  ShardedFingerprintStore(const FingerprintConfig& config,
                          std::size_t num_users)
      : config_(config), num_users_(num_users) {}

  FingerprintConfig config_;
  std::size_t num_users_;
  std::vector<FingerprintStore> shards_;
  std::vector<UserId> shard_begins_;
  // Keeps the borrowed source (an epoch snapshot) alive for snapshot
  // views; null for raw ViewOf borrows.
  std::shared_ptr<const void> retain_;
};

}  // namespace gf

#endif  // GF_CORE_SHARDED_STORE_H_
