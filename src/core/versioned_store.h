// The write side of online ingestion (DESIGN.md §15).
//
// MutableFingerprintStore is the mutable mirror of FingerprintStore:
// the exact sorted item profile of every user, edited by rating
// add/remove events under set discipline (a duplicate add and a remove
// of an absent item are rejected), plus the set of users touched since
// the last publish. It keeps no bits: an SHF is a pure function of its
// profile, so every epoch fingerprints its changed rows from scratch
// and is bit-identical to FingerprintStore::Build over the same
// ratings — the property the versioned_store property test asserts
// over randomized event streams.
//
// VersionedStore pairs that write side with the snapshot seam: a
// single-writer Apply stream mutates the write side, and Stage/Commit
// publish immutable StoreSnapshot epochs that readers acquire without
// waiting on the writer's work (a shared_ptr copy or swap under a
// mutex held for nothing else — RCU by reference count). Publication
// is copy-on-write at epoch granularity: Stage copies the current
// epoch's word and cardinality arenas into a fresh contiguous arena
// (FingerprintStore kernels require row-major adjacency) and
// re-fingerprints only the dirty users from their profiles. The
// previous epoch keeps serving until its last reader drops, and
// LiveSnapshots() exposes how many epochs are still pinned.
//
// Because a stage builds on the last committed epoch and drains the
// dirty set, each Stage must be committed before the next one: a
// staged epoch that is dropped, or staged over, loses its rows from
// every later epoch. A debug assert checks the pairing.
//
// Threading contract: Apply/Stage/Commit/Publish are single-writer
// (the IngestService worker); Acquire and LiveSnapshots are safe from
// any thread concurrently with the writer.

#ifndef GF_CORE_VERSIONED_STORE_H_
#define GF_CORE_VERSIONED_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "core/fingerprint_store.h"
#include "core/fingerprinter.h"
#include "core/store_snapshot.h"
#include "dataset/dataset.h"

namespace gf {

/// One rating mutation. `enqueued_micros` is stamped at submission so
/// the publish path can report freshness lag (event seen -> epoch
/// visible to readers).
struct RatingEvent {
  enum class Kind : uint8_t { kAdd = 0, kRemove = 1 };

  static RatingEvent Add(UserId user, ItemId item) {
    return {Kind::kAdd, user, item, 0};
  }
  static RatingEvent Remove(UserId user, ItemId item) {
    return {Kind::kRemove, user, item, 0};
  }

  Kind kind = Kind::kAdd;
  UserId user = 0;
  ItemId item = 0;
  uint64_t enqueued_micros = 0;
};

/// Fixed user population, fully mutable profiles. Not thread-safe;
/// VersionedStore serializes access through its single writer.
class MutableFingerprintStore {
 public:
  /// `num_users` empty profiles under `config` (validated once here).
  static Result<MutableFingerprintStore> Create(const FingerprintConfig& config,
                                                std::size_t num_users);

  /// Seeds the write side with a copy of `dataset`'s profiles (sorted
  /// and deduplicated by Dataset::FromProfiles), so Materialize()
  /// equals the batch fingerprinting of `dataset` bit for bit. Seeding
  /// is the epoch-0 baseline: no user is dirty and no event counts.
  static Result<MutableFingerprintStore> FromDataset(
      const Dataset& dataset, const FingerprintConfig& config);

  std::size_t num_users() const { return profiles_.size(); }
  std::size_t num_bits() const { return config().num_bits; }
  const FingerprintConfig& config() const { return fingerprinter_.config(); }

  /// Adds `item` to `user`'s profile. Returns false — and changes
  /// nothing — when the user is out of range or already rates the item.
  bool Add(UserId user, ItemId item);

  /// Removes `item` from `user`'s profile; false when out of range or
  /// not currently rated.
  bool Remove(UserId user, ItemId item);

  /// Dispatches on the event kind; same return convention.
  bool Apply(const RatingEvent& event);

  /// The user's current sorted item set.
  std::span<const ItemId> ProfileOf(UserId user) const {
    return profiles_[user];
  }

  /// Events that changed state (rejected no-ops excluded).
  uint64_t applied_events() const { return applied_; }

  /// Users touched since the last TakeDirty, sorted; clears the set.
  /// This is the changed_users input to incremental graph repair.
  std::vector<UserId> TakeDirty();

  /// Fingerprints every current profile into a fresh owning
  /// FingerprintStore: epoch 0, and the from-scratch reference.
  FingerprintStore Materialize() const;

  /// Copies `base`'s arenas and re-fingerprints the rows of `users`
  /// from their current profiles: the publish-path stitch. Equals
  /// Materialize() when every other row of `base` already matches its
  /// profile. `base` must have num_users() rows under config().
  FingerprintStore Stitch(const FingerprintStore& base,
                          std::span<const UserId> users) const;

 private:
  MutableFingerprintStore(Fingerprinter fingerprinter, std::size_t num_users);

  Fingerprinter fingerprinter_;
  std::vector<std::vector<ItemId>> profiles_;  // sorted, the truth set
  std::vector<uint8_t> dirty_flags_;
  std::vector<UserId> dirty_;
  uint64_t applied_ = 0;
};

/// Epoch publisher over a MutableFingerprintStore.
class VersionedStore final : public SnapshotSource {
 public:
  /// Publishes epoch 0 from the seeded write side immediately, so
  /// Acquire never observes an empty state. `initial_graph`, when
  /// given, rides on epoch 0 (it must describe the seeded ratings).
  /// `clock` stamps published_micros (nullptr -> system clock).
  explicit VersionedStore(MutableFingerprintStore write_side,
                          std::shared_ptr<const KnnGraph> initial_graph =
                              nullptr,
                          Clock* clock = nullptr);

  /// Current epoch, one pointer copy under the lock; never nullptr.
  /// Thread-safe.
  SnapshotPtr Acquire() const override {
    const std::lock_guard<std::mutex> lock(mu_);
    return current_;
  }

  /// Write-side access (single writer only).
  MutableFingerprintStore& write_side() { return write_side_; }
  const MutableFingerprintStore& write_side() const { return write_side_; }
  bool Apply(const RatingEvent& event) { return write_side_.Apply(event); }

  /// An epoch under construction: the stitched store plus the users
  /// whose rows and neighborhoods changed. Splitting staging
  /// from commit lets the caller run RefreshKnnGraph against the
  /// staged store and publish store + repaired graph as one epoch.
  struct Staged {
    uint64_t epoch;
    FingerprintStore store;
    std::vector<UserId> dirty;
  };

  /// Builds epoch `epoch()+1` from the current epoch by re-
  /// fingerprinting the dirty users, and drains the dirty set. Readers
  /// are unaffected until Commit, which must follow before the next
  /// Stage (asserted in debug builds).
  Staged Stage();

  /// Publishes the staged epoch (with `graph` attached, possibly
  /// nullptr) as the new current snapshot and returns it.
  SnapshotPtr Commit(Staged staged, std::shared_ptr<const KnnGraph> graph);

  /// Stage + Commit for callers without a repair step. A nullptr
  /// `graph` carries the previous epoch's graph forward unchanged
  /// (store-only publish; the graph may lag until repaired).
  SnapshotPtr Publish(std::shared_ptr<const KnnGraph> graph = nullptr);

  /// Epoch of the latest published snapshot.
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Snapshots not yet retired (published and still referenced). At
  /// quiescence with one reader holding nothing, this is 1 — the
  /// current epoch held by the store itself.
  int64_t LiveSnapshots() const {
    return live_->load(std::memory_order_acquire);
  }

 private:
  SnapshotPtr MakeTracked(FingerprintStore store, uint64_t epoch,
                          std::shared_ptr<const KnnGraph> graph);

  MutableFingerprintStore write_side_;
  bool stage_open_ = false;  // a Stage awaits its Commit
  Clock* clock_;
  std::shared_ptr<std::atomic<int64_t>> live_;
  std::atomic<uint64_t> epoch_{0};
  // Guards current_ only. Not std::atomic<SnapshotPtr>: TSan reports
  // libstdc++ 12's store/load pair on it as a data race.
  mutable std::mutex mu_;
  SnapshotPtr current_;
};

}  // namespace gf

#endif  // GF_CORE_VERSIONED_STORE_H_
