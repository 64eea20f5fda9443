// StoreSnapshot: one immutable epoch of the fingerprint store, the
// read-side seam of the online-ingestion path (DESIGN.md §15).
//
// Every consumer of fingerprints — query engines, the sharded store,
// the serving front-end, gfk — reads through a SnapshotPtr instead of a
// raw `const FingerprintStore&`. A snapshot is reference-counted and
// never mutated after publication: readers acquire one pointer per
// batch (one shared_ptr copy), run the whole batch against it, and
// drop it; writers publish a new snapshot by swapping the current
// pointer. Readers and writers share only that copy or swap, never a
// batch's or a publish's work (RCU by shared_ptr): an epoch stays alive
// exactly as long as some batch still holds it, and is retired — arena
// freed — when the last holder drops.
//
// A snapshot optionally carries the KNN graph built over the same
// epoch's ratings, so store and graph always advance together (the
// IngestService publishes the pair atomically). The graph is opaque to
// core: only the shared_ptr is stored, nothing is dereferenced, so
// gf_core keeps zero dependency on gf_knn.
//
// Two construction modes mirror FingerprintStore's own owned/borrowed
// split:
//   * Own     — the snapshot owns a store by value (VersionedStore's
//               publish path, epoch > 0 typically).
//   * Borrow  — a non-owning wrapper around a store that outlives the
//               snapshot (batch-built stores, mmap-served GFIX
//               indexes). This is how every pre-ingestion call site
//               joins the seam without copying anything.

#ifndef GF_CORE_STORE_SNAPSHOT_H_
#define GF_CORE_STORE_SNAPSHOT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>

#include "core/fingerprint_store.h"

namespace gf {

class KnnGraph;  // knn/graph.h; held opaquely, never dereferenced here
class StoreSnapshot;

/// The currency of the read path: engines pin one of these per batch.
using SnapshotPtr = std::shared_ptr<const StoreSnapshot>;

class StoreSnapshot {
 public:
  /// Publishes an owning snapshot. `on_retire`, when set, runs as the
  /// last reference drops (VersionedStore uses it to count live
  /// epochs); it must not touch the snapshot, which is already gone.
  static SnapshotPtr Own(FingerprintStore store, uint64_t epoch = 0,
                         std::shared_ptr<const KnnGraph> graph = nullptr,
                         uint64_t published_micros = 0,
                         std::function<void()> on_retire = nullptr);

  /// Wraps a store the caller keeps alive. The bridge for immutable
  /// call sites: zero copies, epoch 0 by convention.
  static SnapshotPtr Borrow(const FingerprintStore& store, uint64_t epoch = 0,
                            std::shared_ptr<const KnnGraph> graph = nullptr);

  const FingerprintStore& store() const {
    return owned_.has_value() ? *owned_ : *borrowed_;
  }
  uint64_t epoch() const { return epoch_; }
  /// The KNN graph published with this epoch, or nullptr when the
  /// snapshot serves store-only traffic.
  const std::shared_ptr<const KnnGraph>& graph() const { return graph_; }
  /// Clock reading at publication (0 for borrowed snapshots); the
  /// freshness-lag metrics are derived from it.
  uint64_t published_micros() const { return published_micros_; }

 private:
  StoreSnapshot() = default;

  std::optional<FingerprintStore> owned_;
  const FingerprintStore* borrowed_ = nullptr;
  std::shared_ptr<const KnnGraph> graph_;
  uint64_t epoch_ = 0;
  uint64_t published_micros_ = 0;
};

/// Where snapshots come from. Engines hold a source, not a snapshot:
/// acquiring re-reads the current epoch, so a long-lived engine serves
/// fresh data without being re-created. Acquire is safe to call from
/// any thread and never returns nullptr.
class SnapshotSource {
 public:
  virtual ~SnapshotSource() = default;
  virtual SnapshotPtr Acquire() const = 0;
};

/// A source pinned to one snapshot forever — adapts batch-built and
/// mmap-served stores (which never change) to the seam.
class FixedSnapshotSource final : public SnapshotSource {
 public:
  explicit FixedSnapshotSource(SnapshotPtr snapshot)
      : snapshot_(std::move(snapshot)) {}
  /// Convenience: borrow `store` (caller keeps it alive) as epoch 0.
  explicit FixedSnapshotSource(const FingerprintStore& store)
      : snapshot_(StoreSnapshot::Borrow(store)) {}

  SnapshotPtr Acquire() const override { return snapshot_; }

 private:
  SnapshotPtr snapshot_;
};

}  // namespace gf

#endif  // GF_CORE_STORE_SNAPSHOT_H_
