// ServingCache — the one serving cache (DESIGN.md §17): a sharded,
// lock-striped, fixed-capacity exact-result cache in front of
// SnapshotQueryEngine's scan. Rating workloads are Zipf-skewed, so a
// small cache absorbs most of the arrival stream; a hit returns the
// stored top-k without touching the store at all.
//
// Keying and exactness. An entry is keyed by the canonical 64-bit hash
// of (query words, bit length, cardinality, k) and stamped with the
// epoch it was computed against. A lookup only hits when the stored
// query compares EQUAL to the probe (full word-for-word SHF equality,
// same k, same epoch) — the hash routes, equality decides — so a hash
// collision can cost a miss but can never surface another query's
// result. Because entries are only ever filled from the scan's
// bit-exact batch path, a hit is bit-identical to what the scan would
// have answered for that (query, k, epoch): the cache introduces no
// approximation anywhere.
//
// Epoch consistency. The epoch is part of the match, not of the hash:
// after a snapshot publish, the very next probe for a cached query
// finds the old entry, sees the epoch mismatch, reclaims the slot
// (`cache.stale_epoch_evictions`) and reports a miss. Publication
// therefore invalidates the whole cache for free — no flush, no
// version sweep, no stale answer can ever be served.
//
// Eviction. Per-shard CLOCK (second chance): a hit sets the entry's
// reference bit; the insert hand sweeps, clearing reference bits, and
// replaces the first unreferenced (or stale) entry it finds. One-shot
// scans cycle through quickly while the Zipf head survives.
//
// Threading: each shard is guarded by its own mutex; probes for
// different shards never contend. All statistics are relaxed atomics
// mirrored into the obs registry when a context is supplied.

#ifndef GF_KNN_SERVING_CACHE_H_
#define GF_KNN_SERVING_CACHE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "core/shf.h"
#include "knn/graph.h"
#include "obs/pipeline_context.h"

namespace gf {

/// Sharded exact-result cache keyed by (canonical SHF hash, k, epoch).
class ServingCache {
 public:
  struct Options {
    /// Total entry budget across all shards. 0 disables the cache
    /// entirely (every Lookup misses, Insert is a no-op).
    std::size_t capacity = 4096;
    /// Lock stripes; probes for different shards never contend.
    /// Clamped to [1, capacity].
    std::size_t shards = 8;
    /// Test seam: overrides the canonical key hash so collision
    /// behavior (same hash, different SHF) is reachable
    /// deterministically. Production code leaves this unset.
    std::function<uint64_t(const Shf&, std::size_t k)> hash_fn;
  };

  /// `obs`, when given, must outlive the cache (instrument pointers
  /// are cached at construction).
  explicit ServingCache(Options options,
                        const obs::PipelineContext* obs = nullptr);

  ServingCache(const ServingCache&) = delete;
  ServingCache& operator=(const ServingCache&) = delete;

  /// On hit, copies the stored result into `*out` and returns true.
  /// Hits require full SHF equality, equal k AND equal epoch; an entry
  /// whose epoch differs from `epoch` is reclaimed on the spot
  /// (lazy stale eviction) and reported as a miss. A hit is always
  /// counted, a miss only with `count_miss`: a pre-queue probe
  /// (SnapshotQueryEngine::TryCached) passes false, because the batch
  /// that later serves the request probes again and counts it there.
  bool Lookup(const Shf& query, std::size_t k, uint64_t epoch,
              std::vector<Neighbor>* out, bool count_miss = true);

  /// Computes the answers of a batch's cache misses (one per miss, in
  /// order).
  using MissFn = std::function<Result<std::vector<std::vector<Neighbor>>>(
      std::span<const Shf> misses)>;

  /// The probe / compute-the-misses / fill loop of SnapshotQueryEngine:
  /// probes every query at `epoch`, hands the misses to `compute` in
  /// one call (none when every query hits), fills the cache from its
  /// answers and returns all answers in query order. Each query counts
  /// once: as a hit where the cache answers it, as a miss where
  /// `compute` does.
  Result<std::vector<std::vector<Neighbor>>> Serve(
      std::span<const Shf> queries, std::size_t k, uint64_t epoch,
      const MissFn& compute);

  /// Stores (or refreshes) the result for (query, k, epoch). Evicts
  /// per the CLOCK policy when the shard is full. `result` is copied.
  void Insert(const Shf& query, std::size_t k, uint64_t epoch,
              std::span<const Neighbor> result);

  /// Drops every entry (tests; production relies on epoch staleness).
  void Clear();

  /// Live entries across all shards.
  std::size_t Size() const;

  std::size_t capacity() const { return capacity_; }
  std::size_t num_shards() const { return shards_.size(); }

  /// Monotonic statistics (also mirrored as `cache.hits`, ...).
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t inserts = 0;
    /// CLOCK replacements of live same-epoch entries.
    uint64_t evictions = 0;
    /// Entries reclaimed because their epoch no longer matches.
    uint64_t stale_epoch_evictions = 0;
    /// Probes that matched a hash but not the full key (different SHF
    /// or k) — misses by construction, never wrong answers.
    uint64_t collisions = 0;
  };
  Stats stats() const;

  /// The canonical key hash (exposed for tests and diagnostics).
  static uint64_t CanonicalHash(const Shf& query, std::size_t k);

 private:
  struct Entry {
    bool valid = false;
    bool referenced = false;  // CLOCK second-chance bit
    uint64_t hash = 0;
    uint64_t epoch = 0;
    std::size_t k = 0;  // any k, SIZE_MAX included
    uint32_t cardinality = 0;
    uint64_t num_bits = 0;
    std::vector<uint64_t> words;
    std::vector<Neighbor> result;
  };

  struct Shard {
    mutable std::mutex mu;
    std::size_t cap = 0;                             // this shard's slots
    std::vector<Entry> slots;                        // grows to the cap
    std::unordered_map<uint64_t, std::size_t> index;  // hash -> slot
    std::size_t hand = 0;                            // CLOCK position
    std::atomic<std::size_t> live{0};
  };

  uint64_t HashOf(const Shf& query, std::size_t k) const;
  Shard& ShardOf(uint64_t hash);
  // Reclaims an entry (stale or evicted). Caller holds the shard mutex.
  static void Release(Shard& shard, Entry& entry);
  static void FillEntry(Entry& entry, uint64_t hash, const Shf& query,
                        std::size_t k, uint64_t epoch,
                        std::span<const Neighbor> result);

  std::size_t capacity_;
  std::function<uint64_t(const Shf&, std::size_t)> hash_fn_;
  std::vector<std::unique_ptr<Shard>> shards_;

  Clock* clock_ = nullptr;
  // Internal tallies (always kept) + mirrored obs instruments (null
  // without a metrics sink).
  std::atomic<uint64_t> hits_{0}, misses_{0}, inserts_{0}, evictions_{0},
      stale_{0}, collisions_{0};
  obs::Counter* obs_hits_ = nullptr;
  obs::Counter* obs_misses_ = nullptr;
  obs::Counter* obs_inserts_ = nullptr;
  obs::Counter* obs_evictions_ = nullptr;
  obs::Counter* obs_stale_ = nullptr;
  obs::Counter* obs_collisions_ = nullptr;
  obs::Gauge* obs_size_ = nullptr;
  obs::Histogram* obs_hit_latency_ = nullptr;
};

}  // namespace gf

#endif  // GF_KNN_SERVING_CACHE_H_
