// KNN query serving for external fingerprints.
//
// The paper computes complete KNN graphs and notes (footnote 1) that
// this "is related but different from answering a sequence of KNN
// queries". Downstream users need both: once a service holds a
// fingerprint store, a fresh client can ship its own SHF and ask for
// its k nearest users without joining the graph. Every answer is the
// Eq. 4 SHF estimate over every stored row followed by a total-order
// top-k, and this header holds that computation once:
//
//  * ScanQueryEngine — the one engine, over a plain store, an epoch
//    snapshot or a sharded store. QueryBatch scores a batch of B query
//    SHFs tile by tile through the multi-query SIMD kernel (each
//    256-row tile streams through cache once per batch), prunes each
//    tile's counts against the top-k floors eight rows per vector, runs
//    one task per row chunk of the whole store whatever its shard count,
//    and joins the chunks' top-k lists with MergeTopK. Query() is the
//    sequential per-pair reference scan, with no prune, that the
//    exactness tests compare against.
//  * MergeTopK — the one merge of partial top-k lists. The scan's row
//    chunks and the distributed tier's replicas (net/coordinator.h)
//    both meet here.
//
// Serving is exact-only: no approximate index measured so far was both
// faster than this scan and at recall@10 >= 0.9 (DESIGN.md §11).
//
// Bit-exactness: the kernels sum integer popcounts, so a (query, user)
// pair's double score does not depend on which partition, shard or
// replica holds the row; and total-order selection makes the merged
// top-k independent of how the rows were cut and of the merge order.
// Hence QueryBatch is bit-identical to per-pair Query over every input
// type, partitioning and pool.
//
// Observability: the engine accepts an obs::PipelineContext and exports
// a `query.latency` histogram (microseconds), the `query.candidates`,
// `query.batches` and `query.sharded.queries` counters and the
// per-row-chunk `query.shard.scan_micros` histogram. The context must
// outlive the engine (instrument pointers are cached at construction).

#ifndef GF_KNN_QUERY_H_
#define GF_KNN_QUERY_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/thread_pool.h"
#include "core/fingerprint_store.h"
#include "core/sharded_store.h"
#include "core/store_snapshot.h"
#include "knn/graph.h"
#include "obs/pipeline_context.h"

namespace gf {

/// Bounded top-k selection under the serving engines' total order:
/// higher similarity first, ties broken toward the smaller id. The
/// selected set is the first k candidates in that order REGARDLESS of
/// offer order — which is what makes the partitioned batch scan and
/// every merge bit-exact with a sequential scan. Offer is O(1) for
/// candidates that cannot enter (the common case once the heap warms
/// up) and O(log k) otherwise; Take sorts only the k survivors —
/// nothing ever sorts all n candidates.
class TopKSelector {
 public:
  /// `max_offers` bounds how many candidates will be offered (the rows
  /// or candidates in play). The heap reserves min(k, max_offers) once:
  /// only that many can survive, so any k — SIZE_MAX included — is safe.
  TopKSelector(std::size_t k, std::size_t max_offers) : k_(k) {
    heap_.reserve(std::min(k, max_offers));
  }

  void Offer(UserId id, double similarity) {
    if (heap_.size() < k_) {
      heap_.push_back({id, similarity});
      std::push_heap(heap_.begin(), heap_.end(), Better);
      return;
    }
    // heap_ is ordered by Better, so heap_[0] is the worst survivor.
    if (k_ == 0 || !Better({id, similarity}, heap_[0])) return;
    std::pop_heap(heap_.begin(), heap_.end(), Better);
    heap_.back() = {id, similarity};
    std::push_heap(heap_.begin(), heap_.end(), Better);
  }

  /// The worst survivor's score once k entries are held, -1 (below
  /// every score) until then. A candidate scoring below it cannot
  /// enter, nor can one that ties it with a larger id than that
  /// survivor's.
  double Floor() const {
    return heap_.size() < k_ || heap_.empty() ? -1.0 : heap_[0].similarity;
  }

  /// The survivors, best first. Leaves the selector empty.
  std::vector<Neighbor> Take() {
    std::sort(heap_.begin(), heap_.end(), Better);
    std::vector<Neighbor> out;
    out.reserve(heap_.size());
    for (const Entry& e : heap_) {
      out.push_back({e.id, static_cast<float>(e.similarity)});
    }
    heap_.clear();
    return out;
  }

  /// The survivors with their full-precision double scores, best first.
  /// Leaves the selector empty. This is the form partial answers take
  /// (a scan partition's, a replica's on the wire, net/wire.h):
  /// re-offering these doubles into another selector and Take()-ing is
  /// bit-identical to having offered the underlying candidates
  /// directly, which is what keeps every merge exact.
  std::vector<ScoredNeighbor> TakeScored() {
    std::sort(heap_.begin(), heap_.end(), Better);
    std::vector<ScoredNeighbor> out;
    out.reserve(heap_.size());
    for (const Entry& e : heap_) out.push_back({e.id, e.similarity});
    heap_.clear();
    return out;
  }

 private:
  struct Entry {
    UserId id;
    double similarity;
  };
  // Strict weak order: "a ranks before b". Doubles (not the stored
  // floats) decide, so selection matches the kernels bit for bit.
  static bool Better(const Entry& a, const Entry& b) {
    if (a.similarity != b.similarity) return a.similarity > b.similarity;
    return a.id < b.id;
  }

  std::size_t k_;
  std::vector<Entry> heap_;
};

/// Per-query top-k lists of one batch with double scores: list q
/// answers query q, best first.
using ScoredLists = std::vector<std::vector<ScoredNeighbor>>;

/// The one merge of partial top-k lists. Each element of `partials`
/// holds one disjoint row set's answer to the same `num_queries`
/// queries (a scan partition, a shard, a replica); the result is the
/// top-k of their union per query. Total-order selection makes it
/// independent of how the rows were cut and of the order of
/// `partials`.
ScoredLists MergeTopK(std::span<const ScoredLists> partials,
                      std::size_t num_queries, std::size_t k);

/// Rounds scored lists to Neighbor's float — the same conversion
/// TopKSelector::Take applies.
std::vector<std::vector<Neighbor>> ToNeighbors(const ScoredLists& scored);

/// The one argument check of the scan and of the serving front ends
/// (QueryService, SnapshotQueryEngine): k >= 1, and a query of
/// `query_bits` bits against a store of `num_bits`. InvalidArgument
/// otherwise.
Status CheckQuery(std::size_t num_bits, std::size_t query_bits,
                  std::size_t k);

/// CheckQuery over a batch; k is checked for empty batches too.
Status CheckQueries(std::size_t num_bits, std::span<const Shf> queries,
                    std::size_t k);

/// The exhaustive engine: answers queries by scoring every stored
/// fingerprint. A batch runs as ParallelFor row chunks over all rows on
/// `pool`, each chunk cut at shard ends, whatever the shard count; a
/// plain store or snapshot is a one-shard view. `pool == nullptr` scans
/// sequentially. Every pool and shard count is bit-exact with per-pair
/// Query.
class ScanQueryEngine {
 public:
  /// Store rows per cache tile: 256 rows at b = 1024 is 32 KiB, so the
  /// tile stays L1/L2-hot across the batch.
  static constexpr std::size_t kTileRows = 256;

  /// Borrows `store`, which (like `pool` and `obs`, when given) must
  /// outlive the engine.
  explicit ScanQueryEngine(const FingerprintStore& store,
                           ThreadPool* pool = nullptr,
                           const obs::PipelineContext* obs = nullptr);

  /// Epoch-pinned construction (DESIGN.md §15): the engine co-owns
  /// `snapshot`, so the epoch's arena cannot be retired while any
  /// query runs, even once the publisher has moved on.
  explicit ScanQueryEngine(SnapshotPtr snapshot, ThreadPool* pool = nullptr,
                           const obs::PipelineContext* obs = nullptr);

  /// Over contiguous shards (DESIGN.md §12), split like any other store.
  /// The engine co-owns `store` — typically a ShardedFingerprintStore::
  /// ViewOf(SnapshotPtr, ...) whose shards borrow one epoch's arena — so
  /// engine, view and epoch retire together.
  explicit ScanQueryEngine(std::shared_ptr<const ShardedFingerprintStore> store,
                           ThreadPool* pool = nullptr,
                           const obs::PipelineContext* obs = nullptr);

  /// The k users most similar to `query` under the SHF Jaccard
  /// estimate: the sequential per-pair reference scan (Eq. 4 pair
  /// kernel + bounded top-k) that QueryBatch is tested against.
  Result<std::vector<Neighbor>> Query(const Shf& query, std::size_t k) const;

  /// Answers a batch in one pass over the store. result[i] answers
  /// queries[i] and is bit-exact (same ids, same similarities, same
  /// tie-breaks) with Query(queries[i], k).
  Result<std::vector<std::vector<Neighbor>>> QueryBatch(
      std::span<const Shf> queries, std::size_t k) const;

  /// The batch core, on the kernel's packed layout: query q's words at
  /// query_words[q * words, ...) with words = bits::WordsForBits(
  /// num_bits), cardinality query_cards[q] — exactly how a wire request
  /// arrives (net/wire.h), so a replica never repacks. Sizes are
  /// validated; cardinalities must not exceed the bit length (a hostile
  /// value could wrap Eq. 4's unsigned union estimate). Scores stay
  /// doubles so a cross-shard merge stays bit-exact.
  Result<ScoredLists> QueryBatchPacked(std::size_t num_bits,
                                       std::span<const uint64_t> query_words,
                                       std::span<const uint32_t> query_cards,
                                       std::size_t k) const;

 private:
  // The one tile loop: scores global rows [begin, end) against the
  // packed batch, shard by shard, offering query q's scores to
  // selectors[q]. The selectors must be fresh: the prune relies on each
  // seeing its rows in ascending id.
  void ScanRows(std::size_t begin, std::size_t end,
                std::span<const uint64_t> query_words,
                std::span<const uint32_t> query_cards,
                std::span<TopKSelector> selectors) const;

  std::shared_ptr<const ShardedFingerprintStore> store_;
  ThreadPool* pool_;
  // Cached instruments (registration locks a mutex; lookups here keep
  // the per-query path lock-free). Null without a metrics sink.
  obs::Histogram* latency_ = nullptr;
  obs::Histogram* partition_scan_ = nullptr;
  obs::Counter* candidates_ = nullptr;
  obs::Counter* batches_ = nullptr;
  obs::Counter* queries_ = nullptr;
  Clock* clock_ = nullptr;
};

}  // namespace gf

#endif  // GF_KNN_QUERY_H_
