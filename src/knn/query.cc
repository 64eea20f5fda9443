#include "knn/query.h"

#include <mutex>
#include <string>

#include "common/bit_util.h"
#include "common/simd_popcount.h"
#include "core/similarity.h"

namespace gf {

namespace {

// A plain store or snapshot as a one-shard view: zero-copy, and the
// view co-owns the snapshot.
std::shared_ptr<const ShardedFingerprintStore> WholeStore(
    SnapshotPtr snapshot) {
  const UserId begin = 0;
  return std::make_shared<const ShardedFingerprintStore>(
      ShardedFingerprintStore::ViewOf(std::move(snapshot), {&begin, 1})
          .value());
}

}  // namespace

Status CheckQuery(std::size_t num_bits, std::size_t query_bits,
                  std::size_t k) {
  if (k == 0) return Status::InvalidArgument("k must be >= 1");
  if (query_bits != num_bits) {
    return Status::InvalidArgument(
        "query fingerprint has " + std::to_string(query_bits) +
        " bits, store uses " + std::to_string(num_bits));
  }
  return Status::OK();
}

Status CheckQueries(std::size_t num_bits, std::span<const Shf> queries,
                    std::size_t k) {
  GF_RETURN_IF_ERROR(CheckQuery(num_bits, num_bits, k));  // empty batches too
  for (const Shf& query : queries) {
    GF_RETURN_IF_ERROR(CheckQuery(num_bits, query.num_bits(), k));
  }
  return Status::OK();
}

ScoredLists MergeTopK(std::span<const ScoredLists> partials,
                      std::size_t num_queries, std::size_t k) {
  ScoredLists merged(num_queries);
  for (std::size_t q = 0; q < num_queries; ++q) {
    std::size_t offers = 0;
    for (const ScoredLists& part : partials) offers += part[q].size();
    TopKSelector top(k, offers);
    for (const ScoredLists& part : partials) {
      for (const ScoredNeighbor& n : part[q]) top.Offer(n.id, n.similarity);
    }
    merged[q] = top.TakeScored();
  }
  return merged;
}

std::vector<std::vector<Neighbor>> ToNeighbors(const ScoredLists& scored) {
  std::vector<std::vector<Neighbor>> out(scored.size());
  for (std::size_t q = 0; q < scored.size(); ++q) {
    out[q].reserve(scored[q].size());
    for (const ScoredNeighbor& n : scored[q]) {
      out[q].push_back({n.id, static_cast<float>(n.similarity)});
    }
  }
  return out;
}

ScanQueryEngine::ScanQueryEngine(const FingerprintStore& store,
                                 ThreadPool* pool,
                                 const obs::PipelineContext* obs)
    : ScanQueryEngine(StoreSnapshot::Borrow(store), pool, obs) {}

ScanQueryEngine::ScanQueryEngine(SnapshotPtr snapshot, ThreadPool* pool,
                                 const obs::PipelineContext* obs)
    : ScanQueryEngine(WholeStore(std::move(snapshot)), pool, obs) {}

ScanQueryEngine::ScanQueryEngine(
    std::shared_ptr<const ShardedFingerprintStore> store, ThreadPool* pool,
    const obs::PipelineContext* obs)
    : store_(std::move(store)),
      pool_(pool),
      latency_(obs::HistogramOrNull(obs, "query.latency",
                                    obs::kLatencyBucketBoundariesMicros)),
      partition_scan_(
          obs::HistogramOrNull(obs, "query.shard.scan_micros",
                               obs::kLatencyBucketBoundariesMicros)),
      candidates_(obs::CounterOrNull(obs, "query.candidates")),
      batches_(obs::CounterOrNull(obs, "query.batches")),
      queries_(obs::CounterOrNull(obs, "query.sharded.queries")),
      clock_(obs::ClockOrNull(obs)) {}

Result<std::vector<Neighbor>> ScanQueryEngine::Query(const Shf& query,
                                                     std::size_t k) const {
  GF_RETURN_IF_ERROR(CheckQueries(store_->num_bits(), {&query, 1}, k));
  const uint64_t t0 = latency_ != nullptr ? clock_->NowMicros() : 0;
  TopKSelector top(k, store_->num_users());
  for (std::size_t s = 0; s < store_->num_shards(); ++s) {
    const FingerprintStore& shard = store_->shard(s);
    const UserId base = store_->ShardBegin(s);
    for (UserId r = 0; r < shard.num_users(); ++r) {
      const uint32_t inter = bits::AndPopCount(
          query.words().data(), shard.WordsOf(r).data(), shard.words_per_shf());
      top.Offer(base + r, JaccardFromCounts(query.cardinality(),
                                            shard.CardinalityOf(r), inter));
    }
  }
  auto result = top.Take();
  if (queries_ != nullptr) {
    queries_->Add(1);
    candidates_->Add(store_->num_users());
  }
  if (latency_ != nullptr) {
    latency_->Observe(static_cast<double>(clock_->NowMicros() - t0));
  }
  return result;
}

Result<std::vector<std::vector<Neighbor>>> ScanQueryEngine::QueryBatch(
    std::span<const Shf> queries, std::size_t k) const {
  GF_RETURN_IF_ERROR(CheckQueries(store_->num_bits(), queries, k));
  // Pack the batch contiguously — the multi-query kernel's layout.
  const std::size_t words = bits::WordsForBits(store_->num_bits());
  std::vector<uint64_t> query_words(queries.size() * words);
  std::vector<uint32_t> query_cards(queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const auto w = queries[q].words();
    std::copy(w.begin(), w.end(), query_words.begin() + q * words);
    query_cards[q] = queries[q].cardinality();
  }
  ScoredLists scored;
  GF_ASSIGN_OR_RETURN(scored, QueryBatchPacked(store_->num_bits(), query_words,
                                               query_cards, k));
  return ToNeighbors(scored);
}

Result<ScoredLists> ScanQueryEngine::QueryBatchPacked(
    std::size_t num_bits, std::span<const uint64_t> query_words,
    std::span<const uint32_t> query_cards, std::size_t k) const {
  GF_RETURN_IF_ERROR(CheckQuery(store_->num_bits(), num_bits, k));
  const std::size_t nb = query_cards.size();
  const std::size_t words = bits::WordsForBits(num_bits);
  if (query_words.size() != nb * words) {
    return Status::InvalidArgument(
        "packed batch holds " + std::to_string(query_words.size()) +
        " words for " + std::to_string(nb) + " queries of " +
        std::to_string(words) + " words each");
  }
  for (const uint32_t card : query_cards) {
    // A cardinality above the bit length cannot come from a real SHF
    // and would wrap Eq. 4's unsigned union estimate.
    if (card > num_bits) {
      return Status::InvalidArgument(
          "packed query cardinality " + std::to_string(card) +
          " exceeds the store's " + std::to_string(num_bits) + " bits");
    }
  }
  if (nb == 0) return ScoredLists{};
  const uint64_t t0 = latency_ != nullptr ? clock_->NowMicros() : 0;

  // Row chunks over the whole store, whatever its shard count: one
  // partial answer per chunk, which ScanRows cuts at shard ends.
  // MergeTopK does not care how the rows were cut or in which order the
  // partials land.
  std::vector<ScoredLists> partials;
  std::mutex partials_mu;
  ParallelFor(pool_, store_->num_users(),
              [&](std::size_t begin, std::size_t end) {
                std::vector<TopKSelector> selectors(
                    nb, TopKSelector(k, end - begin));
                ScanRows(begin, end, query_words, query_cards, selectors);
                ScoredLists part(nb);
                for (std::size_t q = 0; q < nb; ++q) {
                  part[q] = selectors[q].TakeScored();
                }
                const std::lock_guard<std::mutex> lock(partials_mu);
                partials.push_back(std::move(part));
              });
  ScoredLists results = MergeTopK(partials, nb, k);

  if (batches_ != nullptr) {
    batches_->Add(1);
    queries_->Add(nb);
    candidates_->Add(nb * store_->num_users());
  }
  if (latency_ != nullptr) {
    // Every query in the batch experienced the batch's wall time.
    const auto elapsed = static_cast<double>(clock_->NowMicros() - t0);
    for (std::size_t q = 0; q < nb; ++q) latency_->Observe(elapsed);
  }
  return results;
}

void ScanQueryEngine::ScanRows(std::size_t begin, std::size_t end,
                               std::span<const uint64_t> query_words,
                               std::span<const uint32_t> query_cards,
                               std::span<TopKSelector> selectors) const {
  // Partition timing reads the system clock, not the context clock:
  // partitions run on worker threads and an injected FakeClock is
  // single-threaded by contract.
  const uint64_t t0 =
      partition_scan_ != nullptr ? Clock::System()->NowMicros() : 0;
  const std::size_t nb = query_cards.size();
  const std::size_t words = bits::WordsForBits(store_->num_bits());
  // Each 16-query x 256-row block is counted into a 16 KiB integer
  // scratch; a tile stays cache-hot across the whole batch.
  //
  // Prune before dividing: a row with intersection i and union u is
  // offered only when i >= floor * u, floor being the selector's k-th
  // best score (-1 until it holds k). The skip is exact. A row enters
  // only by scoring above the floor: one scoring equal to it has a
  // larger id than every survivor (the selector sees ascending ids), so
  // it loses the tie. And fl(i/u) > floor implies i/u > floor, so
  // i > floor * u, and by monotone rounding i >= fl(floor * u). Offered
  // rows are scored by JaccardFromCounts as without the prune, so
  // answers are bit-identical.
  //
  // RowsPassingFloor tests a whole tile against the floor as it stood
  // at the tile's start, and only its survivors take the test against
  // the current floor. That is exact too: a selector's floor never
  // falls, so a row the current floor admits passed the older one.
  constexpr std::size_t kQueryGroup = 16;
  uint32_t counts[kQueryGroup * kTileRows];
  uint32_t passing[kTileRows];
  for (std::size_t s = 0; s < store_->num_shards(); ++s) {
    // The chunk's part of shard s, in the shard's local rows.
    const FingerprintStore& rows = store_->shard(s);
    const std::size_t base = store_->ShardBegin(s);
    const std::size_t lo = std::max(begin, base);
    const std::size_t hi = std::min(end, base + rows.num_users());
    if (lo >= hi) continue;
    const uint64_t* arena = rows.WordsArena().data();
    const uint32_t* cards = rows.Cardinalities().data();
    for (std::size_t first = lo - base; first < hi - base;
         first += kTileRows) {
      const std::size_t m = std::min(kTileRows, hi - base - first);
      for (std::size_t q0 = 0; q0 < nb; q0 += kQueryGroup) {
        const std::size_t nq = std::min(kQueryGroup, nb - q0);
        bits::AndPopCountTileMulti(query_words.data() + q0 * words, nq,
                                   arena + first * words, m, words, counts);
        for (std::size_t q = 0; q < nq; ++q) {
          TopKSelector& sel = selectors[q0 + q];
          const uint32_t card_q = query_cards[q0 + q];
          const uint32_t* inter = counts + q * m;
          double floor = sel.Floor();
          const std::size_t n_passing = bits::RowsPassingFloor(
              inter, cards + first, m, card_q, floor, passing);
          for (std::size_t j = 0; j < n_passing; ++j) {
            const std::size_t i = passing[j];
            const uint32_t card_r = cards[first + i];
            if (!bits::PassesFloor(inter[i], card_r, card_q, floor)) continue;
            sel.Offer(static_cast<UserId>(base + first + i),
                      JaccardFromCounts(card_q, card_r, inter[i]));
            floor = sel.Floor();
          }
        }
      }
    }
  }
  CountLoads(nb * (end - begin) * (2 * words + 2));  // modelled traffic
  if (partition_scan_ != nullptr) {
    partition_scan_->Observe(
        static_cast<double>(Clock::System()->NowMicros() - t0));
  }
}

}  // namespace gf
