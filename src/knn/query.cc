#include "knn/query.h"

#include <mutex>
#include <string>

#include "common/bit_util.h"
#include "common/simd_popcount.h"
#include "core/similarity.h"
#include "hash/murmur3.h"
#include "io/container.h"

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

  // One partial answer per scanned partition; MergeTopK does not care
  // in which order they land.
  std::vector<ScoredLists> partials;
  std::mutex partials_mu;
  const auto scan = [&](std::size_t s, std::size_t begin, std::size_t end) {
    if (begin == end) return;
    std::vector<TopKSelector> selectors(nb, TopKSelector(k, end - begin));
    ScanRows(s, begin, end, query_words, query_cards, selectors);
    ScoredLists part(nb);
    for (std::size_t q = 0; q < nb; ++q) part[q] = selectors[q].TakeScored();
    const std::lock_guard<std::mutex> lock(partials_mu);
    partials.push_back(std::move(part));
  };
  if (store_->num_shards() == 1) {
    ParallelFor(pool_, store_->num_users(),
                [&](std::size_t begin, std::size_t end) {
                  scan(0, begin, end);
                });
  } else {
    ParallelFor(pool_, store_->num_shards(),
                [&](std::size_t begin, std::size_t end) {
                  for (std::size_t s = begin; s < end; ++s) {
                    scan(s, 0, store_->shard(s).num_users());
                  }
                });
  }
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

void ScanQueryEngine::ScanRows(std::size_t s, std::size_t begin,
                               std::size_t end,
                               std::span<const uint64_t> query_words,
                               std::span<const uint32_t> query_cards,
                               std::span<TopKSelector> selectors) const {
  // Partition timing reads the system clock, not the context clock:
  // partitions run on worker threads and an injected FakeClock is
  // single-threaded by contract.
  const uint64_t t0 =
      partition_scan_ != nullptr ? Clock::System()->NowMicros() : 0;
  const FingerprintStore& rows = store_->shard(s);
  const UserId base = store_->ShardBegin(s);
  const std::size_t nb = query_cards.size();
  const std::size_t words = rows.words_per_shf();
  const uint64_t* arena = rows.WordsArena().data();
  const uint32_t* cards = rows.Cardinalities().data();
  // Each 16-query x 256-row block is counted into a 16 KiB integer
  // scratch; a tile stays cache-hot across the whole batch.
  //
  // Prune before dividing: a row with intersection i and union u is
  // offered only when i >= floor * u, floor being the selector's k-th
  // best score (-1 until it holds k). The skip is exact. A row enters
  // only by scoring above the floor: one scoring equal to it has a
  // larger id than every survivor (the selector is fresh and sees
  // ascending ids), so it loses the tie. And fl(i/u) > floor implies
  // i/u > floor, so i > floor * u, and by monotone rounding
  // i >= fl(floor * u). Offered rows are scored by JaccardFromCounts
  // as without the prune, so answers are bit-identical.
  constexpr std::size_t kQueryGroup = 16;
  uint32_t counts[kQueryGroup * kTileRows];
  for (std::size_t first = begin; first < end; first += kTileRows) {
    const std::size_t m = std::min(kTileRows, end - first);
    for (std::size_t q0 = 0; q0 < nb; q0 += kQueryGroup) {
      const std::size_t nq = std::min(kQueryGroup, nb - q0);
      bits::AndPopCountTileMulti(query_words.data() + q0 * words, nq,
                                 arena + first * words, m, words, counts);
      for (std::size_t q = 0; q < nq; ++q) {
        TopKSelector& sel = selectors[q0 + q];
        const uint32_t card_q = query_cards[q0 + q];
        const uint32_t* inter = counts + q * m;
        double floor = sel.Floor();
        for (std::size_t i = 0; i < m; ++i) {
          const uint32_t card_r = cards[first + i];
          const uint32_t union_estimate = card_q + card_r - inter[i];
          if (static_cast<double>(inter[i]) <
              floor * static_cast<double>(union_estimate)) {
            continue;
          }
          sel.Offer(base + static_cast<UserId>(first + i),
                    JaccardFromCounts(card_q, card_r, inter[i]));
          floor = sel.Floor();
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

CandidateRescorer::CandidateRescorer(ThreadPool* pool,
                                     const obs::PipelineContext* obs,
                                     std::string_view prefix)
    : pool_(pool),
      queries_(obs::CounterOrNull(obs, std::string(prefix) + ".queries")),
      candidates_(obs::CounterOrNull(obs, "query.candidates")),
      candidate_sizes_(obs::HistogramOrNull(
          obs, std::string(prefix) + ".candidate_set_size",
          obs::kSizeBucketBoundaries)),
      latency_(obs::HistogramOrNull(obs, "query.latency",
                                    obs::kLatencyBucketBoundariesMicros)),
      clock_(obs::ClockOrNull(obs)) {}

Result<std::vector<std::vector<Neighbor>>> CandidateRescorer::QueryBatch(
    const FingerprintStore& store, std::span<const Shf> queries,
    std::size_t k, const Gather& gather) const {
  GF_RETURN_IF_ERROR(CheckQueries(store.num_bits(), queries, k));
  std::vector<std::vector<Neighbor>> results(queries.size());
  ParallelFor(pool_, queries.size(), [&](std::size_t begin, std::size_t end) {
    std::vector<UserId> candidates;
    std::vector<double> sims;
    for (std::size_t q = begin; q < end; ++q) {
      const uint64_t t0 = latency_ != nullptr ? clock_->NowMicros() : 0;
      const Shf& query = queries[q];
      candidates.clear();
      gather(query, k, &candidates);
      sims.resize(candidates.size());
      store.EstimateJaccardBatchExternal(query.words(), query.cardinality(),
                                         candidates, sims);
      TopKSelector top(k, candidates.size());
      for (std::size_t i = 0; i < candidates.size(); ++i) {
        top.Offer(candidates[i], sims[i]);
      }
      results[q] = top.Take();
      if (queries_ != nullptr) {
        queries_->Add(1);
        candidates_->Add(candidates.size());
        candidate_sizes_->Observe(static_cast<double>(candidates.size()));
      }
      if (latency_ != nullptr) {
        latency_->Observe(static_cast<double>(clock_->NowMicros() - t0));
      }
    }
  });
  return results;
}

BandedShfQueryEngine::BandedShfQueryEngine(SnapshotPtr snapshot,
                                           const Options& options,
                                           ThreadPool* pool,
                                           const obs::PipelineContext* obs)
    : snapshot_(std::move(snapshot)),
      band_bits_(options.band_bits),
      bands_(snapshot_->store().num_bits() / options.band_bits),
      seed_(options.seed),
      tables_(bands_),
      rescorer_(pool, obs, "query.banded") {}

uint64_t BandedShfQueryEngine::BandKey(std::size_t band,
                                       uint64_t chunk) const {
  return hash::Murmur3Hash64(chunk,
                             seed_ ^ (0x9E3779B97F4A7C15ULL * (band + 1)));
}

uint64_t BandedShfQueryEngine::ChunkOf(std::span<const uint64_t> words,
                                       std::size_t band) const {
  const std::size_t bit = band * band_bits_;
  const uint64_t word = words[bit >> 6];
  const uint64_t shifted = word >> (bit & 63);
  if (band_bits_ == 64) return shifted;
  return shifted & ((uint64_t{1} << band_bits_) - 1);
}

Result<BandedShfQueryEngine> BandedShfQueryEngine::Build(
    SnapshotPtr snapshot, const Options& options, ThreadPool* pool,
    const obs::PipelineContext* obs) {
  if (snapshot == nullptr) {
    return Status::InvalidArgument("snapshot must be non-null");
  }
  if (options.band_bits == 0 || 64 % options.band_bits != 0) {
    return Status::InvalidArgument(
        "band_bits must divide 64 (got " +
        std::to_string(options.band_bits) + ")");
  }
  obs::ScopedPhase phase(obs, "query.banded.build");
  BandedShfQueryEngine engine(std::move(snapshot), options, pool, obs);
  const FingerprintStore& store = engine.snapshot_->store();

  // Band chunks in parallel, table fill sequential (tables are not
  // concurrent); chunk value 0 means "empty band, unindexed" — a zero
  // chunk carries no profile evidence and would only build one giant
  // bucket of sparse users.
  const std::size_t n = store.num_users();
  const std::size_t bands = engine.bands_;
  std::vector<uint64_t> chunks(n * bands);
  ParallelFor(pool, n, [&](std::size_t begin, std::size_t end) {
    for (std::size_t u = begin; u < end; ++u) {
      const auto words = store.WordsOf(static_cast<UserId>(u));
      for (std::size_t band = 0; band < bands; ++band) {
        chunks[u * bands + band] = engine.ChunkOf(words, band);
      }
    }
  });
  for (std::size_t band = 0; band < bands; ++band) {
    auto& table = engine.tables_[band];
    for (std::size_t u = 0; u < n; ++u) {
      const uint64_t chunk = chunks[u * bands + band];
      if (chunk == 0) continue;
      table[engine.BandKey(band, chunk)].push_back(static_cast<UserId>(u));
    }
  }
  if (obs != nullptr) {
    obs->Count("query.banded.indexed_entries", engine.IndexedEntries());
  }
  return engine;
}

Result<BandedShfQueryEngine> BandedShfQueryEngine::Build(
    const FingerprintStore& store, const Options& options, ThreadPool* pool,
    const obs::PipelineContext* obs) {
  return Build(StoreSnapshot::Borrow(store), options, pool, obs);
}

void BandedShfQueryEngine::CollectBandCandidates(
    const Shf& query, std::vector<UserId>* out) const {
  const std::size_t first = out->size();
  for (std::size_t band = 0; band < bands_; ++band) {
    const uint64_t chunk = ChunkOf(query.words(), band);
    if (chunk == 0) continue;
    const auto it = tables_[band].find(BandKey(band, chunk));
    if (it == tables_[band].end()) continue;
    out->insert(out->end(), it->second.begin(), it->second.end());
  }
  std::sort(out->begin() + first, out->end());
  out->erase(std::unique(out->begin() + first, out->end()), out->end());
}

Result<std::vector<Neighbor>> BandedShfQueryEngine::Query(
    const Shf& query, std::size_t k) const {
  auto batch = QueryBatch({&query, 1}, k);
  if (!batch.ok()) return batch.status();
  return std::move(batch->front());
}

Result<std::vector<std::vector<Neighbor>>> BandedShfQueryEngine::QueryBatch(
    std::span<const Shf> queries, std::size_t k) const {
  return rescorer_.QueryBatch(
      snapshot_->store(), queries, k,
      [this](const Shf& query, std::size_t, std::vector<UserId>* out) {
        CollectBandCandidates(query, out);
      });
}

std::string BandedShfQueryEngine::SerializeIndexPayload() const {
  std::string payload;
  io::PutU64(payload, band_bits_);
  io::PutU64(payload, seed_);
  io::PutU64(payload, bands_);
  std::vector<uint64_t> keys;
  for (std::size_t band = 0; band < bands_; ++band) {
    const auto& table = tables_[band];
    keys.clear();
    keys.reserve(table.size());
    for (const auto& [key, bucket] : table) {
      (void)bucket;
      keys.push_back(key);
    }
    // Hash-map iteration order is not deterministic; sorted keys (and
    // the build's ascending-id buckets) make the bytes reproducible.
    std::sort(keys.begin(), keys.end());
    io::PutU64(payload, table.size());
    for (uint64_t key : keys) {
      const auto& bucket = table.at(key);
      io::PutU64(payload, key);
      io::PutU32(payload, static_cast<uint32_t>(bucket.size()));
      for (UserId id : bucket) io::PutU32(payload, id);
    }
  }
  return payload;
}

Result<BandedShfQueryEngine> BandedShfQueryEngine::FromSerialized(
    const FingerprintStore& store, std::string_view payload,
    ThreadPool* pool, const obs::PipelineContext* obs) {
  io::Reader reader(payload);
  uint64_t band_bits = 0, seed = 0, bands = 0;
  GF_RETURN_IF_ERROR(reader.ReadU64(&band_bits));
  GF_RETURN_IF_ERROR(reader.ReadU64(&seed));
  GF_RETURN_IF_ERROR(reader.ReadU64(&bands));
  if (band_bits == 0 || band_bits > 64 || 64 % band_bits != 0) {
    return Status::Corruption("banded index band_bits " +
                              std::to_string(band_bits) +
                              " does not divide 64");
  }
  if (bands != store.num_bits() / band_bits) {
    return Status::Corruption(
        "banded index geometry (" + std::to_string(bands) + " bands of " +
        std::to_string(band_bits) + " bits) does not match a store of " +
        std::to_string(store.num_bits()) + " bits");
  }
  Options options;
  options.band_bits = static_cast<std::size_t>(band_bits);
  options.seed = seed;
  BandedShfQueryEngine engine(StoreSnapshot::Borrow(store), options, pool,
                              obs);

  const std::size_t num_users = store.num_users();
  for (std::size_t band = 0; band < engine.bands_; ++band) {
    uint64_t buckets = 0;
    GF_RETURN_IF_ERROR(reader.ReadU64(&buckets));
    // Every bucket costs at least its 12-byte (key, size) header; every
    // member 4 bytes — so both counts are bounded by the bytes present
    // BEFORE the hash table / bucket vectors grow.
    if (buckets > reader.remaining() / 12) {
      return Status::Corruption("band " + std::to_string(band) + " claims " +
                                std::to_string(buckets) +
                                " buckets but only " +
                                std::to_string(reader.remaining()) +
                                " payload bytes remain");
    }
    auto& table = engine.tables_[band];
    table.reserve(buckets);
    for (uint64_t b = 0; b < buckets; ++b) {
      uint64_t key = 0;
      uint32_t size = 0;
      GF_RETURN_IF_ERROR(reader.ReadU64(&key));
      GF_RETURN_IF_ERROR(reader.ReadU32(&size));
      if (size > reader.remaining() / 4) {
        return Status::Corruption(
            "bucket of band " + std::to_string(band) + " claims " +
            std::to_string(size) + " members but only " +
            std::to_string(reader.remaining()) + " payload bytes remain");
      }
      auto& bucket = table[key];
      bucket.reserve(size);
      for (uint32_t i = 0; i < size; ++i) {
        uint32_t id = 0;
        GF_RETURN_IF_ERROR(reader.ReadU32(&id));
        if (id >= num_users) {
          return Status::Corruption("banded index user id " +
                                    std::to_string(id) +
                                    " out of range for " +
                                    std::to_string(num_users) + " users");
        }
        bucket.push_back(id);
      }
    }
  }
  if (reader.remaining() != 0) {
    return Status::Corruption("trailing bytes in banded index payload");
  }
  if (obs != nullptr) {
    obs->Count("query.banded.hydrated_entries", engine.IndexedEntries());
  }
  return engine;
}

std::size_t BandedShfQueryEngine::IndexedEntries() const {
  std::size_t total = 0;
  for (const auto& table : tables_) {
    for (const auto& [key, bucket] : table) {
      (void)key;
      total += bucket.size();
    }
  }
  return total;
}

}  // namespace gf
