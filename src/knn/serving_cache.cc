#include "knn/serving_cache.h"

#include <algorithm>
#include <utility>

#include "hash/murmur3.h"

namespace gf {

namespace {

void Bump(std::atomic<uint64_t>& local, obs::Counter* mirrored,
          uint64_t n = 1) {
  local.fetch_add(n, std::memory_order_relaxed);
  if (mirrored != nullptr) mirrored->Add(n);
}

}  // namespace

ServingCache::ServingCache(Options options, const obs::PipelineContext* obs)
    : capacity_(options.capacity), hash_fn_(std::move(options.hash_fn)) {
  std::size_t shards = std::max<std::size_t>(1, options.shards);
  if (capacity_ > 0) shards = std::min(shards, capacity_);
  shards_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    auto shard = std::make_unique<Shard>();
    // Per-shard caps sum exactly to the configured capacity, so
    // Size() <= capacity() is a hard invariant, not an approximation.
    shard->cap = capacity_ / shards + (s < capacity_ % shards ? 1 : 0);
    shards_.push_back(std::move(shard));
  }
  if (obs != nullptr) {
    clock_ = obs->EffectiveClock();
    obs_hits_ = obs::CounterOrNull(obs, "cache.hits");
    obs_misses_ = obs::CounterOrNull(obs, "cache.misses");
    obs_inserts_ = obs::CounterOrNull(obs, "cache.inserts");
    obs_evictions_ = obs::CounterOrNull(obs, "cache.evictions");
    obs_stale_ = obs::CounterOrNull(obs, "cache.stale_epoch_evictions");
    obs_collisions_ = obs::CounterOrNull(obs, "cache.collisions");
    if (obs->HasMetrics()) {
      obs_size_ = obs->metrics->GetGauge("cache.size");
      obs_hit_latency_ = obs->metrics->GetHistogram(
          "cache.hit_latency", obs::kLatencyBucketBoundariesMicros);
    }
  }
}

uint64_t ServingCache::CanonicalHash(const Shf& query, std::size_t k) {
  // Chain the words through Murmur3's 64-bit mixer, then fold in the
  // geometry and k. Bit-identical fingerprints of the same length and
  // cardinality asking for the same k — and only those — share a hash
  // by construction (modulo 64-bit collisions, which full-SHF equality
  // at lookup turns into misses).
  uint64_t h = hash::Murmur3Hash64(query.num_bits(), 0x5E54F1A6C0FFEE01ULL);
  for (const uint64_t word : query.words()) {
    h = hash::Murmur3Hash64(word, h);
  }
  h = hash::Murmur3Hash64(query.cardinality(), h);
  return hash::Murmur3Hash64(static_cast<uint64_t>(k), h);
}

uint64_t ServingCache::HashOf(const Shf& query, std::size_t k) const {
  return hash_fn_ ? hash_fn_(query, k) : CanonicalHash(query, k);
}

ServingCache::Shard& ServingCache::ShardOf(uint64_t hash) {
  // The low bits route within a shard's hash map; the high bits pick
  // the shard so the two decisions stay independent.
  return *shards_[(hash >> 48) % shards_.size()];
}

void ServingCache::Release(Shard& shard, Entry& entry) {
  shard.index.erase(entry.hash);
  entry.valid = false;
  entry.referenced = false;
  entry.words.clear();
  entry.result.clear();
  shard.live.fetch_sub(1, std::memory_order_relaxed);
}

void ServingCache::FillEntry(Entry& entry, uint64_t hash, const Shf& query,
                             std::size_t k, uint64_t epoch,
                             std::span<const Neighbor> result) {
  entry.valid = true;
  // New entries start unreferenced: only a HIT earns the second chance,
  // so a one-shot scan's fills cycle out on the next lap while the
  // Zipf head (which keeps re-earning its bit) survives.
  entry.referenced = false;
  entry.hash = hash;
  entry.epoch = epoch;
  entry.k = k;
  entry.cardinality = query.cardinality();
  entry.num_bits = query.num_bits();
  entry.words.assign(query.words().begin(), query.words().end());
  entry.result.assign(result.begin(), result.end());
}

bool ServingCache::Lookup(const Shf& query, std::size_t k, uint64_t epoch,
                          std::vector<Neighbor>* out, bool count_miss) {
  if (capacity_ == 0) {
    if (count_miss) Bump(misses_, obs_misses_);
    return false;
  }
  const uint64_t t0 =
      obs_hit_latency_ != nullptr ? clock_->NowMicros() : 0;
  const uint64_t hash = HashOf(query, k);
  Shard& shard = ShardOf(hash);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto it = shard.index.find(hash);
    if (it != shard.index.end()) {
      Entry& entry = shard.slots[it->second];
      if (entry.epoch != epoch) {
        // Publication already invalidated this entry; reclaim the slot
        // now so the refreshed result can land without an eviction.
        Release(shard, entry);
        Bump(stale_, obs_stale_);
      } else if (entry.k != k || entry.num_bits != query.num_bits() ||
                 entry.cardinality != query.cardinality() ||
                 !std::equal(entry.words.begin(), entry.words.end(),
                             query.words().begin(), query.words().end())) {
        // Hash collision: route matched, key did not. Miss — never
        // another query's answer.
        Bump(collisions_, obs_collisions_);
      } else {
        entry.referenced = true;
        *out = entry.result;
        Bump(hits_, obs_hits_);
        if (obs_hit_latency_ != nullptr) {
          obs_hit_latency_->Observe(
              static_cast<double>(clock_->NowMicros() - t0));
        }
        return true;
      }
    }
  }
  if (count_miss) Bump(misses_, obs_misses_);
  return false;
}

Result<std::vector<std::vector<Neighbor>>> ServingCache::Serve(
    std::span<const Shf> queries, std::size_t k, uint64_t epoch,
    const MissFn& compute) {
  std::vector<std::vector<Neighbor>> results(queries.size());
  std::vector<std::size_t> miss_at;
  std::vector<Shf> misses;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (!Lookup(queries[i], k, epoch, &results[i])) {
      miss_at.push_back(i);
      misses.push_back(queries[i]);
    }
  }
  if (misses.empty()) return results;
  auto computed = compute(misses);
  if (!computed.ok()) return computed.status();
  // Misses fill the cache on batch completion: every entry is the
  // engine's own answer at this epoch, so a later hit replays it bit
  // for bit.
  for (std::size_t j = 0; j < miss_at.size(); ++j) {
    results[miss_at[j]] = std::move((*computed)[j]);
    Insert(misses[j], k, epoch, results[miss_at[j]]);
  }
  return results;
}

void ServingCache::Insert(const Shf& query, std::size_t k, uint64_t epoch,
                          std::span<const Neighbor> result) {
  if (capacity_ == 0) return;
  const uint64_t hash = HashOf(query, k);
  Shard& shard = ShardOf(hash);
  std::lock_guard<std::mutex> lock(shard.mu);

  // Same hash already present: refresh in place (a collision overwrite
  // replaces the colliding entry — still never a wrong answer, the new
  // key is fully stored).
  if (const auto it = shard.index.find(hash); it != shard.index.end()) {
    FillEntry(shard.slots[it->second], hash, query, k, epoch, result);
    Bump(inserts_, obs_inserts_);
    return;
  }

  std::size_t slot;
  if (shard.slots.size() < shard.cap) {
    slot = shard.slots.size();
    shard.slots.emplace_back();
  } else {
    // CLOCK sweep: stale and invalid slots are taken immediately;
    // referenced live entries get a second chance. Bounded at two laps
    // — after one full lap every reference bit is clear.
    slot = shard.hand;
    for (std::size_t step = 0; step < 2 * shard.slots.size(); ++step) {
      Entry& entry = shard.slots[shard.hand];
      const std::size_t at = shard.hand;
      shard.hand = (shard.hand + 1) % shard.slots.size();
      if (!entry.valid) {
        slot = at;
        break;
      }
      if (entry.epoch != epoch) {
        Release(shard, entry);
        Bump(stale_, obs_stale_);
        slot = at;
        break;
      }
      if (entry.referenced) {
        entry.referenced = false;
        continue;
      }
      Release(shard, entry);
      Bump(evictions_, obs_evictions_);
      slot = at;
      break;
    }
    if (shard.slots[slot].valid) {
      // Unreachable in practice (two laps always free a slot); kept as
      // a hard stop against an infinite-capacity drift.
      Release(shard, shard.slots[slot]);
      Bump(evictions_, obs_evictions_);
    }
  }
  FillEntry(shard.slots[slot], hash, query, k, epoch, result);
  shard.index[hash] = slot;
  shard.live.fetch_add(1, std::memory_order_relaxed);
  Bump(inserts_, obs_inserts_);
  if (obs_size_ != nullptr) obs_size_->Set(static_cast<double>(Size()));
}

void ServingCache::Clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->slots.clear();
    shard->index.clear();
    shard->hand = 0;
    shard->live.store(0, std::memory_order_relaxed);
  }
  if (obs_size_ != nullptr) obs_size_->Set(0.0);
}

std::size_t ServingCache::Size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->live.load(std::memory_order_relaxed);
  }
  return total;
}

ServingCache::Stats ServingCache::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.inserts = inserts_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.stale_epoch_evictions = stale_.load(std::memory_order_relaxed);
  s.collisions = collisions_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace gf
