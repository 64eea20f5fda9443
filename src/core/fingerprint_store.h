// FingerprintStore: all of a dataset's SHFs in one flat arena
// (row-major: user u's words at [u * words_per_shf, ...)), plus the
// cardinality array. This is the representation the KNN algorithms run
// on — the whole point of fingerprinting is that this array is small and
// the per-pair kernel touches only 2 * words_per_shf contiguous words.
//
// A store either OWNS its arenas (Build / FromRaw — the construction
// and deserialization paths) or BORROWS them (FromBorrowed — a zero-copy
// view over memory someone else keeps alive, e.g. a mmap-ed GFIX index,
// io/gfix.h). Both flavors expose the identical read surface; every
// kernel runs off raw pointers, so a borrowed store is bit-exact with an
// owning one over the same bytes. The word arena that Build allocates,
// and the one an owning store's copy makes, starts on a 64-byte cache
// line; FromRaw adopts its caller's vector wherever it starts.

#ifndef GF_CORE_FINGERPRINT_STORE_H_
#define GF_CORE_FINGERPRINT_STORE_H_

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "common/access_counter.h"
#include "common/aligned_allocator.h"
#include "common/bit_util.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "core/fingerprinter.h"
#include "core/shf.h"
#include "dataset/dataset.h"
#include "obs/pipeline_context.h"

namespace gf {

/// Immutable per-dataset fingerprint table.
class FingerprintStore {
 public:
  /// Fingerprints every profile of `dataset` (in parallel when `pool` is
  /// non-null). This is GoldFinger's whole preparation phase. With an
  /// observability context, records a "fingerprint.build" span plus the
  /// fingerprint.users / fingerprint.payload_bytes counters.
  static Result<FingerprintStore> Build(
      const Dataset& dataset, const FingerprintConfig& config,
      ThreadPool* pool = nullptr, const obs::PipelineContext* obs = nullptr);

  /// Reassembles a store from raw parts (the deserialization path).
  /// Validates the bit length and that `words` / `cardinalities` have
  /// the sizes implied by config and num_users, and that each stored
  /// cardinality matches its bit array. Adopts both vectors without
  /// copying them.
  static Result<FingerprintStore> FromRaw(
      const FingerprintConfig& config, std::size_t num_users,
      std::vector<uint64_t> words, std::vector<uint32_t> cardinalities);

  /// Non-owning view over externally held arenas (the mmap serving
  /// path): `words` holds num_users * WordsForBits(config.num_bits)
  /// row-major words, `cardinalities` num_users entries, and both must
  /// outlive the store (and any copy of it). Validates the config only;
  /// integrity of the bytes themselves is the container's job (a GFIX
  /// index CRC-checks every section before handing out views), so a
  /// borrowed open stays O(1) and never faults the arena's pages in.
  static Result<FingerprintStore> FromBorrowed(
      const FingerprintConfig& config, std::size_t num_users,
      const uint64_t* words, const uint32_t* cardinalities);

  /// Copies re-derive the arena pointers: copying an owning store deep-
  /// copies its arenas (the words into a cache-line-aligned arena),
  /// copying a borrowed view copies the pointers.
  FingerprintStore(const FingerprintStore& other) { *this = other; }
  FingerprintStore& operator=(const FingerprintStore& other);
  // Moves keep pointers valid: a moved std::vector's heap buffer (and
  // a borrowed arena a fortiori) does not change address.
  FingerprintStore(FingerprintStore&&) noexcept = default;
  FingerprintStore& operator=(FingerprintStore&&) noexcept = default;

  std::size_t num_users() const { return num_users_; }
  std::size_t num_bits() const { return num_bits_; }
  std::size_t words_per_shf() const { return words_per_shf_; }
  const FingerprintConfig& config() const { return config_; }
  /// True when the store borrows its arenas (FromBorrowed).
  bool borrowed() const { return borrowed_; }

  /// The whole row-major word arena (num_users * words_per_shf words).
  std::span<const uint64_t> WordsArena() const {
    return {words_data_, num_users_ * words_per_shf_};
  }

  /// All cardinalities, indexed by user.
  std::span<const uint32_t> Cardinalities() const {
    return {cards_data_, num_users_};
  }

  std::span<const uint64_t> WordsOf(UserId u) const {
    assert(static_cast<std::size_t>(u) < num_users_ &&
           "user id out of range (corrupt input?)");
    return {words_data_ + static_cast<std::size_t>(u) * words_per_shf_,
            words_per_shf_};
  }

  uint32_t CardinalityOf(UserId u) const {
    assert(static_cast<std::size_t>(u) < num_users_ &&
           "user id out of range (corrupt input?)");
    return cards_data_[u];
  }

  /// Eq. 4 estimator between two users' fingerprints.
  double EstimateJaccard(UserId a, UserId b) const {
    const uint64_t* wa = WordsOf(a).data();
    const uint64_t* wb = WordsOf(b).data();
    CountLoads(2 * words_per_shf_ + 2);  // modelled traffic (Table 5)
    const uint32_t inter = bits::AndPopCount(wa, wb, words_per_shf_);
    return JaccardFromCounts(cards_data_[a], cards_data_[b], inter);
  }

  /// Eq. 4 estimator of `u` against a batch of candidates, through the
  /// runtime-dispatched kernels of common/simd_popcount.h. Bit-exact
  /// with calling EstimateJaccard(u, candidates[i]) pair by pair (the
  /// kernels sum the same integer popcounts; only the throughput
  /// differs), and counts the same modelled traffic per pair.
  /// out[i] scores candidates[i]; out must hold candidates.size().
  void EstimateJaccardBatch(UserId u, std::span<const UserId> candidates,
                            std::span<double> out) const;

  /// The integer parts of EstimateJaccardBatch: counts[i] =
  /// popcount(u AND candidates[i]), so the estimate of that pair is
  /// JaccardFromCounts(CardinalityOf(u), CardinalityOf(candidates[i]),
  /// counts[i]). Same kernel and same modelled traffic per pair.
  /// counts must hold candidates.size().
  void CountBatch(UserId u, std::span<const UserId> candidates,
                  std::span<uint32_t> counts) const;

  /// Cosine analogue of EstimateJaccardBatch.
  void EstimateCosineBatch(UserId u, std::span<const UserId> candidates,
                           std::span<double> out) const;

  /// Cosine analogue of EstimateJaccard (same kernel, CosineFromCounts).
  double EstimateCosine(UserId a, UserId b) const {
    const uint64_t* wa = WordsOf(a).data();
    const uint64_t* wb = WordsOf(b).data();
    CountLoads(2 * words_per_shf_ + 2);
    const uint32_t inter = bits::AndPopCount(wa, wb, words_per_shf_);
    return CosineFromCounts(cards_data_[a], cards_data_[b], inter);
  }

  /// Copies user `u`'s fingerprint out as a standalone Shf.
  Shf Extract(UserId u) const;

  /// Total payload bytes (bit arrays + cardinalities) — the memory the
  /// KNN phase works over (owned or borrowed alike).
  std::size_t PayloadBytes() const {
    return num_users_ * words_per_shf_ * sizeof(uint64_t) +
           num_users_ * sizeof(uint32_t);
  }

 private:
  // Shared body of the batch entry points (defined in the .cc,
  // instantiated there for JaccardFromCounts / CosineFromCounts). The
  // query is a stored user's raw (words, cardinality) pair.
  template <typename CountsToSim>
  void ScoreBatchImpl(const uint64_t* query, uint32_t query_card,
                      std::span<const UserId> candidates,
                      std::span<double> out, CountsToSim&& to_sim) const;

  FingerprintStore(const FingerprintConfig& config, std::size_t num_users)
      : config_(config),
        num_bits_(config.num_bits),
        words_per_shf_(bits::WordsForBits(config.num_bits)),
        num_users_(num_users),
        words_(num_users * bits::WordsForBits(config.num_bits), 0),
        cardinalities_(num_users, 0),
        words_data_(words_.data()),
        cards_data_(cardinalities_.data()) {}

  FingerprintConfig config_;
  std::size_t num_bits_ = 0;
  std::size_t words_per_shf_ = 0;
  std::size_t num_users_ = 0;
  bool borrowed_ = false;
  // Owned arenas; empty in a borrowed view. The words live in words_
  // (Build, copies) or, adopted from FromRaw's caller, in
  // adopted_words_; the other one is empty.
  std::vector<uint64_t, CacheLineAllocator<uint64_t>> words_;
  std::vector<uint64_t> adopted_words_;
  std::vector<uint32_t> cardinalities_;
  // The arenas every accessor and kernel actually reads: either the
  // owned vectors' buffers or the borrowed caller memory.
  const uint64_t* words_data_ = nullptr;
  const uint32_t* cards_data_ = nullptr;
};

}  // namespace gf

#endif  // GF_CORE_FINGERPRINT_STORE_H_
