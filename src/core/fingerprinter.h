// Fingerprinter: turns profiles into SHFs (GoldFinger's preparation
// phase, whose cost Table 3 compares against native loading and MinHash
// signatures). One hash evaluation per profile item.

#ifndef GF_CORE_FINGERPRINTER_H_
#define GF_CORE_FINGERPRINTER_H_

#include <cstdint>
#include <span>

#include "common/result.h"
#include "core/shf.h"
#include "dataset/types.h"
#include "hash/hash_function.h"

namespace gf {

/// Configuration of the fingerprinting scheme. The paper's defaults:
/// 1024-bit SHFs hashed with Jenkins' function.
struct FingerprintConfig {
  std::size_t num_bits = 1024;
  hash::HashKind hash = hash::HashKind::kJenkins;
  uint64_t seed = 0;
  /// Number of hash functions per item. The paper argues exactly 1 is
  /// right for SHFs (more functions increase single-bit collisions and
  /// degrade the similarity estimate, unlike Bloom-filter membership);
  /// values > 1 exist for the ablation bench.
  std::size_t hashes_per_item = 1;
};

/// Maps items to bit positions and builds SHFs.
class Fingerprinter {
 public:
  /// Validates the configuration (bit length, hashes_per_item >= 1).
  static Result<Fingerprinter> Create(const FingerprintConfig& config);

  const FingerprintConfig& config() const { return config_; }

  /// Bit position of `item` for hash function number `k`.
  std::size_t BitFor(ItemId item, std::size_t k = 0) const {
    return hash::HashKey(config_.hash, item,
                         config_.seed + 0x1000003 * k) %
           config_.num_bits;
  }

  /// Fingerprints one profile.
  Shf Fingerprint(std::span<const ItemId> profile) const;

  /// Overwrites `row` (WordsForBits(num_bits) words) with the bit array
  /// of `profile` and returns its cardinality: the row fill of every
  /// store arena, batch-built or stitched after ingest.
  uint32_t FillRow(std::span<const ItemId> profile,
                   std::span<uint64_t> row) const;

 private:
  explicit Fingerprinter(const FingerprintConfig& config) : config_(config) {}

  FingerprintConfig config_;
};

}  // namespace gf

#endif  // GF_CORE_FINGERPRINTER_H_
