// GFIX: the persistent, mmap-served fingerprint index (DESIGN.md §13).
//
// A GFSZ container (io/container.h) is a parse-and-copy format: reading
// it deserializes every byte into freshly allocated vectors. GFIX is
// the opposite trade — a sectioned, 64-byte-aligned flat layout whose
// big arrays (the row-major SHF word arena, the cardinalities) are laid
// out exactly as FingerprintStore holds them in memory, so a serving
// process maps the file read-only and borrows the sections in place
// (FingerprintStore::FromBorrowed): cold start is O(header + TOC), not
// O(users), and first-query page faults touch only the rows a query
// actually scores.
//
// File layout (all fields little-endian):
//
//   header (64 bytes)
//     0   4  magic "GFIX"
//     4   4  format version (u32, currently 1)
//     8   4  payload kind (u32, always 5 = PayloadKind::kIndex)
//     12  4  section count (u32)
//     16  8  file size in bytes (u64)
//     24  8  TOC offset (u64, always 64)
//     32  8  TOC size in bytes (u64, = section count * 32)
//     40  4  CRC-32 of the TOC bytes
//     44  16 reserved (zero)
//     60  4  CRC-32 of header bytes [0, 60)
//   TOC: section-count entries of 32 bytes
//     0   4  section id (u32, GfixSection)
//     4   4  CRC-32 of the section bytes
//     8   8  section offset (u64, 64-byte aligned)
//     16  8  section size in bytes (u64)
//     24  8  reserved (zero)
//   sections, each starting on a 64-byte boundary, zero-padded between
//   footer (16 bytes, at file size - 16)
//     0   4  magic "XIFG"
//     4   4  sections checksum: CRC-32 over the TOC's section-CRC
//            fields concatenated in TOC order
//     8   8  file size in bytes (u64, must match the header)
//
// Sections: 1 = Meta (FingerprintConfig + user count), 2 =
// Cardinalities (num_users u32), 3 = Words (num_users * words_per_shf
// u64, row-major), 4 = ShardBounds (shard begin ids). Id 5 is retired:
// earlier writers put an optional banded-LSH query index there, which
// today's readers skip. Readers ignore section ids they do not know, so
// future sections are backward-compatible; a version bump is reserved
// for layout changes existing readers would misparse, and readers
// refuse versions newer than their own.
//
// Verification: opening always checks the header CRC, the TOC CRC and
// the footer (GfixVerify::kStructure — O(sections), no data read).
// GfixVerify::kFull additionally checks every section's CRC, reading
// the whole file — the choice between instant cold start and full
// integrity is the caller's. The arenas are reinterpreted in place, so
// serving requires a little-endian host (Unimplemented otherwise, same
// gate as the SIMD kernels' on-disk twins).

#ifndef GF_IO_GFIX_H_
#define GF_IO_GFIX_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/fingerprint_store.h"
#include "core/sharded_store.h"
#include "io/env.h"
#include "obs/pipeline_context.h"

namespace gf::io {

inline constexpr uint32_t kGfixVersion = 1;

enum class GfixSection : uint32_t {
  kMeta = 1,
  kCardinalities = 2,
  kWords = 3,
  kShardBounds = 4,
  // 5 held the retired banded-LSH index. Files written before its
  // removal still carry it and open fine (readers skip it, and kFull
  // still checks its CRC); never give the id a new meaning.
  kRetiredBands = 5,
};

struct GfixWriteOptions {
  /// Shard boundaries to persist (first must be 0, non-decreasing,
  /// within the store). Empty means one shard covering every user.
  std::vector<UserId> shard_begins;
};

/// Writes `store` (and optionally shard bounds) as a GFIX index at
/// `path` through the Env's atomic write-tmp-fsync-rename path.
/// Little-endian hosts only (Unimplemented otherwise).
Status WriteGfixIndex(const FingerprintStore& store, const std::string& path,
                      const GfixWriteOptions& options = {},
                      Env* env = nullptr);

enum class GfixVerify {
  /// Header CRC + TOC CRC + footer. O(section count); no section data
  /// is read, so a mapped open stays O(1) in the file size.
  kStructure,
  /// kStructure plus every section's CRC-32 — reads the whole file.
  kFull,
};

/// A read-only FingerprintStore served straight from a mapped GFIX
/// file: the word arena and cardinalities are borrowed from the
/// mapping (zero copy), so queries through store() — or the WordsOf /
/// CardinalityOf / batched-estimator forwards below — are bit-exact
/// with an in-memory store holding the same fingerprints. Move-only;
/// the mapping lives (and stays immutable) as long as this object.
class MappedFingerprintStore {
 public:
  struct OpenOptions {
    GfixVerify verify = GfixVerify::kStructure;
  };

  /// Maps and validates `path`. NotFound/IOError pass through from the
  /// Env; every malformed or inconsistent byte pattern — wrong magic,
  /// future version, truncation, misaligned or overlapping sections,
  /// CRC mismatches, shapes that contradict section sizes — returns
  /// Corruption with a precise message, before any allocation sized
  /// from an unvalidated field.
  static Result<MappedFingerprintStore> Open(const std::string& path,
                                             const OpenOptions& options,
                                             Env* env = nullptr);
  static Result<MappedFingerprintStore> Open(const std::string& path,
                                             Env* env = nullptr);

  MappedFingerprintStore(MappedFingerprintStore&&) noexcept = default;
  MappedFingerprintStore& operator=(MappedFingerprintStore&&) noexcept =
      default;
  MappedFingerprintStore(const MappedFingerprintStore&) = delete;
  MappedFingerprintStore& operator=(const MappedFingerprintStore&) = delete;

  /// The borrowed store over the mapped arenas. Valid exactly as long
  /// as this object; hand it to ScanQueryEngine /
  /// ShardedFingerprintStore like any other store.
  const FingerprintStore& store() const { return store_; }

  std::size_t num_users() const { return store_.num_users(); }
  std::size_t num_bits() const { return store_.num_bits(); }
  const FingerprintConfig& config() const { return store_.config(); }

  // The FingerprintStore row accessors, forwarded.
  std::span<const uint64_t> WordsOf(UserId u) const {
    return store_.WordsOf(u);
  }
  uint32_t CardinalityOf(UserId u) const { return store_.CardinalityOf(u); }

  /// The persisted shard boundaries (always at least {0}).
  std::span<const UserId> shard_begins() const { return shard_begins_; }

  /// Zero-copy sharded view over the mapped arena at the persisted
  /// boundaries (ShardedFingerprintStore::ViewOf — no bytes move).
  Result<ShardedFingerprintStore> Shards(
      const obs::PipelineContext* obs = nullptr) const {
    return ShardedFingerprintStore::ViewOf(store_, shard_begins_, obs);
  }

 private:
  MappedFingerprintStore(MappedRegion region, FingerprintStore store,
                         std::vector<UserId> shard_begins)
      : region_(std::move(region)),
        store_(std::move(store)),
        shard_begins_(std::move(shard_begins)) {}

  MappedRegion region_;
  // Borrowed views into region_ — stable across moves (the mapped /
  // heap buffer address never changes).
  FingerprintStore store_;
  std::vector<UserId> shard_begins_;
};

}  // namespace gf::io

#endif  // GF_IO_GFIX_H_
