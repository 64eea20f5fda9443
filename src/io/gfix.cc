#include "io/gfix.h"

#include <bit>
#include <cstring>
#include <limits>
#include <optional>
#include <string_view>

#include "common/bit_util.h"
#include "io/container.h"
#include "io/crc32.h"

namespace gf::io {

namespace {

constexpr std::size_t kHeaderBytes = 64;
constexpr std::size_t kTocEntryBytes = 32;
constexpr std::size_t kFooterBytes = 16;
constexpr char kMagic[4] = {'G', 'F', 'I', 'X'};
constexpr char kFooterMagic[4] = {'X', 'I', 'F', 'G'};

Env* OrDefault(Env* env) { return env != nullptr ? env : Env::Default(); }

std::size_t AlignUp64(std::size_t x) { return (x + 63) & ~std::size_t{63}; }

// The arenas are memcpy'd on write and reinterpreted on read, so the
// bytes are only portable between little-endian hosts — the same gate
// the wire primitives avoid, accepted here because zero-copy is the
// format's whole point.
Status CheckLittleEndian(const char* verb) {
  if constexpr (std::endian::native != std::endian::little) {
    return Status::Unimplemented(std::string(verb) +
                                 " a GFIX index requires a little-endian "
                                 "host");
  }
  return Status::OK();
}

Status CheckShardBegins(std::span<const UserId> begins,
                        std::size_t num_users) {
  if (begins.empty()) {
    return Status::InvalidArgument("need >= 1 shard begin");
  }
  if (begins.front() != 0) {
    return Status::InvalidArgument("first shard must begin at user 0");
  }
  for (std::size_t s = 1; s < begins.size(); ++s) {
    if (begins[s] < begins[s - 1]) {
      return Status::InvalidArgument("shard begins must be non-decreasing");
    }
  }
  if (begins.back() > num_users) {
    return Status::InvalidArgument(
        "shard begin " + std::to_string(begins.back()) +
        " past the last user (" + std::to_string(num_users) + ")");
  }
  return Status::OK();
}

struct SectionBlob {
  GfixSection id;
  std::string bytes;
};

}  // namespace

// ---- writer ------------------------------------------------------------

Status WriteGfixIndex(const FingerprintStore& store, const std::string& path,
                      const GfixWriteOptions& options, Env* env) {
  GF_RETURN_IF_ERROR(CheckLittleEndian("writing"));
  std::vector<UserId> begins = options.shard_begins;
  if (begins.empty()) begins.push_back(0);
  GF_RETURN_IF_ERROR(CheckShardBegins(begins, store.num_users()));

  std::vector<SectionBlob> sections;
  {
    std::string meta;
    const FingerprintConfig& config = store.config();
    PutU64(meta, config.num_bits);
    PutU32(meta, static_cast<uint32_t>(config.hash));
    PutU64(meta, config.seed);
    PutU64(meta, config.hashes_per_item);
    PutU64(meta, store.num_users());
    sections.push_back({GfixSection::kMeta, std::move(meta)});
  }
  {
    const auto cards = store.Cardinalities();
    std::string bytes(cards.size_bytes(), '\0');
    if (!cards.empty()) {
      std::memcpy(bytes.data(), cards.data(), cards.size_bytes());
    }
    sections.push_back({GfixSection::kCardinalities, std::move(bytes)});
  }
  {
    const auto words = store.WordsArena();
    std::string bytes(words.size_bytes(), '\0');
    if (!words.empty()) {
      std::memcpy(bytes.data(), words.data(), words.size_bytes());
    }
    sections.push_back({GfixSection::kWords, std::move(bytes)});
  }
  {
    std::string bounds;
    PutU64(bounds, begins.size());
    for (UserId begin : begins) PutU32(bounds, begin);
    sections.push_back({GfixSection::kShardBounds, std::move(bounds)});
  }

  // Layout: header, TOC, then each section on a 64-byte boundary,
  // footer straight after the last section.
  const std::size_t toc_bytes = sections.size() * kTocEntryBytes;
  std::vector<std::size_t> offsets(sections.size());
  std::size_t cursor = AlignUp64(kHeaderBytes + toc_bytes);
  for (std::size_t s = 0; s < sections.size(); ++s) {
    offsets[s] = cursor;
    cursor = AlignUp64(cursor + sections[s].bytes.size());
  }
  const std::size_t file_bytes = cursor + kFooterBytes;

  std::string toc;
  std::string section_crcs;
  for (std::size_t s = 0; s < sections.size(); ++s) {
    const uint32_t crc =
        Crc32(sections[s].bytes.data(), sections[s].bytes.size());
    PutU32(toc, static_cast<uint32_t>(sections[s].id));
    PutU32(toc, crc);
    PutU64(toc, offsets[s]);
    PutU64(toc, sections[s].bytes.size());
    PutU64(toc, 0);  // reserved
    PutU32(section_crcs, crc);
  }

  std::string header;
  header.append(kMagic, sizeof(kMagic));
  PutU32(header, kGfixVersion);
  PutU32(header, static_cast<uint32_t>(PayloadKind::kIndex));
  PutU32(header, static_cast<uint32_t>(sections.size()));
  PutU64(header, file_bytes);
  PutU64(header, kHeaderBytes);  // TOC offset
  PutU64(header, toc_bytes);
  PutU32(header, Crc32(toc.data(), toc.size()));
  header.append(16, '\0');  // reserved
  PutU32(header, Crc32(header.data(), header.size()));

  std::string footer;
  footer.append(kFooterMagic, sizeof(kFooterMagic));
  PutU32(footer, Crc32(section_crcs.data(), section_crcs.size()));
  PutU64(footer, file_bytes);

  std::string file(file_bytes, '\0');
  std::memcpy(file.data(), header.data(), header.size());
  std::memcpy(file.data() + kHeaderBytes, toc.data(), toc.size());
  for (std::size_t s = 0; s < sections.size(); ++s) {
    if (sections[s].bytes.empty()) continue;
    std::memcpy(file.data() + offsets[s], sections[s].bytes.data(),
                sections[s].bytes.size());
  }
  std::memcpy(file.data() + file_bytes - kFooterBytes, footer.data(),
              footer.size());
  return OrDefault(env)->WriteFileAtomic(path, file);
}

// ---- reader ------------------------------------------------------------

namespace {

struct TocEntry {
  uint32_t id = 0;
  uint32_t crc = 0;
  uint64_t offset = 0;
  uint64_t bytes = 0;
};

}  // namespace

Result<MappedFingerprintStore> MappedFingerprintStore::Open(
    const std::string& path, Env* env) {
  return Open(path, OpenOptions{}, env);
}

Result<MappedFingerprintStore> MappedFingerprintStore::Open(
    const std::string& path, const OpenOptions& options, Env* env) {
  GF_RETURN_IF_ERROR(CheckLittleEndian("serving"));
  MappedRegion region;
  GF_ASSIGN_OR_RETURN(region, OrDefault(env)->MapReadOnly(path));
  const char* base = region.data();
  const std::size_t size = region.size();
  if (size < kHeaderBytes + kFooterBytes) {
    return Status::Corruption("GFIX file of " + std::to_string(size) +
                              " bytes is smaller than header + footer");
  }
  if (std::memcmp(base, kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("bad GFIX magic");
  }
  {
    Reader crc_reader(
        std::string_view(base + kHeaderBytes - 4, 4));
    uint32_t stored = 0;
    GF_RETURN_IF_ERROR(crc_reader.ReadU32(&stored));
    const uint32_t computed = Crc32(base, kHeaderBytes - 4);
    if (stored != computed) {
      return Status::Corruption("GFIX header CRC mismatch");
    }
  }
  Reader header(std::string_view(base + 4, kHeaderBytes - 4));
  uint32_t version = 0, kind = 0, section_count = 0, toc_crc = 0;
  uint64_t file_bytes = 0, toc_offset = 0, toc_bytes = 0;
  GF_RETURN_IF_ERROR(header.ReadU32(&version));
  GF_RETURN_IF_ERROR(header.ReadU32(&kind));
  GF_RETURN_IF_ERROR(header.ReadU32(&section_count));
  GF_RETURN_IF_ERROR(header.ReadU64(&file_bytes));
  GF_RETURN_IF_ERROR(header.ReadU64(&toc_offset));
  GF_RETURN_IF_ERROR(header.ReadU64(&toc_bytes));
  GF_RETURN_IF_ERROR(header.ReadU32(&toc_crc));
  if (version == 0 || version > kGfixVersion) {
    return Status::Corruption("unsupported GFIX version " +
                              std::to_string(version) + " (reader speaks <= " +
                              std::to_string(kGfixVersion) + ")");
  }
  if (kind != static_cast<uint32_t>(PayloadKind::kIndex)) {
    return Status::Corruption("GFIX payload kind " + std::to_string(kind) +
                              " is not an index");
  }
  if (file_bytes != size) {
    return Status::Corruption("GFIX header claims " +
                              std::to_string(file_bytes) + " bytes, file has " +
                              std::to_string(size) + " (truncated?)");
  }
  if (toc_offset != kHeaderBytes ||
      toc_bytes !=
          static_cast<uint64_t>(section_count) * kTocEntryBytes ||
      toc_bytes > size - kHeaderBytes - kFooterBytes) {
    return Status::Corruption("GFIX TOC shape inconsistent with the file");
  }
  const std::string_view toc(base + toc_offset, toc_bytes);
  if (Crc32(toc.data(), toc.size()) != toc_crc) {
    return Status::Corruption("GFIX TOC CRC mismatch");
  }

  // Footer: magic, checksum over the TOC's section CRCs, echoed size.
  {
    const char* footer = base + size - kFooterBytes;
    if (std::memcmp(footer, kFooterMagic, sizeof(kFooterMagic)) != 0) {
      return Status::Corruption("bad GFIX footer magic");
    }
    Reader reader(std::string_view(footer + 4, kFooterBytes - 4));
    uint32_t sections_crc = 0;
    uint64_t footer_file_bytes = 0;
    GF_RETURN_IF_ERROR(reader.ReadU32(&sections_crc));
    GF_RETURN_IF_ERROR(reader.ReadU64(&footer_file_bytes));
    if (footer_file_bytes != size) {
      return Status::Corruption("GFIX footer claims " +
                                std::to_string(footer_file_bytes) +
                                " bytes, file has " + std::to_string(size));
    }
    std::string section_crcs;
    Reader toc_reader(toc);
    for (uint32_t s = 0; s < section_count; ++s) {
      uint32_t id = 0, crc = 0;
      uint64_t offset = 0, bytes = 0, reserved = 0;
      GF_RETURN_IF_ERROR(toc_reader.ReadU32(&id));
      GF_RETURN_IF_ERROR(toc_reader.ReadU32(&crc));
      GF_RETURN_IF_ERROR(toc_reader.ReadU64(&offset));
      GF_RETURN_IF_ERROR(toc_reader.ReadU64(&bytes));
      GF_RETURN_IF_ERROR(toc_reader.ReadU64(&reserved));
      PutU32(section_crcs, crc);
    }
    if (Crc32(section_crcs.data(), section_crcs.size()) != sections_crc) {
      return Status::Corruption("GFIX footer section-checksum mismatch");
    }
  }

  // TOC entries: bounds, alignment, duplicates. Unknown section ids are
  // ignored (forward compatibility) but still covered by the footer.
  std::optional<TocEntry> meta_entry, cards_entry, words_entry, bounds_entry;
  {
    Reader toc_reader(toc);
    for (uint32_t s = 0; s < section_count; ++s) {
      TocEntry entry;
      uint64_t reserved = 0;
      GF_RETURN_IF_ERROR(toc_reader.ReadU32(&entry.id));
      GF_RETURN_IF_ERROR(toc_reader.ReadU32(&entry.crc));
      GF_RETURN_IF_ERROR(toc_reader.ReadU64(&entry.offset));
      GF_RETURN_IF_ERROR(toc_reader.ReadU64(&entry.bytes));
      GF_RETURN_IF_ERROR(toc_reader.ReadU64(&reserved));
      const uint64_t data_end = size - kFooterBytes;
      if (entry.offset % 64 != 0 ||
          entry.offset < kHeaderBytes + toc_bytes ||
          entry.bytes > data_end || entry.offset > data_end - entry.bytes) {
        return Status::Corruption(
            "GFIX section " + std::to_string(entry.id) + " spans [" +
            std::to_string(entry.offset) + ", +" +
            std::to_string(entry.bytes) + ") outside the file's data area");
      }
      if (options.verify == GfixVerify::kFull &&
          Crc32(base + entry.offset, entry.bytes) != entry.crc) {
        return Status::Corruption("GFIX section " + std::to_string(entry.id) +
                                  " CRC mismatch");
      }
      std::optional<TocEntry>* slot = nullptr;
      switch (static_cast<GfixSection>(entry.id)) {
        case GfixSection::kMeta: slot = &meta_entry; break;
        case GfixSection::kCardinalities: slot = &cards_entry; break;
        case GfixSection::kWords: slot = &words_entry; break;
        case GfixSection::kShardBounds: slot = &bounds_entry; break;
        default: continue;  // retired or future section: skip
      }
      if (slot->has_value()) {
        return Status::Corruption("duplicate GFIX section " +
                                  std::to_string(entry.id));
      }
      *slot = entry;
    }
  }
  if (!meta_entry || !cards_entry || !words_entry || !bounds_entry) {
    return Status::Corruption(
        "GFIX index is missing a required section (need Meta, "
        "Cardinalities, Words, ShardBounds)");
  }

  // Meta: the store shape. Everything below is cross-checked against
  // the section sizes the TOC promised before any view is handed out.
  FingerprintConfig config;
  uint64_t num_users = 0;
  {
    Reader reader(std::string_view(base + meta_entry->offset,
                                   meta_entry->bytes));
    uint64_t num_bits = 0, seed = 0, hashes = 0;
    uint32_t hash_kind = 0;
    GF_RETURN_IF_ERROR(reader.ReadU64(&num_bits));
    GF_RETURN_IF_ERROR(reader.ReadU32(&hash_kind));
    GF_RETURN_IF_ERROR(reader.ReadU64(&seed));
    GF_RETURN_IF_ERROR(reader.ReadU64(&hashes));
    GF_RETURN_IF_ERROR(reader.ReadU64(&num_users));
    if (reader.remaining() != 0) {
      return Status::Corruption("trailing bytes in GFIX Meta section");
    }
    if (hash_kind > static_cast<uint32_t>(hash::HashKind::kXxHash)) {
      return Status::Corruption("unknown hash kind " +
                                std::to_string(hash_kind));
    }
    config.num_bits = num_bits;
    config.hash = static_cast<hash::HashKind>(hash_kind);
    config.seed = seed;
    config.hashes_per_item = hashes;
  }
  if (!bits::IsValidBitLength(config.num_bits)) {
    return Status::Corruption("invalid fingerprint bit length " +
                              std::to_string(config.num_bits) +
                              " (need a positive multiple of 64)");
  }
  if (num_users > std::numeric_limits<uint32_t>::max()) {
    return Status::Corruption("user count " + std::to_string(num_users) +
                              " exceeds the 32-bit UserId space");
  }
  const std::size_t words_per = bits::WordsForBits(config.num_bits);
  if (cards_entry->bytes != num_users * sizeof(uint32_t)) {
    return Status::Corruption(
        "Cardinalities section holds " + std::to_string(cards_entry->bytes) +
        " bytes, " + std::to_string(num_users) + " users need " +
        std::to_string(num_users * sizeof(uint32_t)));
  }
  if (num_users != 0 &&
      words_per > std::numeric_limits<uint64_t>::max() / 8 / num_users) {
    return Status::Corruption("fingerprint arena size overflows");
  }
  if (words_entry->bytes != num_users * words_per * sizeof(uint64_t)) {
    return Status::Corruption(
        "Words section holds " + std::to_string(words_entry->bytes) +
        " bytes, " + std::to_string(num_users) + " users x " +
        std::to_string(words_per) + " words need " +
        std::to_string(num_users * words_per * sizeof(uint64_t)));
  }

  // Zero-copy views. 64-byte section alignment on a page-aligned (or
  // new[]-aligned) base guarantees the element alignment.
  const auto* words =
      reinterpret_cast<const uint64_t*>(base + words_entry->offset);
  const auto* cards =
      reinterpret_cast<const uint32_t*>(base + cards_entry->offset);
  auto borrowed = FingerprintStore::FromBorrowed(
      config, num_users, num_users != 0 ? words : nullptr,
      num_users != 0 ? cards : nullptr);
  if (!borrowed.ok()) {
    return Status::Corruption("GFIX Meta section holds an invalid "
                              "fingerprint config: " +
                              borrowed.status().message());
  }

  // Shard bounds (small: copied out of the mapping, then validated the
  // same way ViewOf will).
  std::vector<UserId> shard_begins;
  {
    Reader reader(std::string_view(base + bounds_entry->offset,
                                   bounds_entry->bytes));
    uint64_t count = 0;
    GF_RETURN_IF_ERROR(reader.ReadU64(&count));
    if (count == 0 || count > reader.remaining() / sizeof(uint32_t)) {
      return Status::Corruption("ShardBounds section claims " +
                                std::to_string(count) +
                                " shards but holds " +
                                std::to_string(reader.remaining()) +
                                " payload bytes");
    }
    shard_begins.reserve(count);
    for (uint64_t s = 0; s < count; ++s) {
      uint32_t begin = 0;
      GF_RETURN_IF_ERROR(reader.ReadU32(&begin));
      shard_begins.push_back(begin);
    }
    if (reader.remaining() != 0) {
      return Status::Corruption("trailing bytes in GFIX ShardBounds section");
    }
    const Status valid = CheckShardBegins(shard_begins, num_users);
    if (!valid.ok()) return Status::Corruption(valid.message());
  }

  return MappedFingerprintStore(std::move(region),
                                std::move(borrowed).value(),
                                std::move(shard_begins));
}

}  // namespace gf::io
