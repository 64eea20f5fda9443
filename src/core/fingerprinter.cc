#include "core/fingerprinter.h"

#include <algorithm>

namespace gf {

Result<Fingerprinter> Fingerprinter::Create(const FingerprintConfig& config) {
  if (!bits::IsValidBitLength(config.num_bits)) {
    return Status::InvalidArgument(
        "SHF length must be a positive multiple of 64, got " +
        std::to_string(config.num_bits));
  }
  if (config.hashes_per_item == 0) {
    return Status::InvalidArgument("hashes_per_item must be >= 1");
  }
  return Fingerprinter(config);
}

Shf Fingerprinter::Fingerprint(std::span<const ItemId> profile) const {
  Shf shf = *Shf::Create(config_.num_bits);
  for (ItemId item : profile) {
    for (std::size_t k = 0; k < config_.hashes_per_item; ++k) {
      shf.SetBit(BitFor(item, k));
    }
  }
  return shf;
}

uint32_t Fingerprinter::FillRow(std::span<const ItemId> profile,
                                std::span<uint64_t> row) const {
  std::fill(row.begin(), row.end(), 0);
  uint32_t card = 0;
  for (ItemId item : profile) {
    for (std::size_t k = 0; k < config_.hashes_per_item; ++k) {
      const std::size_t pos = BitFor(item, k);
      if (!bits::TestBit(row.data(), pos)) {
        bits::SetBit(row.data(), pos);
        ++card;
      }
    }
  }
  return card;
}

}  // namespace gf
