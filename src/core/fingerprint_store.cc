#include "core/fingerprint_store.h"

#include <algorithm>
#include <type_traits>

#include "common/simd_popcount.h"

namespace gf {

namespace {

// The gather kernel takes raw uint32_t row ids; UserId spans are passed
// through without copying.
static_assert(std::is_same_v<UserId, uint32_t>,
              "AndPopCountBatch consumes UserId spans directly");

// Batch scoring runs through a fixed stack scratch of AND-popcounts so
// arbitrarily large candidate lists allocate nothing. 256 counts = 1 KiB,
// and at b=1024 256 fingerprints are 32 KiB — L1/L2 sized.
constexpr std::size_t kScoreChunk = 256;

}  // namespace

template <typename CountsToSim>
void FingerprintStore::ScoreBatchImpl(const uint64_t* query,
                                      uint32_t query_card,
                                      std::span<const UserId> candidates,
                                      std::span<double> out,
                                      CountsToSim&& to_sim) const {
  uint32_t counts[kScoreChunk];
  for (std::size_t done = 0; done < candidates.size(); done += kScoreChunk) {
    const std::size_t m = std::min(kScoreChunk, candidates.size() - done);
    bits::AndPopCountBatch(query, words_data_, words_per_shf_,
                           candidates.data() + done, m, counts);
    for (std::size_t i = 0; i < m; ++i) {
      out[done + i] =
          to_sim(query_card, cards_data_[candidates[done + i]], counts[i]);
    }
  }
  CountLoads(candidates.size() * (2 * words_per_shf_ + 2));
}

void FingerprintStore::EstimateJaccardBatch(UserId u,
                                            std::span<const UserId> candidates,
                                            std::span<double> out) const {
  ScoreBatchImpl(words_data_ + static_cast<std::size_t>(u) * words_per_shf_,
                 cards_data_[u], candidates, out, &JaccardFromCounts);
}

void FingerprintStore::CountBatch(UserId u,
                                  std::span<const UserId> candidates,
                                  std::span<uint32_t> counts) const {
  bits::AndPopCountBatch(
      words_data_ + static_cast<std::size_t>(u) * words_per_shf_, words_data_,
      words_per_shf_, candidates.data(), candidates.size(), counts.data());
  CountLoads(candidates.size() * (2 * words_per_shf_ + 2));
}

void FingerprintStore::EstimateCosineBatch(UserId u,
                                           std::span<const UserId> candidates,
                                           std::span<double> out) const {
  ScoreBatchImpl(words_data_ + static_cast<std::size_t>(u) * words_per_shf_,
                 cards_data_[u], candidates, out, &CosineFromCounts);
}

Result<FingerprintStore> FingerprintStore::Build(
    const Dataset& dataset, const FingerprintConfig& config,
    ThreadPool* pool, const obs::PipelineContext* obs) {
  obs::ScopedPhase phase(obs, "fingerprint.build");
  auto fp_result = Fingerprinter::Create(config);
  if (!fp_result.ok()) return fp_result.status();
  const Fingerprinter& fingerprinter = fp_result.value();

  FingerprintStore store(config, dataset.NumUsers());
  ParallelFor(pool, dataset.NumUsers(), [&](std::size_t begin,
                                            std::size_t end) {
    for (std::size_t u = begin; u < end; ++u) {
      store.cardinalities_[u] = fingerprinter.FillRow(
          dataset.Profile(static_cast<UserId>(u)),
          {store.words_.data() + u * store.words_per_shf_,
           store.words_per_shf_});
    }
  });
  if (obs != nullptr) {
    obs->Count("fingerprint.users", store.num_users());
    obs->Count("fingerprint.payload_bytes", store.PayloadBytes());
  }
  return store;
}

Result<FingerprintStore> FingerprintStore::FromRaw(
    const FingerprintConfig& config, std::size_t num_users,
    std::vector<uint64_t> words, std::vector<uint32_t> cardinalities) {
  auto fp = Fingerprinter::Create(config);  // validates the config
  if (!fp.ok()) return fp.status();
  const std::size_t words_per_shf = bits::WordsForBits(config.num_bits);
  if (words.size() != num_users * words_per_shf) {
    return Status::InvalidArgument(
        "words size " + std::to_string(words.size()) + " != num_users * " +
        std::to_string(words_per_shf));
  }
  if (cardinalities.size() != num_users) {
    return Status::InvalidArgument("cardinalities size mismatch");
  }
  // popcount(row AND row) on the dispatched per-pair kernel: on the
  // baseline x86-64 the tree is built for, bits::PopCount is a libgcc
  // call per word, and every publish of a mutable store runs this loop.
  for (std::size_t u = 0; u < num_users; ++u) {
    const uint64_t* row = words.data() + u * words_per_shf;
    const uint32_t popcount = bits::AndPopCount(row, row, words_per_shf);
    if (popcount != cardinalities[u]) {
      return Status::Corruption(
          "cardinality of user " + std::to_string(u) +
          " does not match its bit array");
    }
  }
  FingerprintStore store(config, 0);
  store.num_users_ = num_users;
  store.adopted_words_ = std::move(words);
  store.cardinalities_ = std::move(cardinalities);
  store.words_data_ = store.adopted_words_.data();
  store.cards_data_ = store.cardinalities_.data();
  return store;
}

Result<FingerprintStore> FingerprintStore::FromBorrowed(
    const FingerprintConfig& config, std::size_t num_users,
    const uint64_t* words, const uint32_t* cardinalities) {
  auto fp = Fingerprinter::Create(config);  // validates the config
  if (!fp.ok()) return fp.status();
  if (num_users != 0 && (words == nullptr || cardinalities == nullptr)) {
    return Status::InvalidArgument("borrowed arenas must be non-null");
  }
  FingerprintStore store(config, 0);
  store.num_users_ = num_users;
  store.borrowed_ = true;
  store.words_data_ = words;
  store.cards_data_ = cardinalities;
  return store;
}

FingerprintStore& FingerprintStore::operator=(const FingerprintStore& other) {
  if (this == &other) return *this;
  config_ = other.config_;
  num_bits_ = other.num_bits_;
  words_per_shf_ = other.words_per_shf_;
  num_users_ = other.num_users_;
  borrowed_ = other.borrowed_;
  adopted_words_ = {};
  if (borrowed_) {
    words_ = {};
    words_data_ = other.words_data_;
  } else {
    const std::span<const uint64_t> arena = other.WordsArena();
    words_.assign(arena.begin(), arena.end());
    words_data_ = words_.data();
  }
  cardinalities_ = other.cardinalities_;
  cards_data_ = borrowed_ ? other.cards_data_ : cardinalities_.data();
  return *this;
}

Shf FingerprintStore::Extract(UserId u) const {
  Shf shf = *Shf::Create(num_bits_);
  const auto words = WordsOf(u);
  for (std::size_t w = 0; w < words.size(); ++w) {
    uint64_t word = words[w];
    while (word != 0) {
      const unsigned bit = static_cast<unsigned>(std::countr_zero(word));
      shf.SetBit(w * 64 + bit);
      word &= word - 1;
    }
  }
  return shf;
}

}  // namespace gf
