#include "core/versioned_store.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <ranges>
#include <utility>

namespace gf {

namespace {

// Re-fingerprints the rows of `users` over `words` / `cards` from
// their profiles and adopts the arenas as a store: the one row fill
// behind Materialize and Stitch.
template <typename Users>
FingerprintStore FillRows(const Fingerprinter& fingerprinter,
                          const std::vector<std::vector<ItemId>>& profiles,
                          std::vector<uint64_t> words,
                          std::vector<uint32_t> cards, const Users& users) {
  const FingerprintConfig& config = fingerprinter.config();
  const std::size_t words_per_shf = bits::WordsForBits(config.num_bits);
  for (const UserId u : users) {
    cards[u] = fingerprinter.FillRow(
        profiles[u], {words.data() + u * words_per_shf, words_per_shf});
  }
  auto store = FingerprintStore::FromRaw(config, profiles.size(),
                                         std::move(words), std::move(cards));
  // FillRow returns each row's popcount and the other rows come from a
  // checked store, so FromRaw's integrity check cannot trip.
  assert(store.ok());
  if (!store.ok()) std::abort();
  return std::move(store).value();
}

}  // namespace

MutableFingerprintStore::MutableFingerprintStore(Fingerprinter fingerprinter,
                                                 std::size_t num_users)
    : fingerprinter_(std::move(fingerprinter)),
      profiles_(num_users),
      dirty_flags_(num_users, 0) {}

Result<MutableFingerprintStore> MutableFingerprintStore::Create(
    const FingerprintConfig& config, std::size_t num_users) {
  auto fingerprinter = Fingerprinter::Create(config);
  if (!fingerprinter.ok()) return fingerprinter.status();
  return MutableFingerprintStore(std::move(fingerprinter).value(), num_users);
}

Result<MutableFingerprintStore> MutableFingerprintStore::FromDataset(
    const Dataset& dataset, const FingerprintConfig& config) {
  auto store = Create(config, dataset.NumUsers());
  if (!store.ok()) return store.status();
  for (UserId u = 0; u < dataset.NumUsers(); ++u) {
    const std::span<const ItemId> profile = dataset.Profile(u);
    store->profiles_[u].assign(profile.begin(), profile.end());
  }
  return store;
}

bool MutableFingerprintStore::Add(UserId user, ItemId item) {
  if (user >= profiles_.size()) return false;
  std::vector<ItemId>& profile = profiles_[user];
  const auto it = std::lower_bound(profile.begin(), profile.end(), item);
  if (it != profile.end() && *it == item) return false;  // set discipline
  profile.insert(it, item);
  if (!dirty_flags_[user]) {
    dirty_flags_[user] = 1;
    dirty_.push_back(user);
  }
  ++applied_;
  return true;
}

bool MutableFingerprintStore::Remove(UserId user, ItemId item) {
  if (user >= profiles_.size()) return false;
  std::vector<ItemId>& profile = profiles_[user];
  const auto it = std::lower_bound(profile.begin(), profile.end(), item);
  if (it == profile.end() || *it != item) return false;
  profile.erase(it);
  if (!dirty_flags_[user]) {
    dirty_flags_[user] = 1;
    dirty_.push_back(user);
  }
  ++applied_;
  return true;
}

bool MutableFingerprintStore::Apply(const RatingEvent& event) {
  return event.kind == RatingEvent::Kind::kAdd ? Add(event.user, event.item)
                                               : Remove(event.user, event.item);
}

std::vector<UserId> MutableFingerprintStore::TakeDirty() {
  std::vector<UserId> out;
  out.swap(dirty_);
  for (UserId u : out) dirty_flags_[u] = 0;
  std::sort(out.begin(), out.end());
  return out;
}

FingerprintStore MutableFingerprintStore::Materialize() const {
  return FillRows(fingerprinter_, profiles_,
                  std::vector<uint64_t>(num_users() *
                                        bits::WordsForBits(num_bits())),
                  std::vector<uint32_t>(num_users()),
                  std::views::iota(UserId{0},
                                   static_cast<UserId>(num_users())));
}

FingerprintStore MutableFingerprintStore::Stitch(
    const FingerprintStore& base, std::span<const UserId> users) const {
  assert(base.num_users() == num_users() && base.num_bits() == num_bits());
  const std::span<const uint64_t> words = base.WordsArena();
  const std::span<const uint32_t> cards = base.Cardinalities();
  return FillRows(fingerprinter_, profiles_,
                  std::vector<uint64_t>(words.begin(), words.end()),
                  std::vector<uint32_t>(cards.begin(), cards.end()), users);
}

VersionedStore::VersionedStore(MutableFingerprintStore write_side,
                               std::shared_ptr<const KnnGraph> initial_graph,
                               Clock* clock)
    : write_side_(std::move(write_side)),
      clock_(clock != nullptr ? clock : Clock::System()),
      live_(std::make_shared<std::atomic<int64_t>>(0)) {
  current_ = MakeTracked(write_side_.Materialize(), 0,
                         std::move(initial_graph));
}

SnapshotPtr VersionedStore::MakeTracked(
    FingerprintStore store, uint64_t epoch,
    std::shared_ptr<const KnnGraph> graph) {
  live_->fetch_add(1, std::memory_order_acq_rel);
  // The retire hook holds the counter (not `this`) so snapshots may
  // outlive the VersionedStore.
  return StoreSnapshot::Own(
      std::move(store), epoch, std::move(graph), clock_->NowMicros(),
      [live = live_] { live->fetch_sub(1, std::memory_order_acq_rel); });
}

VersionedStore::Staged VersionedStore::Stage() {
  assert(!stage_open_ && "commit each Stage before the next");
  stage_open_ = true;
  std::vector<UserId> dirty = write_side_.TakeDirty();
  FingerprintStore store = write_side_.Stitch(Acquire()->store(), dirty);
  return Staged{epoch_.load(std::memory_order_relaxed) + 1, std::move(store),
                std::move(dirty)};
}

SnapshotPtr VersionedStore::Commit(Staged staged,
                                   std::shared_ptr<const KnnGraph> graph) {
  stage_open_ = false;
  SnapshotPtr snap =
      MakeTracked(std::move(staged.store), staged.epoch, std::move(graph));
  epoch_.store(staged.epoch, std::memory_order_release);
  // `previous` outlives the lock, so retiring the old epoch (which may
  // free its arena) never runs under it.
  SnapshotPtr previous = snap;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    current_.swap(previous);
  }
  return snap;
}

SnapshotPtr VersionedStore::Publish(std::shared_ptr<const KnnGraph> graph) {
  if (graph == nullptr) graph = Acquire()->graph();
  return Commit(Stage(), std::move(graph));
}

}  // namespace gf
