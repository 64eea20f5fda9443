#include "core/versioned_store.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <utility>

namespace gf {

MutableFingerprintStore::MutableFingerprintStore(
    const FingerprintConfig& config, std::size_t num_users,
    CountingShf prototype)
    : config_(config),
      fingerprints_(num_users, prototype),
      profiles_(num_users),
      dirty_flags_(num_users, 0) {}

Result<MutableFingerprintStore> MutableFingerprintStore::Create(
    const FingerprintConfig& config, std::size_t num_users) {
  auto prototype = CountingShf::Create(config);
  if (!prototype.ok()) return prototype.status();
  return MutableFingerprintStore(config, num_users,
                                 std::move(prototype).value());
}

Result<MutableFingerprintStore> MutableFingerprintStore::FromDataset(
    const Dataset& dataset, const FingerprintConfig& config) {
  auto store = Create(config, dataset.NumUsers());
  if (!store.ok()) return store.status();
  for (UserId u = 0; u < dataset.NumUsers(); ++u) {
    for (ItemId item : dataset.Profile(u)) store->Add(u, item);
  }
  // Seeding is the epoch-0 baseline, not pending churn: repair has
  // nothing to do and applied_events() counts live traffic only.
  store->TakeDirty();
  store->applied_ = 0;
  return store;
}

bool MutableFingerprintStore::Add(UserId user, ItemId item) {
  if (user >= profiles_.size()) return false;
  std::vector<ItemId>& profile = profiles_[user];
  const auto it = std::lower_bound(profile.begin(), profile.end(), item);
  if (it != profile.end() && *it == item) return false;  // set discipline
  profile.insert(it, item);
  fingerprints_[user].Add(item);
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
  fingerprints_[user].Remove(item);
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
  const std::size_t words_per_shf = bits::WordsForBits(config_.num_bits);
  std::vector<uint64_t> words(num_users() * words_per_shf);
  std::vector<uint32_t> cards(num_users());
  for (std::size_t u = 0; u < num_users(); ++u) {
    const std::span<const uint64_t> live = fingerprints_[u].words();
    std::copy(live.begin(), live.end(), words.begin() + u * words_per_shf);
    cards[u] = fingerprints_[u].cardinality();
  }
  auto store =
      FingerprintStore::FromRaw(config_, num_users(), std::move(words),
                                std::move(cards));
  // CountingShf maintains cardinality == popcount(words) by
  // construction, so FromRaw's integrity check cannot trip.
  assert(store.ok());
  if (!store.ok()) std::abort();
  return std::move(store).value();
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
  return Staged{epoch_.load(std::memory_order_relaxed) + 1,
                write_side_.Materialize(), write_side_.TakeDirty()};
}

SnapshotPtr VersionedStore::Commit(Staged staged,
                                   std::shared_ptr<const KnnGraph> graph) {
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
