#include "core/sharded_store.h"

#include <string>
#include <utility>

namespace gf {

Result<ShardedFingerprintStore> ShardedFingerprintStore::ViewOf(
    const FingerprintStore& source, std::span<const UserId> shard_begins,
    const obs::PipelineContext* obs) {
  if (shard_begins.empty()) {
    return Status::InvalidArgument("need >= 1 shard begin");
  }
  if (shard_begins.front() != 0) {
    return Status::InvalidArgument("first shard must begin at user 0");
  }
  const std::size_t n = source.num_users();
  const std::size_t s_count = shard_begins.size();
  obs::ScopedPhase phase(obs, "store.shard.view");

  ShardedFingerprintStore out(source.config(), n);
  out.shard_begins_.reserve(s_count);
  out.shards_.reserve(s_count);
  for (std::size_t s = 0; s < s_count; ++s) {
    const UserId begin = shard_begins[s];
    const std::size_t end = s + 1 < s_count
                                ? static_cast<std::size_t>(shard_begins[s + 1])
                                : n;
    if (static_cast<std::size_t>(begin) > end || end > n) {
      return Status::InvalidArgument(
          "shard begins must be non-decreasing and within the store "
          "(shard " + std::to_string(s) + " spans [" +
          std::to_string(begin) + ", " + std::to_string(end) + ") of " +
          std::to_string(n) + " users)");
    }
    const std::size_t count = end - begin;
    auto shard = FingerprintStore::FromBorrowed(
        source.config(), count,
        count != 0 ? source.WordsOf(begin).data() : nullptr,
        count != 0 ? source.Cardinalities().data() + begin : nullptr);
    if (!shard.ok()) return shard.status();
    out.shard_begins_.push_back(begin);
    out.shards_.push_back(std::move(shard).value());
  }
  if (obs != nullptr) {
    obs->Count("store.shard.views", 1);
    obs->SetGauge("store.shard.count", static_cast<double>(s_count));
  }
  return out;
}

Result<ShardedFingerprintStore> ShardedFingerprintStore::ViewOf(
    SnapshotPtr snapshot, std::span<const UserId> shard_begins,
    const obs::PipelineContext* obs) {
  if (snapshot == nullptr) {
    return Status::InvalidArgument("snapshot must be non-null");
  }
  auto view = ViewOf(snapshot->store(), shard_begins, obs);
  if (!view.ok()) return view.status();
  view->retain_ = std::move(snapshot);
  return view;
}

std::vector<UserId> ShardedFingerprintStore::BalancedBegins(
    std::size_t num_users, std::size_t num_shards) {
  if (num_shards == 0) num_shards = 1;
  const std::size_t base = num_users / num_shards;
  const std::size_t extra = num_users % num_shards;
  std::vector<UserId> begins;
  begins.reserve(num_shards);
  UserId begin = 0;
  for (std::size_t s = 0; s < num_shards; ++s) {
    begins.push_back(begin);
    begin += static_cast<UserId>(base + (s < extra ? 1 : 0));
  }
  return begins;
}

}  // namespace gf
