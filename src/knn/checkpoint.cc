#include "knn/checkpoint.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "io/container.h"

namespace gf {

namespace {

using io::PayloadKind;
using io::Reader;

constexpr char kFilePrefix[] = "checkpoint-";
constexpr char kFileSuffix[] = ".gfsz";

// Parses "checkpoint-NNNNNN.gfsz" into NNNNNN; false for other names.
bool ParseCheckpointName(const std::string& name, uint64_t* seq) {
  const std::string_view prefix(kFilePrefix);
  const std::string_view suffix(kFileSuffix);
  if (name.size() <= prefix.size() + suffix.size()) return false;
  if (name.compare(0, prefix.size(), prefix) != 0) return false;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return false;
  }
  uint64_t value = 0;
  for (std::size_t i = prefix.size(); i < name.size() - suffix.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    value = value * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  *seq = value;
  return true;
}

}  // namespace

std::string SerializeCheckpoint(const BuildCheckpoint& checkpoint) {
  std::string payload;
  io::PutU32(payload, static_cast<uint32_t>(checkpoint.algorithm));
  io::PutU64(payload, checkpoint.num_users);
  io::PutU64(payload, checkpoint.k);
  io::PutU64(payload, checkpoint.seed);
  io::PutU64(payload, checkpoint.next_user);
  io::PutU64(payload, checkpoint.iterations);
  io::PutU64(payload, checkpoint.computations);
  io::PutU32(payload,
             static_cast<uint32_t>(checkpoint.updates_per_iteration.size()));
  for (uint64_t updates : checkpoint.updates_per_iteration) {
    io::PutU64(payload, updates);
  }
  for (uint64_t lane : checkpoint.rng.lanes) io::PutU64(payload, lane);
  io::PutF64(payload, checkpoint.rng.spare);
  io::PutU8(payload, checkpoint.rng.has_spare ? 1 : 0);
  if (checkpoint.algorithm == CheckpointAlgorithm::kClusterConquer) {
    io::PutU64(payload, checkpoint.num_clusters);
    io::PutU64(payload, checkpoint.assignments_per_user);
    std::size_t offset = 0;
    for (const uint32_t size : checkpoint.cluster_sizes) {
      io::PutU32(payload, size);
      for (uint32_t i = 0; i < size; ++i) {
        io::PutU32(payload, checkpoint.cluster_members[offset + i]);
      }
      offset += size;
    }
  }
  for (uint64_t u = 0; u < checkpoint.num_users; ++u) {
    const uint32_t size = checkpoint.row_sizes[u];
    io::PutU32(payload, size);
    const NeighborLists::Entry* row = checkpoint.rows.data() + u * checkpoint.k;
    for (uint32_t i = 0; i < size; ++i) {
      io::PutU32(payload, row[i].id);
      io::PutF32(payload, row[i].similarity);
      io::PutU8(payload, row[i].is_new ? 1 : 0);
    }
  }
  return io::WrapContainer(PayloadKind::kCheckpoint, std::move(payload));
}

Result<BuildCheckpoint> DeserializeCheckpoint(std::string_view buffer) {
  std::string_view payload;
  GF_ASSIGN_OR_RETURN(payload,
                      io::UnwrapContainer(buffer, PayloadKind::kCheckpoint));
  Reader reader(payload);
  BuildCheckpoint out;
  uint32_t algorithm = 0;
  GF_RETURN_IF_ERROR(reader.ReadU32(&algorithm));
  if (algorithm < static_cast<uint32_t>(CheckpointAlgorithm::kBruteForce) ||
      algorithm > static_cast<uint32_t>(CheckpointAlgorithm::kClusterConquer)) {
    return Status::Corruption("unknown checkpoint algorithm " +
                              std::to_string(algorithm));
  }
  out.algorithm = static_cast<CheckpointAlgorithm>(algorithm);
  GF_RETURN_IF_ERROR(reader.ReadU64(&out.num_users));
  GF_RETURN_IF_ERROR(reader.ReadU64(&out.k));
  GF_RETURN_IF_ERROR(reader.ReadU64(&out.seed));
  GF_RETURN_IF_ERROR(reader.ReadU64(&out.next_user));
  GF_RETURN_IF_ERROR(reader.ReadU64(&out.iterations));
  GF_RETURN_IF_ERROR(reader.ReadU64(&out.computations));
  // For ClusterConquer next_user counts clusters, bounded after the
  // cluster table below; for the row-wise algorithms it counts users.
  if (out.algorithm != CheckpointAlgorithm::kClusterConquer &&
      out.next_user > out.num_users) {
    return Status::Corruption("checkpoint progress past the end: next_user " +
                              std::to_string(out.next_user) + " of " +
                              std::to_string(out.num_users));
  }
  // A checkpoint always fits in memory (it was written from one), but a
  // corrupt header must not drive a huge allocation: the remaining
  // payload bounds every count below, entries being >= 1 byte each.
  uint32_t history = 0;
  GF_RETURN_IF_ERROR(reader.ReadU32(&history));
  if (history > reader.remaining() / 8) {
    return Status::Corruption("updates history longer than the payload");
  }
  out.updates_per_iteration.resize(history);
  for (auto& updates : out.updates_per_iteration) {
    GF_RETURN_IF_ERROR(reader.ReadU64(&updates));
  }
  for (auto& lane : out.rng.lanes) GF_RETURN_IF_ERROR(reader.ReadU64(&lane));
  GF_RETURN_IF_ERROR(reader.ReadF64(&out.rng.spare));
  uint8_t has_spare = 0;
  GF_RETURN_IF_ERROR(reader.ReadU8(&has_spare));
  out.rng.has_spare = has_spare != 0;

  if (out.algorithm == CheckpointAlgorithm::kClusterConquer) {
    GF_RETURN_IF_ERROR(reader.ReadU64(&out.num_clusters));
    GF_RETURN_IF_ERROR(reader.ReadU64(&out.assignments_per_user));
    if (out.next_user > out.num_clusters) {
      return Status::Corruption(
          "checkpoint progress past the end: next cluster " +
          std::to_string(out.next_user) + " of " +
          std::to_string(out.num_clusters));
    }
    // Every cluster costs at least its u32 size; members cost 4 bytes
    // each — so both counts stay bounded by the bytes actually present.
    if (out.num_clusters > reader.remaining() / 4) {
      return Status::Corruption("cluster table longer than the payload");
    }
    out.cluster_sizes.assign(out.num_clusters, 0);
    out.cluster_members.clear();
    for (uint64_t c = 0; c < out.num_clusters; ++c) {
      uint32_t size = 0;
      GF_RETURN_IF_ERROR(reader.ReadU32(&size));
      if (size > reader.remaining() / 4) {
        return Status::Corruption("cluster " + std::to_string(c) +
                                  " larger than the payload");
      }
      out.cluster_sizes[c] = size;
      uint32_t prev = 0;
      for (uint32_t i = 0; i < size; ++i) {
        uint32_t member = 0;
        GF_RETURN_IF_ERROR(reader.ReadU32(&member));
        if (member >= out.num_users) {
          return Status::Corruption(
              "cluster member " + std::to_string(member) +
              " out of range for " + std::to_string(out.num_users) +
              " users");
        }
        if (i > 0 && member <= prev) {
          return Status::Corruption("cluster " + std::to_string(c) +
                                    " members not strictly ascending");
        }
        prev = member;
        out.cluster_members.push_back(member);
      }
    }
  }

  // Same payload-proportional rule as io/serialization.cc: each user
  // costs at least its u32 row size, and the dense num_users * k row
  // table may exceed the stored entries by at most 8x, so the
  // allocation stays a small multiple of the bytes actually present.
  if (out.num_users > reader.remaining() / 4 ||
      (out.k != 0 && out.num_users != 0 &&
       out.k > (8 * static_cast<uint64_t>(reader.remaining())) /
                   out.num_users)) {
    return Status::Corruption("checkpoint dimensions exceed the payload");
  }
  out.row_sizes.assign(out.num_users, 0);
  out.rows.assign(out.num_users * out.k, NeighborLists::Entry{});
  for (uint64_t u = 0; u < out.num_users; ++u) {
    uint32_t size = 0;
    GF_RETURN_IF_ERROR(reader.ReadU32(&size));
    if (size > out.k) {
      return Status::Corruption(
          "user " + std::to_string(u) + " lists " + std::to_string(size) +
          " neighbors but k = " + std::to_string(out.k));
    }
    out.row_sizes[u] = size;
    NeighborLists::Entry* row = out.rows.data() + u * out.k;
    for (uint32_t i = 0; i < size; ++i) {
      uint32_t id = 0;
      uint8_t is_new = 0;
      GF_RETURN_IF_ERROR(reader.ReadU32(&id));
      GF_RETURN_IF_ERROR(reader.ReadF32(&row[i].similarity));
      GF_RETURN_IF_ERROR(reader.ReadU8(&is_new));
      if (id >= out.num_users) {
        return Status::Corruption("neighbor id " + std::to_string(id) +
                                  " out of range for " +
                                  std::to_string(out.num_users) + " users");
      }
      row[i].id = id;
      row[i].is_new = is_new != 0;
    }
  }
  if (reader.remaining() != 0) {
    return Status::Corruption("trailing bytes in checkpoint payload");
  }
  return out;
}

void CaptureLists(const NeighborLists& lists, BuildCheckpoint* checkpoint) {
  const std::size_t n = lists.num_users();
  const std::size_t k = lists.k();
  checkpoint->num_users = n;
  checkpoint->k = k;
  checkpoint->row_sizes.assign(n, 0);
  checkpoint->rows.assign(n * k, NeighborLists::Entry{});
  for (UserId u = 0; u < n; ++u) {
    const auto row = lists.Of(u);
    checkpoint->row_sizes[u] = static_cast<uint32_t>(row.size());
    std::copy(row.begin(), row.end(),
              checkpoint->rows.begin() + static_cast<std::size_t>(u) * k);
  }
}

Status RestoreLists(const BuildCheckpoint& checkpoint, NeighborLists* lists) {
  if (checkpoint.num_users != lists->num_users() ||
      checkpoint.k != lists->k()) {
    return Status::FailedPrecondition(
        "checkpoint shape (" + std::to_string(checkpoint.num_users) + " x " +
        std::to_string(checkpoint.k) + ") does not match the build (" +
        std::to_string(lists->num_users()) + " x " +
        std::to_string(lists->k()) + ")");
  }
  for (UserId u = 0; u < checkpoint.num_users; ++u) {
    lists->RestoreRow(
        u, {checkpoint.rows.data() + static_cast<std::size_t>(u) * checkpoint.k,
            checkpoint.row_sizes[u]});
  }
  return Status::OK();
}

Status ValidateCheckpoint(const BuildCheckpoint& checkpoint,
                          CheckpointAlgorithm algorithm, uint64_t num_users,
                          uint64_t k, uint64_t tag) {
  if (checkpoint.algorithm != algorithm) {
    return Status::FailedPrecondition(
        "checkpoint was written by algorithm " +
        std::to_string(static_cast<uint32_t>(checkpoint.algorithm)) +
        ", this build runs algorithm " +
        std::to_string(static_cast<uint32_t>(algorithm)));
  }
  if (checkpoint.num_users != num_users || checkpoint.k != k) {
    return Status::FailedPrecondition(
        "checkpoint shape (" + std::to_string(checkpoint.num_users) + " x " +
        std::to_string(checkpoint.k) + ") does not match the build (" +
        std::to_string(num_users) + " x " + std::to_string(k) + ")");
  }
  if (checkpoint.seed != tag) {
    return Status::FailedPrecondition(
        "checkpoint was written under configuration tag " +
        std::to_string(checkpoint.seed) + ", this build's is " +
        std::to_string(tag) +
        " (resuming would diverge from the original run)");
  }
  return Status::OK();
}

Result<BuildCheckpointer> BuildCheckpointer::Open(
    const CheckpointConfig& config, CheckpointAlgorithm algorithm,
    uint64_t num_users, uint64_t k, uint64_t tag,
    const obs::PipelineContext* obs) {
  BuildCheckpointer checkpointer;
  if (config.dir.empty()) return checkpointer;
  checkpointer.algorithm_ = algorithm;
  checkpointer.tag_ = tag;
  checkpointer.every_ = std::max<std::size_t>(config.every, 1);
  checkpointer.obs_ = obs;
  CheckpointStore& store = checkpointer.store_.emplace(config.dir, config.env);
  if (obs != nullptr && obs->HasMetrics()) store.AttachMetrics(obs->metrics);
  GF_RETURN_IF_ERROR(store.Init());
  if (config.resume) {
    Result<BuildCheckpoint> loaded = store.LoadLatest();
    if (loaded.ok()) {
      GF_RETURN_IF_ERROR(
          ValidateCheckpoint(*loaded, algorithm, num_users, k, tag));
      checkpointer.resumed_ = std::move(loaded).value();
      return checkpointer;
    }
    if (loaded.status().code() != StatusCode::kNotFound) {
      return loaded.status();
    }
    // No usable checkpoint: fall through to a fresh build.
  }
  // A fresh build invalidates whatever a previous run left behind;
  // keeping those files around would let a later resume silently mix
  // builds.
  GF_RETURN_IF_ERROR(store.Reset());
  return checkpointer;
}

// ---- CheckpointStore ---------------------------------------------------

CheckpointStore::CheckpointStore(std::string dir, io::Env* env,
                                 std::size_t keep)
    : dir_(std::move(dir)),
      env_(env != nullptr ? env : io::Env::Default()),
      keep_(std::max<std::size_t>(1, keep)) {}

std::string CheckpointStore::FilePath(uint64_t seq) const {
  char name[32];
  std::snprintf(name, sizeof(name), "%s%06" PRIu64 "%s", kFilePrefix, seq,
                kFileSuffix);
  return io::JoinPath(dir_, name);
}

void CheckpointStore::AttachMetrics(obs::MetricRegistry* metrics) {
  metrics_ = metrics;
}

void CheckpointStore::Count(std::string_view name, uint64_t n) const {
  if (metrics_ != nullptr) metrics_->GetCounter(name)->Add(n);
}

Status CheckpointStore::Init() { return env_->CreateDirs(dir_); }

Status CheckpointStore::Reset() {
  auto names = env_->ListDirectory(dir_);
  if (!names.ok()) return names.status();
  Status status;
  for (const std::string& name : *names) {
    uint64_t seq = 0;
    if (!ParseCheckpointName(name, &seq)) continue;
    const Status s = env_->DeleteFile(io::JoinPath(dir_, name));
    if (!s.ok() && status.ok()) status = s;
  }
  next_seq_ = 0;
  return status;
}

Status CheckpointStore::Save(const BuildCheckpoint& checkpoint) {
  const uint64_t seq = next_seq_;
  const std::string bytes = SerializeCheckpoint(checkpoint);
  GF_RETURN_IF_ERROR(env_->WriteFileAtomic(FilePath(seq), bytes));
  Count(kStatCheckpointSaves, 1);
  Count(kStatCheckpointBytesWritten, bytes.size());
  next_seq_ = seq + 1;
  // Prune: drop everything older than the newest `keep_` files. Best
  // effort — a failed delete must not fail the build.
  if (seq + 1 > keep_) {
    auto names = env_->ListDirectory(dir_);
    if (names.ok()) {
      const uint64_t cutoff = seq + 1 - keep_;
      for (const std::string& name : *names) {
        uint64_t old = 0;
        if (ParseCheckpointName(name, &old) && old < cutoff) {
          if (env_->DeleteFile(io::JoinPath(dir_, name)).ok()) {
            Count(kStatCheckpointPruned, 1);
          }
        }
      }
    }
  }
  return Status::OK();
}

Result<BuildCheckpoint> CheckpointStore::LoadLatest() {
  auto names = env_->ListDirectory(dir_);
  if (!names.ok()) {
    if (names.status().code() == StatusCode::kNotFound) {
      return Status::NotFound("no checkpoint directory at " + dir_);
    }
    return names.status();
  }
  std::vector<uint64_t> seqs;
  for (const std::string& name : *names) {
    uint64_t seq = 0;
    if (ParseCheckpointName(name, &seq)) seqs.push_back(seq);
  }
  std::sort(seqs.rbegin(), seqs.rend());
  std::size_t skipped = 0;
  for (uint64_t seq : seqs) {
    auto bytes = env_->ReadFile(FilePath(seq));
    if (!bytes.ok()) {
      // A vanished or unreadable file is treated like a torn one: fall
      // back to the next older checkpoint.
      ++skipped;
      Count(kStatCheckpointCorruptSkipped, 1);
      continue;
    }
    auto checkpoint = DeserializeCheckpoint(*bytes);
    if (!checkpoint.ok()) {
      ++skipped;
      Count(kStatCheckpointCorruptSkipped, 1);
      continue;
    }
    next_seq_ = seq + 1;
    Count(kStatCheckpointLoads, 1);
    Count(kStatCheckpointBytesRead, bytes->size());
    return checkpoint;
  }
  return Status::NotFound("no usable checkpoint in " + dir_ + " (" +
                          std::to_string(skipped) + " unreadable/corrupt)");
}

}  // namespace gf
