#include "knn/cluster_conquer.h"

#include <algorithm>

#include "core/fingerprint_store.h"
#include "core/fingerprinter.h"

namespace gf {

namespace {

constexpr uint64_t kGolden = 0x9E3779B97F4A7C15ULL;
constexpr uint32_t kNoBucket = 0xFFFFFFFFu;

// The band's chunk of the sketch bit array. band_bits divides 64
// (validated below), so a chunk never spans words.
uint64_t ChunkOf(std::span<const uint64_t> words, std::size_t band,
                 std::size_t band_bits) {
  const std::size_t bit = band * band_bits;
  const uint64_t word = words[bit / 64];
  if (band_bits == 64) return word;
  return (word >> (bit % 64)) & ((uint64_t{1} << band_bits) - 1);
}

}  // namespace

Status ValidateClusterConquerConfig(const ClusterConquerConfig& config) {
  if (config.num_clusters == 0) {
    return Status::InvalidArgument("cluster-conquer needs >= 1 cluster");
  }
  if (config.assignments == 0) {
    return Status::InvalidArgument(
        "cluster-conquer needs >= 1 assignment per user");
  }
  if (config.sketch_bits == 0 || config.sketch_bits % 64 != 0) {
    return Status::InvalidArgument(
        "cluster-conquer sketch_bits must be a positive multiple of 64");
  }
  if (config.band_bits == 0 || 64 % config.band_bits != 0) {
    return Status::InvalidArgument(
        "cluster-conquer band_bits must divide 64");
  }
  return Status::OK();
}

Result<ClusterAssignment> ComputeClusterAssignment(
    const Dataset& dataset, const ClusterConquerConfig& config,
    ThreadPool* pool, const obs::PipelineContext* obs) {
  GF_RETURN_IF_ERROR(ValidateClusterConquerConfig(config));

  // The clustering sketch: a small SHF per user, independent of the
  // similarity fingerprints (its only job is routing users to buckets).
  FingerprintConfig sketch;
  sketch.num_bits = config.sketch_bits;
  sketch.seed = config.seed;
  Result<FingerprintStore> sketches =
      FingerprintStore::Build(dataset, sketch, pool, /*obs=*/nullptr);
  if (!sketches.ok()) return sketches.status();

  const std::size_t n = dataset.NumUsers();
  const std::size_t bands = config.sketch_bits / config.band_bits;
  const std::size_t num_clusters = config.num_clusters;

  // Candidate buckets per user (deduped, kNoBucket-padded): band chunks
  // through the seeded-Murmur3 chunk scheme of banded_lsh.h / query.cc;
  // all-zero chunks are skipped — an empty sketch region says nothing
  // about the user and would otherwise glue all sparse users together.
  std::vector<uint32_t> candidates(n * bands, kNoBucket);
  ParallelFor(pool, n, [&](std::size_t begin, std::size_t end) {
    for (std::size_t uu = begin; uu < end; ++uu) {
      const auto words = sketches->WordsOf(static_cast<UserId>(uu));
      uint32_t* out = candidates.data() + uu * bands;
      std::size_t count = 0;
      for (std::size_t band = 0; band < bands; ++band) {
        const uint64_t chunk = ChunkOf(words, band, config.band_bits);
        if (chunk == 0) continue;
        const uint64_t key = hash::Murmur3Hash64(
            chunk, config.seed ^ (kGolden * (band + 1)));
        const auto bucket = static_cast<uint32_t>(key % num_clusters);
        bool seen = false;
        for (std::size_t i = 0; i < count; ++i) {
          if (out[i] == bucket) {
            seen = true;
            break;
          }
        }
        if (!seen) out[count++] = bucket;
      }
    }
  });

  // Global bucket density: one vote per (user, candidate bucket).
  std::vector<uint32_t> density(num_clusters, 0);
  for (const uint32_t bucket : candidates) {
    if (bucket != kNoBucket) ++density[bucket];
  }

  // Each user joins its t densest candidates (ties toward the smaller
  // bucket id); a user with no non-zero chunk falls back to a seeded
  // hash of its id so every user is clustered somewhere.
  //
  // Capacity guard: Zipf-shaped data herds users into a handful of
  // popular buckets (everyone's densest candidate is the same one), and
  // one mega-bucket of m users costs m^2/2 comparisons — the quadratic
  // blow-up the clustering exists to avoid. Users are therefore placed
  // in id order and a bucket stops accepting members at `cap`; a later
  // user spills to its next-densest candidate (which its near-neighbors
  // likely share too, so locality degrades gracefully). A user whose
  // candidates are all full takes its least-loaded candidate anyway —
  // fan-out never drops below one. Deterministic: placement depends
  // only on the dataset and the configuration.
  const std::size_t cap =
      config.max_cluster_size > 0
          ? config.max_cluster_size
          : std::max<std::size_t>(
                64, (2 * config.assignments * n) / num_clusters + 1);
  std::vector<std::vector<UserId>> clusters(num_clusters);
  std::vector<uint32_t> chosen;
  for (std::size_t uu = 0; uu < n; ++uu) {
    chosen.clear();
    const uint32_t* row = candidates.data() + uu * bands;
    for (std::size_t i = 0; i < bands && row[i] != kNoBucket; ++i) {
      chosen.push_back(row[i]);
    }
    if (chosen.empty()) {
      chosen.push_back(static_cast<uint32_t>(
          hash::Murmur3Hash64(uu, config.seed ^ kGolden) % num_clusters));
    }
    std::sort(chosen.begin(), chosen.end(),
              [&](uint32_t a, uint32_t b) {
                if (density[a] != density[b]) return density[a] > density[b];
                return a < b;
              });
    std::size_t taken = 0;
    for (std::size_t i = 0; i < chosen.size() && taken < config.assignments;
         ++i) {
      if (clusters[chosen[i]].size() >= cap) continue;
      clusters[chosen[i]].push_back(static_cast<UserId>(uu));
      ++taken;
    }
    if (taken == 0) {
      uint32_t least = chosen[0];
      for (const uint32_t bucket : chosen) {
        if (clusters[bucket].size() < clusters[least].size()) least = bucket;
      }
      clusters[least].push_back(static_cast<UserId>(uu));
    }
  }

  ClusterAssignment out;
  out.num_clusters = num_clusters;
  out.sizes.resize(num_clusters);
  out.offsets.resize(num_clusters + 1, 0);
  std::size_t total = 0;
  for (std::size_t c = 0; c < num_clusters; ++c) {
    out.sizes[c] = static_cast<uint32_t>(clusters[c].size());
    out.offsets[c] = static_cast<uint32_t>(total);
    total += clusters[c].size();
  }
  out.offsets[num_clusters] = static_cast<uint32_t>(total);
  out.members.reserve(total);
  for (const auto& cluster : clusters) {
    out.members.insert(out.members.end(), cluster.begin(), cluster.end());
  }

  if (obs != nullptr && obs->HasMetrics()) {
    std::size_t nonempty = 0;
    for (const uint32_t size : out.sizes) {
      if (size > 0) ++nonempty;
      obs->Observe("cc.cluster_size", obs::kSizeBucketBoundaries,
                   static_cast<double>(size));
    }
    obs->SetGauge("cc.clusters", static_cast<double>(nonempty));
  }
  return out;
}

Status ValidateClusterCheckpoint(const BuildCheckpoint& checkpoint,
                                 const ClusterAssignment& assignment,
                                 std::size_t assignments_per_user) {
  if (checkpoint.num_clusters != assignment.num_clusters) {
    return Status::FailedPrecondition(
        "checkpoint holds " + std::to_string(checkpoint.num_clusters) +
        " clusters, this build computes " +
        std::to_string(assignment.num_clusters));
  }
  if (checkpoint.assignments_per_user != assignments_per_user) {
    return Status::FailedPrecondition(
        "checkpoint assigns each user to " +
        std::to_string(checkpoint.assignments_per_user) +
        " clusters, this build to " + std::to_string(assignments_per_user));
  }
  if (checkpoint.cluster_sizes != assignment.sizes ||
      checkpoint.cluster_members != assignment.members) {
    return Status::FailedPrecondition(
        "checkpoint cluster assignment does not match the one this "
        "configuration computes (resuming would diverge)");
  }
  return Status::OK();
}

}  // namespace gf
