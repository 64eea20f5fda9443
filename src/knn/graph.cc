#include "knn/graph.h"

#include <algorithm>

namespace gf {

std::size_t KnnGraph::NumEdges() const {
  std::size_t total = 0;
  for (uint32_t c : counts_) total += c;
  return total;
}

double KnnGraph::AverageStoredSimilarity() const {
  double sum = 0.0;
  std::size_t count = 0;
  for (UserId u = 0; u < num_users_; ++u) {
    for (const Neighbor& nb : NeighborsOf(u)) {
      sum += nb.similarity;
      ++count;
    }
  }
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

NeighborLists::NeighborLists(std::size_t num_users, std::size_t k)
    : num_users_(num_users),
      k_(k),
      entries_(num_users * k),
      sizes_(num_users, 0),
      worst_sims_(num_users, kNoFloor) {}

bool NeighborLists::Insert(UserId u, UserId v, double sim) {
  const auto fsim = static_cast<float>(sim);
  const uint32_t size = sizes_[u];
  // A full row caches its worst similarity: offers at or below that
  // floor cannot change the list (a duplicate would be rejected
  // anyway), so they return without touching the row at all.
  if (size == k_ && fsim <= worst_sims_[u]) return false;
  Entry* row = entries_.data() + static_cast<std::size_t>(u) * k_;
  // One pass: reject duplicates, remember the worst and second-worst
  // entries (the second-worst seeds the new floor after a replacement).
  std::size_t worst = 0;
  float worst_sim = kNoFloor;  // above any similarity
  float second_sim = kNoFloor;
  for (std::size_t i = 0; i < size; ++i) {
    if (row[i].id == v) return false;
    if (row[i].similarity < worst_sim) {
      second_sim = worst_sim;
      worst_sim = row[i].similarity;
      worst = i;
    } else if (row[i].similarity < second_sim) {
      second_sim = row[i].similarity;
    }
  }
  if (size < k_) {
    row[size] = {v, fsim, true};
    ++sizes_[u];
    if (size + 1 == k_) worst_sims_[u] = std::min(worst_sim, fsim);
    return true;
  }
  if (fsim <= worst_sim) return false;
  row[worst] = {v, fsim, true};
  worst_sims_[u] = std::min(second_sim, fsim);
  return true;
}

void NeighborLists::RestoreRow(UserId u, std::span<const Entry> entries) {
  Entry* row = entries_.data() + static_cast<std::size_t>(u) * k_;
  const std::size_t count = std::min(entries.size(), k_);
  std::copy(entries.begin(), entries.begin() + static_cast<long>(count), row);
  sizes_[u] = static_cast<uint32_t>(count);
  float floor = kNoFloor;
  if (count == k_) {
    for (std::size_t i = 0; i < count; ++i) {
      floor = std::min(floor, row[i].similarity);
    }
  }
  worst_sims_[u] = floor;
}

KnnGraph NeighborLists::Finalize(ThreadPool* pool) const {
  std::vector<Neighbor> edges(num_users_ * k_);
  std::vector<uint32_t> counts(num_users_, 0);
  ParallelFor(pool, num_users_, [&](std::size_t begin, std::size_t end) {
    for (std::size_t u = begin; u < end; ++u) {
      const auto entries = Of(static_cast<UserId>(u));
      Neighbor* row = edges.data() + u * k_;
      for (std::size_t i = 0; i < entries.size(); ++i) {
        row[i] = {entries[i].id, entries[i].similarity};
      }
      std::sort(row, row + entries.size(),
                [](const Neighbor& a, const Neighbor& b) {
                  if (a.similarity != b.similarity) {
                    return a.similarity > b.similarity;
                  }
                  return a.id < b.id;  // deterministic tie-break
                });
      counts[u] = static_cast<uint32_t>(entries.size());
    }
  });
  return KnnGraph(num_users_, k_, std::move(edges), std::move(counts));
}

}  // namespace gf
