// KNN queries for external visitors — the paper's footnote 1
// distinguishes computing the complete KNN graph from answering KNN
// *queries*; a deployed service needs both. This example simulates a
// burst of anonymous visitors who each rated a handful of items: every
// visitor ships only a 1024-bit SHF (the privacy story of §2.5 applies
// to queries too), and the service answers the whole burst two ways —
// (a) a sequential per-pair scan (the reference) and (b) the batched,
// SIMD-tiled, multi-threaded QueryBatch scan, which returns
// bit-identical neighbors. Finally the first visitor gets item
// recommendations pooled from their neighbors' profiles.
//
// Run:  ./visitor_query

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <vector>

#include "common/thread_pool.h"
#include "common/timer.h"
#include "dataset/synthetic.h"
#include "knn/query.h"

int main() {
  auto dataset = gf::GeneratePaperDataset(gf::PaperDataset::kMovieLens1M,
                                          0.4);
  if (!dataset.ok()) return 1;
  std::printf("catalog: %zu registered users, %zu items\n\n",
              dataset->NumUsers(), dataset->NumItems());

  // The service's store (built once) and its serving thread pool.
  gf::ThreadPool pool(4);
  gf::FingerprintConfig config;  // 1024-bit SHFs
  auto store = gf::FingerprintStore::Build(*dataset, config, &pool);
  if (!store.ok()) return 1;
  gf::ScanQueryEngine scan(*store, &pool);

  // A burst of 64 visitors. Visitor i liked 12 items sampled from user
  // 5i's taste (so we know what "good" neighbors look like), and
  // fingerprints them on-device: only the SHFs cross the wire.
  auto fp = gf::Fingerprinter::Create(store->config());
  if (!fp.ok()) return 1;
  std::vector<std::vector<gf::ItemId>> profiles;
  std::vector<gf::Shf> batch;
  for (gf::UserId u = 0; u < 64; ++u) {
    const auto base = dataset->Profile(5 * u);
    profiles.emplace_back(
        base.begin(),
        base.begin() + std::min<std::ptrdiff_t>(12, base.size()));
    batch.push_back(fp->Fingerprint(profiles.back()));
  }
  std::printf("%zu visitors, 12 rated items each\n", batch.size());

  // (a) Reference: one sequential per-pair scan per visitor.
  gf::WallTimer seq_timer;
  std::vector<std::vector<gf::Neighbor>> seq_hits;
  for (const auto& query : batch) {
    auto hits = scan.Query(query, 10);
    if (!hits.ok()) return 1;
    seq_hits.push_back(*std::move(hits));
  }
  const double seq_ms = seq_timer.ElapsedMillis();

  // (b) The serving path: the whole burst in one tiled pass.
  gf::WallTimer batch_timer;
  auto batch_hits = scan.QueryBatch(batch, 10);
  const double batch_ms = batch_timer.ElapsedMillis();
  if (!batch_hits.ok()) return 1;

  bool exact = true;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto& a = (*batch_hits)[i];
    const auto& b = seq_hits[i];
    if (a.size() != b.size()) exact = false;
    for (std::size_t j = 0; exact && j < a.size(); ++j) {
      exact = a[j].id == b[j].id && a[j].similarity == b[j].similarity;
    }
  }
  std::printf("sequential scan   %7.2f ms for the burst\n", seq_ms);
  std::printf("QueryBatch        %7.2f ms  (%.1fx, bit-exact: %s)\n",
              batch_ms, seq_ms / batch_ms, exact ? "yes" : "NO");

  // Recommend for visitor 0 by pooling their scan neighbors' items.
  const auto& visitor = profiles[0];
  std::unordered_map<gf::ItemId, double> scores;
  for (const auto& nb : (*batch_hits)[0]) {
    for (gf::ItemId item : dataset->Profile(nb.id)) {
      if (std::binary_search(visitor.begin(), visitor.end(), item)) continue;
      scores[item] += nb.similarity;
    }
  }
  std::vector<std::pair<double, gf::ItemId>> ranked;
  for (const auto& [item, score] : scores) ranked.push_back({score, item});
  std::sort(ranked.rbegin(), ranked.rend());
  std::printf("\ntop items for visitor 0:");
  for (std::size_t i = 0; i < std::min<std::size_t>(8, ranked.size()); ++i) {
    std::printf("  %u", ranked[i].second);
  }
  std::printf("\n\n(no visitor's clear-text ratings ever left the "
              "device — only 1024-bit fingerprints)\n");
  return 0;
}
