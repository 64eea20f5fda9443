// Extension bench: GoldFinger vs the related-work compaction and
// candidate-pruning baselines the paper discusses in §6 —
//  * KIFF (bipartite candidate generation; great on sparse data,
//    degenerates on dense data),
//  * least-popular profile sampling ([30]; "interesting but lower
//    speedup than GoldFinger"),
// all against native and GoldFinger brute force, on a dense dataset
// (ml1M) and a sparse one (DBLP). The coverage column is the fraction
// of the n*k possible edges actually produced: Eq. 3's quality only
// averages over edges present, so a sparse graph can report quality
// above 1 while leaving most users under-served (banded LSH on DBLP).

#include <cstdio>

#include "dataset/profile_sampling.h"
#include "knn/banded_lsh.h"
#include "knn/bisection.h"
#include "knn/brute_force.h"
#include "knn/kiff.h"
#include "knn/quality.h"
#include "knn/similarity_provider.h"
#include "util/bench_env.h"

namespace {

void RunOn(const gf::bench::BenchDataset& bench) {
  const auto& d = bench.dataset;
  constexpr std::size_t kK = 30;
  std::printf("\n### %s (users=%zu, items=%zu, |Pu|=%.1f)\n",
              bench.name.c_str(), d.NumUsers(), d.NumItems(),
              d.MeanProfileSize());
  std::printf("%-26s %10s %10s %14s %10s\n", "approach", "time(s)",
              "quality", "sims (1e6)", "coverage");
  const double full_edges = static_cast<double>(d.NumUsers()) * kK;

  gf::ExactJaccardProvider exact_provider(d);
  gf::KnnBuildStats stats;
  const gf::KnnGraph exact =
      gf::BruteForceKnn(exact_provider, kK, nullptr, &stats).value();
  const double exact_avg = gf::AverageExactSimilarity(exact, d);
  std::printf("%-26s %10.2f %10.3f %14.2f %9.1f%%\n", "BruteForce native",
              stats.seconds, 1.0, stats.similarity_computations / 1e6,
              100.0 * static_cast<double>(exact.NumEdges()) / full_edges);

  gf::FingerprintConfig fp_config;
  auto store = gf::FingerprintStore::Build(d, fp_config);
  gf::GoldFingerProvider gf_provider(*store);
  const gf::KnnGraph golfi =
      gf::BruteForceKnn(gf_provider, kK, nullptr, &stats).value();
  std::printf("%-26s %10.2f %10.3f %14.2f %9.1f%%\n",
              "BruteForce GoldFinger", stats.seconds,
              gf::GraphQuality(gf::AverageExactSimilarity(golfi, d),
                               exact_avg),
              stats.similarity_computations / 1e6,
              100.0 * static_cast<double>(golfi.NumEdges()) / full_edges);

  gf::KiffConfig kiff_config;
  kiff_config.k = kK;
  const gf::KnnGraph kiff = gf::KiffKnn(d, kiff_config, nullptr, &stats);
  std::printf("%-26s %10.2f %10.3f %14.2f %9.1f%%\n", "KIFF (counting)",
              stats.seconds,
              gf::GraphQuality(gf::AverageExactSimilarity(kiff, d),
                               exact_avg),
              stats.similarity_computations / 1e6,
              100.0 * static_cast<double>(kiff.NumEdges()) / full_edges);

  gf::BandedLshConfig banded_config;
  banded_config.k = kK;
  const gf::KnnGraph banded = gf::BandedLshKnn(
      d, exact_provider, banded_config, nullptr, &stats);
  std::printf("%-26s %10.2f %10.3f %14.2f %9.1f%%\n", "banded LSH (8x2)",
              stats.seconds,
              gf::GraphQuality(gf::AverageExactSimilarity(banded, d),
                               exact_avg),
              stats.similarity_computations / 1e6,
              100.0 * static_cast<double>(banded.NumEdges()) / full_edges);

  gf::BisectionConfig bisect_config;
  bisect_config.k = kK;
  bisect_config.leaf_size = d.NumUsers() / 8 + 32;
  const gf::KnnGraph bisect =
      gf::RecursiveBisectionKnn(exact_provider, bisect_config, &stats);
  std::printf("%-26s %10.2f %10.3f %14.2f %9.1f%%\n", "recursive bisection",
              stats.seconds,
              gf::GraphQuality(gf::AverageExactSimilarity(bisect, d),
                               exact_avg),
              stats.similarity_computations / 1e6,
              100.0 * static_cast<double>(bisect.NumEdges()) / full_edges);

  // Least-popular sampling to the SHF-equivalent budget: 1024 bits of
  // SHF ~ the information of a few dozen items; the paper's [30] used
  // sample sizes around 25-50.
  for (std::size_t sample : {25u, 50u}) {
    auto sampled =
        gf::SampleProfiles(d, sample, gf::SamplingPolicy::kLeastPopular);
    if (!sampled.ok()) return;
    gf::ExactJaccardProvider sampled_provider(*sampled);
    const gf::KnnGraph g =
        gf::BruteForceKnn(sampled_provider, kK, nullptr, &stats).value();
    // Quality judged on the ORIGINAL profiles, as for GoldFinger.
    char label[64];
    std::snprintf(label, sizeof(label), "sampling(least-pop,%zu)", sample);
    std::printf("%-26s %10.2f %10.3f %14.2f %9.1f%%\n", label,
                stats.seconds,
                gf::GraphQuality(gf::AverageExactSimilarity(g, d),
                                 exact_avg),
                stats.similarity_computations / 1e6,
                100.0 * static_cast<double>(g.NumEdges()) / full_edges);
  }
  std::fflush(stdout);
}

}  // namespace

int main() {
  gf::bench::PrintHeader(
      "Extension: GoldFinger vs related-work baselines (KIFF, profile "
      "sampling) — §6",
      "expectations: KIFF exact-but-exhaustive on dense data, cheap on "
      "sparse; sampling trades quality for time less favourably than "
      "GoldFinger");
  RunOn(gf::bench::LoadBenchDataset(gf::PaperDataset::kMovieLens1M));
  RunOn(gf::bench::LoadBenchDataset(gf::PaperDataset::kDblp));
  return 0;
}
