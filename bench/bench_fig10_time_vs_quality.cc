// Figure 10: execution time vs KNN quality as the SHF size sweeps
// 64..8192 bits, for Brute Force and Hyrec on ml10M. Paper shape:
// Brute Force time grows monotonically with b while quality rises;
// Hyrec's time is non-monotone — it first *decreases* from 64 to
// ~1024 bits (shorter SHFs distort the similarity topology and slow
// convergence) before growing again with the per-similarity cost.
//
// Each time is the median of kBuilds builds, because one build's time
// drifts by more than the gaps between neighboring widths. The graphs
// are deterministic, so quality, iterations and scan rate come from the
// first build.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "knn/builder.h"
#include "knn/quality.h"
#include "util/bench_env.h"

namespace {

constexpr std::size_t kBuilds = 3;

}  // namespace

int main() {
  gf::bench::PrintHeader(
      "Figure 10: time vs quality as a function of SHF size "
      "(BruteForce and Hyrec, ml10M)",
      "paper shape: BF time monotone in b; Hyrec time dips around "
      "512-1024 bits then grows; quality rises with b for both");

  const auto bench =
      gf::bench::LoadBenchDataset(gf::PaperDataset::kMovieLens10M);
  const auto& d = bench.dataset;

  // Exact reference graph (built once).
  gf::KnnPipelineConfig exact_config;
  exact_config.algorithm = gf::KnnAlgorithm::kBruteForce;
  exact_config.mode = gf::SimilarityMode::kNative;
  exact_config.greedy.k = 30;
  auto exact = gf::BuildKnnGraph(d, exact_config);
  if (!exact.ok()) return 1;
  const double exact_avg = gf::AverageExactSimilarity(exact->graph, d);
  std::printf("# native BruteForce reference: %.2fs\n",
              exact->stats.seconds);

  for (const auto algo :
       {gf::KnnAlgorithm::kBruteForce, gf::KnnAlgorithm::kHyrec}) {
    std::printf("\n## %s + GoldFinger\n",
                std::string(gf::KnnAlgorithmName(algo)).c_str());
    std::printf("%-8s %10s %10s %8s %10s\n", "bits", "median(s)", "quality",
                "iters", "scanrate");
    for (std::size_t bits : {64, 128, 256, 512, 1024, 2048, 4096, 8192}) {
      gf::KnnPipelineConfig config;
      config.algorithm = algo;
      config.mode = gf::SimilarityMode::kGoldFinger;
      config.greedy.k = 30;
      config.fingerprint.num_bits = bits;
      auto r = gf::BuildKnnGraph(d, config);
      if (!r.ok()) return 1;
      std::vector<double> seconds = {r->stats.seconds};
      while (seconds.size() < kBuilds) {
        const auto again = gf::BuildKnnGraph(d, config);
        if (!again.ok()) return 1;
        seconds.push_back(again->stats.seconds);
      }
      std::sort(seconds.begin(), seconds.end());
      const double q = gf::GraphQuality(
          gf::AverageExactSimilarity(r->graph, d), exact_avg);
      std::printf("%-8zu %10.3f %10.3f %8zu %10.3f\n", bits,
                  seconds[seconds.size() / 2], q, r->stats.iterations,
                  r->stats.ScanRate(d.NumUsers()));
      std::fflush(stdout);
    }
  }
  return 0;
}
