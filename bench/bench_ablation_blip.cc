// Extension bench: differential privacy via BLIP-style bit flipping
// (paper §2.5: DP "can be easily obtained by inserting random noise to
// the SHF [2]"). Sweeps the privacy budget ε and measures the KNN
// quality of a brute-force graph built on the noisy fingerprints with
// the noise-corrected estimator. Expectation: quality degrades
// gracefully as ε shrinks (more privacy), approaching plain GoldFinger
// as ε grows.

#include <cstdio>

#include "core/blip.h"
#include "knn/brute_force.h"
#include "knn/quality.h"
#include "knn/similarity_provider.h"
#include "util/bench_env.h"

int main() {
  gf::bench::PrintHeader(
      "Extension: BLIP differential privacy — KNN quality vs epsilon",
      "flip probability p = 1/(1+e^eps); corrected estimator; quality "
      "-> plain GoldFinger as eps grows");

  const auto bench =
      gf::bench::LoadBenchDataset(gf::PaperDataset::kMovieLens1M);
  const auto& d = bench.dataset;
  constexpr std::size_t kK = 30;

  gf::ExactJaccardProvider exact_provider(d);
  const gf::KnnGraph exact = gf::BruteForceKnn(exact_provider, kK).value();
  const double exact_avg = gf::AverageExactSimilarity(exact, d);

  gf::FingerprintConfig fp_config;  // 1024 bits
  auto store = gf::FingerprintStore::Build(d, fp_config);
  if (!store.ok()) return 1;
  gf::GoldFingerProvider plain_provider(*store);
  const gf::KnnGraph plain = gf::BruteForceKnn(plain_provider, kK).value();
  const double plain_q =
      gf::GraphQuality(gf::AverageExactSimilarity(plain, d), exact_avg);
  std::printf("\n# plain GoldFinger (no noise): quality %.3f\n", plain_q);

  std::printf("\n%-8s %12s %12s\n", "epsilon", "flip prob", "quality");
  for (double eps : {0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0}) {
    gf::BlipConfig config;
    config.epsilon = eps;
    auto blip = gf::BlipStore::Build(*store, config);
    if (!blip.ok()) return 1;
    gf::BlipProvider provider(*blip);
    const gf::KnnGraph g = gf::BruteForceKnn(provider, kK).value();
    const double q =
        gf::GraphQuality(gf::AverageExactSimilarity(g, d), exact_avg);
    std::printf("%-8.1f %12.4f %12.3f\n", eps,
                gf::BlipFlipProbability(eps), q);
    std::fflush(stdout);
  }
  return 0;
}
