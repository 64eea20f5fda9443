#include "util/bench_env.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <utility>

namespace gf::bench {

SyntheticSpec MicroBenchSpec(const std::string& name, std::size_t num_users,
                             std::size_t num_items, double mean_profile_size,
                             uint64_t seed) {
  SyntheticSpec spec;
  spec.name = name;
  spec.num_users = num_users;
  spec.num_items = std::max<std::size_t>(
      2000, num_items != 0 ? num_items : num_users / 10);
  if (mean_profile_size > 0) spec.mean_profile_size = mean_profile_size;
  spec.seed = seed;
  return spec;
}

Dataset GenerateZipfOrDie(const SyntheticSpec& spec) {
  auto dataset = GenerateZipfDataset(spec);
  if (!dataset.ok()) {
    std::fprintf(stderr, "FATAL: generating %s failed: %s\n",
                 spec.name.c_str(), dataset.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(dataset).value();
}

ZipfQuerySampler::ZipfQuerySampler(std::size_t n, double s, uint64_t seed)
    : zipf_(n, s), rng_(seed), targets_(n) {
  std::iota(targets_.begin(), targets_.end(), std::size_t{0});
  // Fisher-Yates on the seeded rng: rank r lands on a stable but
  // arbitrary target.
  for (std::size_t i = n; i > 1; --i) {
    std::swap(targets_[i - 1], targets_[rng_.Below(i)]);
  }
}

std::size_t ZipfQuerySampler::Next() {
  return targets_[zipf_.Sample(rng_)];
}

double DefaultScale(PaperDataset d) {
  switch (d) {
    case PaperDataset::kMovieLens1M: return 0.60;   // ~3.6k users
    case PaperDataset::kMovieLens10M: return 0.06;  // ~4.2k users
    case PaperDataset::kMovieLens20M: return 0.03;  // ~4.2k users
    case PaperDataset::kAmazonMovies: return 0.07;  // ~4.0k users
    case PaperDataset::kDblp: return 0.20;          // ~3.8k users
    case PaperDataset::kGowalla: return 0.20;       // ~4.1k users
  }
  return 0.1;
}

double ScaleMultiplier() {
  if (const char* full = std::getenv("GF_BENCH_FULL");
      full != nullptr && full[0] == '1') {
    return -1.0;  // sentinel: full scale
  }
  const char* s = std::getenv("GF_BENCH_SCALE");
  if (s == nullptr || s[0] == '\0') return 1.0;
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (*end != '\0' || !std::isfinite(v) || v <= 0) {
    std::fprintf(stderr,
                 "FATAL: GF_BENCH_SCALE=%s is not a positive number "
                 "(use GF_BENCH_FULL=1 for the paper's full size)\n",
                 s);
    std::exit(1);
  }
  return v;
}

std::vector<PaperDataset> SelectedDatasets() {
  const char* env = std::getenv("GF_DATASETS");
  if (env == nullptr || env[0] == '\0') return AllPaperDatasets();
  std::vector<PaperDataset> out;
  std::string spec(env);
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t next = spec.find(',', pos);
    if (next == std::string::npos) next = spec.size();
    const std::string token = spec.substr(pos, next - pos);
    for (PaperDataset d : AllPaperDatasets()) {
      if (token == PaperDatasetName(d)) out.push_back(d);
    }
    pos = next + 1;
  }
  return out.empty() ? AllPaperDatasets() : out;
}

BenchDataset LoadBenchDataset(PaperDataset d, uint64_t seed) {
  const double mult = ScaleMultiplier();
  const double scale = mult < 0 ? 1.0 : DefaultScale(d) * mult;
  auto dataset = GeneratePaperDataset(d, scale, seed);
  if (!dataset.ok()) {
    std::fprintf(stderr, "FATAL: generating %s failed: %s\n",
                 PaperDatasetName(d).c_str(),
                 dataset.status().ToString().c_str());
    std::exit(1);
  }
  return BenchDataset{d, PaperDatasetName(d), scale,
                      std::move(dataset).value()};
}

BenchDataset LoadBenchDatasetFullItems(PaperDataset d, uint64_t seed) {
  const double mult = ScaleMultiplier();
  const double scale = mult < 0 ? 1.0 : DefaultScale(d) * mult;
  SyntheticSpec spec = PaperSpec(d, scale);
  const SyntheticSpec full = PaperSpec(d, 1.0);
  spec.num_items = full.num_items;  // restore the full item universe
  spec.num_communities = full.num_communities;
  spec.seed = SplitMix64(spec.seed ^ seed);
  return BenchDataset{d, PaperDatasetName(d), scale, GenerateZipfOrDie(spec)};
}

std::vector<BenchDataset> LoadBenchDatasetsFullItems(uint64_t seed) {
  std::vector<BenchDataset> out;
  for (PaperDataset d : SelectedDatasets()) {
    out.push_back(LoadBenchDatasetFullItems(d, seed));
    const auto& b = out.back();
    std::printf(
        "# generated %-6s user-scale=%.3f users=%zu items=%zu (full) "
        "entries=%zu\n",
        b.name.c_str(), b.scale, b.dataset.NumUsers(),
        b.dataset.NumItems(), b.dataset.NumEntries());
  }
  std::fflush(stdout);
  return out;
}

std::vector<BenchDataset> LoadBenchDatasets(uint64_t seed) {
  std::vector<BenchDataset> out;
  for (PaperDataset d : SelectedDatasets()) {
    out.push_back(LoadBenchDataset(d, seed));
    const auto& b = out.back();
    std::printf("# generated %-6s scale=%.3f users=%zu items=%zu entries=%zu\n",
                b.name.c_str(), b.scale, b.dataset.NumUsers(),
                b.dataset.NumItems(), b.dataset.NumEntries());
  }
  std::fflush(stdout);
  return out;
}

void PrintHeader(const std::string& experiment, const std::string& summary) {
  std::printf("\n==================================================================\n");
  std::printf("== %s\n", experiment.c_str());
  std::printf("== %s\n", summary.c_str());
  std::printf("==================================================================\n");
  std::fflush(stdout);
}

}  // namespace gf::bench
