// Ablation: the band width of the banded SHF query index. Sweeps
// BandedShfQueryEngine::Options::band_bits over {8, 16, 32, 64} and
// reports the recall@k / qps trade-off per band width against the
// exhaustive ScanQueryEngine ground truth, emitting
// BENCH_band_sweep.json (GF_BENCH_OUT overrides) — the tuning table
// for picking band_bits.
//
// The store defaults to synthetic fingerprints but accepts a real
// dataset: `--ratings <path> --format dat|csv|amazon|edges` (or the
// GF_QUERY_RATINGS / GF_QUERY_FORMAT env pair) loads the file through
// the gf_dataset parsers, binarizes at the paper's threshold, and
// fingerprints it at GF_QUERY_BITS — so the table can be produced for
// MovieLens / AmazonMovies / DBLP / Gowalla, not just the synthetic
// density regime.
//
// Environment knobs (all optional):
//   GF_QUERY_USERS    synthetic store size  (default 100000)
//   GF_QUERY_BITS     fingerprint bits      (default 1024)
//   GF_QUERY_BATCH    queries per batch     (default 1024)
//   GF_QUERY_K        neighbors per query   (default 10)
//   GF_QUERY_RATINGS  real-dataset path     (default: synthetic)
//   GF_QUERY_FORMAT   dat|csv|amazon|edges  (default dat)

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/bit_util.h"
#include "common/random.h"
#include "common/timer.h"
#include "core/fingerprint_store.h"
#include "dataset/loader.h"
#include "knn/query.h"
#include "obs/metrics.h"
#include "util/bench_env.h"
#include "util/bench_report.h"

namespace {

std::size_t EnvSize(const char* name, std::size_t fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || env[0] == '\0') return fallback;
  const long value = std::atol(env);
  return value > 0 ? static_cast<std::size_t>(value) : fallback;
}

// A store of random fingerprints at ~1/4 bit density — the cardinality
// regime of real profiles fingerprinted into b bits (Table 2 scale).
gf::FingerprintStore MakeStore(std::size_t users, std::size_t bits,
                               gf::Rng& rng) {
  const std::size_t words_per_shf = gf::bits::WordsForBits(bits);
  std::vector<uint64_t> words(users * words_per_shf);
  for (auto& word : words) word = rng.Next() & rng.Next();
  std::vector<uint32_t> cards(users);
  for (std::size_t u = 0; u < users; ++u) {
    cards[u] = gf::bits::PopCount(
        {words.data() + u * words_per_shf, words_per_shf});
  }
  gf::FingerprintConfig config;
  config.num_bits = bits;
  auto store = gf::FingerprintStore::FromRaw(config, users, std::move(words),
                                             std::move(cards));
  if (!store.ok()) {
    std::fprintf(stderr, "store: %s\n", store.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(store).value();
}

// Real-data path: load + binarize + fingerprint at `bits`. Exits on
// failure — a named dataset that doesn't parse is a setup error, not a
// fall-back-to-synthetic situation.
gf::FingerprintStore LoadStore(const std::string& path,
                               const std::string& format, std::size_t bits) {
  gf::LoaderOptions options;
  gf::Result<gf::RatingDataset> raw = gf::Status::InvalidArgument(
      "unknown --format '" + format + "' (dat|csv|amazon|edges)");
  if (format == "dat") raw = gf::LoadMovieLensDat(path, options);
  if (format == "csv") raw = gf::LoadMovieLensCsv(path, options);
  if (format == "amazon") raw = gf::LoadAmazonRatings(path, options);
  if (format == "edges") raw = gf::LoadEdgeList(path, options);
  if (!raw.ok()) {
    std::fprintf(stderr, "load: %s\n", raw.status().ToString().c_str());
    std::exit(1);
  }
  auto dataset = raw->Binarize();
  if (!dataset.ok()) {
    std::fprintf(stderr, "binarize: %s\n",
                 dataset.status().ToString().c_str());
    std::exit(1);
  }
  gf::FingerprintConfig config;
  config.num_bits = bits;
  auto store = gf::FingerprintStore::Build(*dataset, config);
  if (!store.ok()) {
    std::fprintf(stderr, "store: %s\n", store.status().ToString().c_str());
    std::exit(1);
  }
  std::printf("dataset: %s (%s): %zu users, %zu items -> %zu-bit store\n",
              path.c_str(), format.c_str(), dataset->NumUsers(),
              dataset->NumItems(), bits);
  return std::move(store).value();
}

// Fraction of the exhaustive top-k the banded engine recovered,
// averaged over the batch (id-set overlap; ties make id order the only
// fair comparison).
double RecallAtK(const std::vector<std::vector<gf::Neighbor>>& truth,
                 const std::vector<std::vector<gf::Neighbor>>& got) {
  double total = 0.0;
  std::size_t counted = 0;
  for (std::size_t q = 0; q < truth.size(); ++q) {
    if (truth[q].empty()) continue;
    std::size_t hits = 0;
    for (const gf::Neighbor& t : truth[q]) {
      for (const gf::Neighbor& g : got[q]) {
        if (g.id == t.id) {
          ++hits;
          break;
        }
      }
    }
    total += static_cast<double>(hits) / static_cast<double>(truth[q].size());
    ++counted;
  }
  return counted > 0 ? total / static_cast<double>(counted) : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t users = EnvSize("GF_QUERY_USERS", 100000);
  const std::size_t bits = EnvSize("GF_QUERY_BITS", 1024);
  const std::size_t batch = EnvSize("GF_QUERY_BATCH", 1024);
  const std::size_t k = EnvSize("GF_QUERY_K", 10);

  const char* ratings_env = std::getenv("GF_QUERY_RATINGS");
  const char* format_env = std::getenv("GF_QUERY_FORMAT");
  std::string ratings = ratings_env != nullptr ? ratings_env : "";
  std::string format = format_env != nullptr && format_env[0] != '\0'
                           ? format_env
                           : "dat";
  for (int i = 1; i < argc; ++i) {
    const std::string arg(argv[i]);
    if (arg == "--ratings" && i + 1 < argc) ratings = argv[++i];
    if (arg == "--format" && i + 1 < argc) format = argv[++i];
  }

  gf::Rng rng(2026);
  const gf::FingerprintStore store =
      ratings.empty() ? MakeStore(users, bits, rng)
                      : LoadStore(ratings, format, bits);
  std::vector<gf::Shf> queries;
  queries.reserve(batch);
  for (std::size_t q = 0; q < batch; ++q) {
    queries.push_back(store.Extract(
        static_cast<gf::UserId>(rng.Below(store.num_users()))));
  }

  gf::bench::PrintHeader(
      "Banded SHF tuning: recall@k vs qps per band width",
      "smaller band_bits = more, easier-to-match bands = higher recall "
      "and more rescore work; pick the knee");

  // Ground truth from the exhaustive scan, timed as the qps reference.
  gf::ScanQueryEngine scan(store);
  gf::WallTimer scan_timer;
  auto truth = scan.QueryBatch(queries, k);
  if (!truth.ok()) std::abort();
  const double scan_qps =
      static_cast<double>(queries.size()) / scan_timer.ElapsedSeconds();

  gf::bench::BenchReport report("band_sweep", "BENCH_band_sweep.json");
  std::printf("%-12s %10s %14s %12s %14s\n", "band_bits", "bands",
              "queries/s", "recall@k", "vs scan qps");
  for (const std::size_t band_bits : {8, 16, 32, 64}) {
    gf::obs::MetricRegistry registry;
    gf::obs::PipelineContext obs{.metrics = &registry};
    gf::BandedShfQueryEngine::Options options;
    options.band_bits = band_bits;
    auto engine =
        gf::BandedShfQueryEngine::Build(store, options, nullptr, &obs);
    if (!engine.ok()) std::abort();
    gf::WallTimer timer;
    auto result = engine->QueryBatch(queries, k);
    if (!result.ok()) std::abort();
    const double qps =
        static_cast<double>(queries.size()) / timer.ElapsedSeconds();
    const double recall = RecallAtK(*truth, *result);
    registry.GetGauge("query.band_bits")
        ->Set(static_cast<double>(band_bits));
    registry.GetGauge("query.qps")->Set(qps);
    registry.GetGauge("query.recall_at_k")->Set(recall);
    registry.GetGauge("query.speedup_vs_scan")->Set(qps / scan_qps);
    std::printf("%-12zu %10zu %14.0f %12.3f %13.1fx\n", band_bits,
                engine->num_bands(), qps, recall, qps / scan_qps);
    report.AddRun("band_" + std::to_string(band_bits), registry);
  }
  report.Write();
  std::printf("\nrecall@k is the id-set overlap with the exhaustive scan\n"
              "top-k, averaged over the batch. report: %s\n",
              report.path().c_str());
  return 0;
}
