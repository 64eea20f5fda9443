// Shared scaffolding for the per-table / per-figure benchmark harnesses:
// environment-variable scaling, the paper's six datasets at bench scale,
// and small table-printing helpers.
//
// Environment knobs (all optional):
//   GF_BENCH_SCALE   multiplier on every dataset's default bench scale
//                    (1.0 default; set with care — the paper's full
//                    ml20M Table-4 run took hours on 8 cores). Anything
//                    but a positive number exits with a message.
//   GF_BENCH_FULL=1  shorthand: run every dataset at the paper's full
//                    user/item counts (overrides GF_BENCH_SCALE).
//   GF_DATASETS      comma-separated subset of ml1M,ml10M,ml20M,AM,DBLP,GW.

#ifndef GF_BENCH_UTIL_BENCH_ENV_H_
#define GF_BENCH_UTIL_BENCH_ENV_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "dataset/dataset.h"
#include "dataset/synthetic.h"

namespace gf::bench {

/// One dataset selected for a bench run.
struct BenchDataset {
  PaperDataset id;
  std::string name;
  double scale = 1.0;  // applied scale (1.0 = paper dimensions)
  Dataset dataset;
};

/// Default bench scale per dataset: chosen so each dataset lands at
/// roughly 3-6k users, giving minute-scale (not hour-scale) Table-4 runs
/// on one core while preserving every qualitative effect.
double DefaultScale(PaperDataset d);

/// Reads GF_BENCH_SCALE / GF_BENCH_FULL: -1 for full scale, else the
/// multiplier. Exits with status 1 when GF_BENCH_SCALE holds anything
/// but a positive number (an empty value counts as unset).
double ScaleMultiplier();

/// Resolves GF_DATASETS (default: all six).
std::vector<PaperDataset> SelectedDatasets();

/// Generates the selected datasets at bench scale. Prints one line per
/// dataset as it generates.
std::vector<BenchDataset> LoadBenchDatasets(uint64_t seed = 42);

/// Generates one dataset at bench scale.
BenchDataset LoadBenchDataset(PaperDataset d, uint64_t seed = 42);

/// Generates a dataset with the user count at bench scale but the item
/// universe at the paper's FULL size. Used by experiments whose effect
/// depends on |I| (Table 3's O(|I|) permutation cost, Figure 11's
/// similarity distribution).
BenchDataset LoadBenchDatasetFullItems(PaperDataset d, uint64_t seed = 42);

/// Same, for every selected dataset.
std::vector<BenchDataset> LoadBenchDatasetsFullItems(uint64_t seed = 42);

/// The spec the micro harnesses (cluster-conquer, cold start, serving
/// cache) share: `num_users` users over an item universe of
/// max(2000, `num_items`) — pass 0 for the usual num_users/10 — with
/// `mean_profile_size` <= 0 keeping the SyntheticSpec default. One
/// seed (2026) everywhere so "the 100k-user config" names one dataset.
SyntheticSpec MicroBenchSpec(const std::string& name, std::size_t num_users,
                             std::size_t num_items = 0,
                             double mean_profile_size = 0.0,
                             uint64_t seed = 2026);

/// GenerateZipfDataset or exit(1) with a message — the shared error
/// path of every harness (a bench has no recovery story for a bad
/// spec).
Dataset GenerateZipfOrDie(const SyntheticSpec& spec);

/// Seeded Zipf query-arrival sampler: Next() draws a target in
/// [0, n) with rank popularity ~ 1/rank^s. A seeded shuffle maps rank
/// to target so arrival skew is independent of id order (id 0 is not
/// automatically the hottest query). Deterministic for a (n, s, seed)
/// triple; not thread-safe (one sampler per driving thread).
class ZipfQuerySampler {
 public:
  ZipfQuerySampler(std::size_t n, double s, uint64_t seed);

  std::size_t Next();
  std::size_t size() const { return targets_.size(); }

 private:
  ZipfSampler zipf_;
  Rng rng_;
  std::vector<std::size_t> targets_;  // rank -> target
};

/// Prints a "== Table N: title ==" header plus the paper-reference
/// blurb so every bench output is self-describing.
void PrintHeader(const std::string& experiment, const std::string& summary);

}  // namespace gf::bench

#endif  // GF_BENCH_UTIL_BENCH_ENV_H_
