// Kernel microbenchmark: throughput of the Eq. 4 AND+popcount hot path
// in its three shapes — per-pair (bits::AndPopCount, dispatched at run
// time: vpopcntq or POPCNT where the CPU has them), batched scalar (the
// portable loop, a libgcc call per word), and batched SIMD (the
// runtime-dispatched backend) — at b in {64, 128, 1024, 4096}, for both the
// contiguous-tile layout (the serving scan's kernel, with one query and
// with the 16 of a batch) and the gathered-id layout (every KNN
// construction's candidate batches). The headline number is the
// batched-SIMD vs per-pair speedup at b = 1024.
//
// A roofline table follows: every backend this machine runs (scalar,
// avx2, avx512) in each shape, as ns per pair and as bytes of
// fingerprint rows read per second, next to what memchr reads over the
// same rows. A multi-query pass reads each row once per 16 queries, so
// its bytes per pair are a sixteenth of a row. A kernel far below the
// memchr rate is compute-bound. DESIGN.md §8 records the table. Emits a
// BENCH_kernel_popcount.json report (GF_BENCH_OUT overrides).

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/bit_util.h"
#include "common/random.h"
#include "common/simd_popcount.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "util/bench_env.h"
#include "util/bench_report.h"

namespace {

using gf::Rng;
using gf::WallTimer;

constexpr std::size_t kRows = 4096;  // candidate fingerprints per pass

struct Workload {
  std::size_t words = 0;
  std::vector<uint64_t> query;
  std::vector<uint64_t> rows;      // kRows x words, row-major
  std::vector<uint32_t> gather;    // shuffled id list over the rows
};

Workload MakeWorkload(std::size_t bits, Rng& rng) {
  Workload w;
  w.words = gf::bits::WordsForBits(bits);
  w.query.resize(w.words);
  w.rows.resize(kRows * w.words);
  for (auto& word : w.query) word = rng.Next();
  for (auto& word : w.rows) word = rng.Next();
  w.gather.resize(kRows);
  for (std::size_t i = 0; i < kRows; ++i) {
    w.gather[i] = static_cast<uint32_t>(i);
  }
  rng.Shuffle(w.gather);
  return w;
}

// Runs `fn` (one full pass over kRows candidates, returning a checksum)
// until ~0.2 s elapsed; returns mean ns per candidate pair.
template <typename Fn>
double MeasureNsPerPair(Fn&& fn) {
  uint64_t sink = 0;
  std::size_t passes = 0;
  WallTimer timer;
  do {
    sink += fn();
    ++passes;
  } while (timer.ElapsedSeconds() < 0.2);
  const double ns = timer.ElapsedNanos() /
                    (static_cast<double>(passes) * static_cast<double>(kRows));
  if (sink == 0x13) std::printf("?");  // defeat dead-code elimination
  return ns;
}

// One backend's two kernels, called directly (not through dispatch).
struct Backend {
  const char* name;
  void (*batch)(const uint64_t*, const uint64_t*, std::size_t,
                const uint32_t*, std::size_t, uint32_t*);
  void (*tile_multi)(const uint64_t*, std::size_t, const uint64_t*,
                     std::size_t, std::size_t, uint32_t*);
};

std::vector<Backend> PresentBackends() {
  namespace d = gf::bits::detail;
  std::vector<Backend> backends = {
      {"scalar", &d::AndPopCountBatchScalar, &d::AndPopCountTileMultiScalar}};
  if (gf::bits::Avx2Available()) {
    backends.push_back(
        {"avx2", &d::AndPopCountBatchAvx2, &d::AndPopCountTileMultiAvx2});
  }
  if (gf::bits::Avx512Available()) {
    backends.push_back({"avx512", &d::AndPopCountBatchAvx512,
                        &d::AndPopCountTileMultiAvx512});
  }
  return backends;
}

// Bytes per second when each pair reads `bytes_per_pair` bytes.
double BytesPerSecond(double bytes_per_pair, double ns_per_pair) {
  return bytes_per_pair / ns_per_pair * 1e9;
}

}  // namespace

int main() {
  gf::bench::PrintHeader(
      "Kernel: batched SIMD AND+popcount vs per-pair and scalar (Eq. 4)",
      "acceptance: batched SIMD >= 2x the scalar loop at b = 1024; "
      "all backends are bit-exact, only throughput differs");

  std::printf("dispatched backend: %s\n\n",
              gf::bits::PopcountBackendName(gf::bits::ActivePopcountBackend()));
  std::printf("%-8s %14s %14s %14s %14s %14s %10s\n", "b", "per-pair ns",
              "tile-scalar ns", "tile-simd ns", "gather-simd ns",
              "multi-tile ns", "speedup");

  gf::bench::BenchReport report("kernel_popcount",
                                "BENCH_kernel_popcount.json");

  // The multi-query tile kernel scores a group of queries per tile
  // pass; 16 matches kQueryGroup in ScanQueryEngine::ScanRows
  // (knn/query.cc).
  constexpr std::size_t kMultiQueries = 16;

  Rng rng(2026);
  std::vector<uint32_t> counts(kRows);
  std::vector<uint32_t> multi_counts(kMultiQueries * kRows);
  std::vector<std::string> roofline;
  for (const std::size_t bits : {64ul, 128ul, 1024ul, 4096ul}) {
    const Workload w = MakeWorkload(bits, rng);
    std::vector<uint64_t> queries(kMultiQueries * w.words);
    for (auto& word : queries) word = rng.Next();

    const double per_pair_ns = MeasureNsPerPair([&] {
      uint64_t sum = 0;
      for (std::size_t r = 0; r < kRows; ++r) {
        sum += gf::bits::AndPopCount(w.query.data(),
                                     w.rows.data() + r * w.words, w.words);
      }
      return sum;
    });

    const double tile_scalar_ns = MeasureNsPerPair([&] {
      gf::bits::detail::AndPopCountTileScalar(w.query.data(), w.rows.data(),
                                              kRows, w.words, counts.data());
      return static_cast<uint64_t>(counts[kRows - 1]);
    });

    const double tile_simd_ns = MeasureNsPerPair([&] {
      gf::bits::AndPopCountTileMulti(w.query.data(), 1, w.rows.data(), kRows,
                                     w.words, counts.data());
      return static_cast<uint64_t>(counts[kRows - 1]);
    });

    const double gather_simd_ns = MeasureNsPerPair([&] {
      gf::bits::AndPopCountBatch(w.query.data(), w.rows.data(), w.words,
                                 w.gather.data(), kRows, counts.data());
      return static_cast<uint64_t>(counts[kRows - 1]);
    });

    // One pass scores kMultiQueries x kRows pairs; MeasureNsPerPair
    // normalizes by kRows, so divide by the query count once more.
    const double multi_tile_ns =
        MeasureNsPerPair([&] {
          gf::bits::AndPopCountTileMulti(queries.data(), kMultiQueries,
                                         w.rows.data(), kRows, w.words,
                                         multi_counts.data());
          return static_cast<uint64_t>(multi_counts[kMultiQueries * kRows - 1]);
        }) /
        static_cast<double>(kMultiQueries);

    std::printf("%-8zu %14.2f %14.2f %14.2f %14.2f %14.2f %9.1fx\n", bits,
                per_pair_ns, tile_scalar_ns, tile_simd_ns, gather_simd_ns,
                multi_tile_ns, per_pair_ns / tile_simd_ns);

    gf::obs::MetricRegistry registry;
    registry.GetGauge("kernel.per_pair_ns")->Set(per_pair_ns);
    registry.GetGauge("kernel.tile_scalar_ns")->Set(tile_scalar_ns);
    registry.GetGauge("kernel.tile_simd_ns")->Set(tile_simd_ns);
    registry.GetGauge("kernel.gather_simd_ns")->Set(gather_simd_ns);
    registry.GetGauge("kernel.multi_tile_ns")->Set(multi_tile_ns);
    registry.GetGauge("kernel.speedup_vs_per_pair")
        ->Set(per_pair_ns / tile_simd_ns);

    // The roofline: memchr for a byte a zeroed copy of the rows never
    // holds reads every byte at the rate this cache level delivers.
    const std::size_t row_bytes = w.words * sizeof(uint64_t);
    std::vector<unsigned char> zeros(kRows * row_bytes, 0);
    const double read_ns = MeasureNsPerPair([&] {
      return static_cast<uint64_t>(
          std::memchr(zeros.data(), 1, zeros.size()) == nullptr);
    });
    const double read_bytes_per_s = BytesPerSecond(row_bytes, read_ns);
    registry.GetGauge("kernel.read_bytes_per_s")->Set(read_bytes_per_s);
    for (const Backend& backend : PresentBackends()) {
      const double tile_ns = MeasureNsPerPair([&] {
        backend.tile_multi(w.query.data(), 1, w.rows.data(), kRows, w.words,
                           counts.data());
        return static_cast<uint64_t>(counts[kRows - 1]);
      });
      const double gather_ns = MeasureNsPerPair([&] {
        backend.batch(w.query.data(), w.rows.data(), w.words,
                      w.gather.data(), kRows, counts.data());
        return static_cast<uint64_t>(counts[kRows - 1]);
      });
      const double multi_ns =
          MeasureNsPerPair([&] {
            backend.tile_multi(queries.data(), kMultiQueries, w.rows.data(),
                               kRows, w.words, multi_counts.data());
            return static_cast<uint64_t>(
                multi_counts[kMultiQueries * kRows - 1]);
          }) /
          static_cast<double>(kMultiQueries);
      const double multi_row_bytes =
          static_cast<double>(row_bytes) / static_cast<double>(kMultiQueries);
      char line[160];
      std::snprintf(line, sizeof(line),
                    "%-6zu %-8s %9.2f %9.2f %10.2f %9.2f %9.2f %9.2f %9.2f",
                    bits, backend.name, tile_ns,
                    BytesPerSecond(row_bytes, tile_ns) / 1e9, gather_ns,
                    BytesPerSecond(row_bytes, gather_ns) / 1e9, multi_ns,
                    BytesPerSecond(multi_row_bytes, multi_ns) / 1e9,
                    read_bytes_per_s / 1e9);
      roofline.emplace_back(line);
      std::string prefix = "kernel.";
      prefix.append(backend.name);
      registry.GetGauge(prefix + ".tile_ns")->Set(tile_ns);
      registry.GetGauge(prefix + ".tile_bytes_per_s")
          ->Set(BytesPerSecond(row_bytes, tile_ns));
      registry.GetGauge(prefix + ".gather_ns")->Set(gather_ns);
      registry.GetGauge(prefix + ".gather_bytes_per_s")
          ->Set(BytesPerSecond(row_bytes, gather_ns));
      registry.GetGauge(prefix + ".multi_ns")->Set(multi_ns);
      registry.GetGauge(prefix + ".multi_bytes_per_s")
          ->Set(BytesPerSecond(multi_row_bytes, multi_ns));
    }
    // string::append sidesteps GCC 12's bogus -Wrestrict on
    // `const char* + std::string&&` (PR105651).
    std::string label = "b";
    label.append(std::to_string(bits));
    report.AddRun(label, registry);
  }

  std::printf(
      "\nroofline: ns per pair and GB/s of fingerprint rows read (a\n"
      "multi-query pass reads a row once per %zu queries); memchr GB/s is\n"
      "a plain read of the same rows\n",
      kMultiQueries);
  std::printf("%-6s %-8s %9s %9s %10s %9s %9s %9s %9s\n", "b", "backend",
              "tile ns", "GB/s", "gather ns", "GB/s", "multi ns", "GB/s",
              "memchr");
  for (const std::string& line : roofline) std::printf("%s\n", line.c_str());

  report.Write();
  std::printf("report: %s\n", report.path().c_str());

  std::printf(
      "\nspeedup column = per-pair / batched SIMD tile; the KNN\n"
      "constructions score through the gather kernel (CountBatch),\n"
      "the serving scan through the tile kernel.\n");
  return 0;
}
