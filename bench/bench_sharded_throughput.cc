// Sharded query serving throughput: the single-store batched tile scan
// (ScanQueryEngine, 1 thread) vs the same engine scattering the batch
// over a first-touch sharded store's S pinned shard workers, plus one
// QueryService run pushing the same load through the async
// micro-batching front-end. The headline number is the sharded-vs-
// single-store qps speedup at 4+ shards (acceptance: >= 3x on a
// multi-core host), with every sharded result verified bit-identical
// to ScanQueryEngine::QueryBatch before it counts. Emits a
// BENCH_sharded.json report (GF_BENCH_OUT overrides).
//
// Environment knobs (all optional):
//   GF_SHARD_USERS   store size              (default 100000)
//   GF_SHARD_BITS    fingerprint bits        (default 1024)
//   GF_SHARD_BATCH   queries per batch       (default 512)
//   GF_SHARD_K       neighbors per query     (default 10)
//   GF_SHARD_MAX     largest shard count     (default 8)

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/bit_util.h"
#include "common/cpu_topology.h"
#include "common/random.h"
#include "common/timer.h"
#include "core/fingerprint_store.h"
#include "core/sharded_store.h"
#include "knn/query.h"
#include "knn/query_service.h"
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

// Bit-exact: same ids, same float similarities, same order, everywhere.
bool Identical(const std::vector<std::vector<gf::Neighbor>>& a,
               const std::vector<std::vector<gf::Neighbor>>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t q = 0; q < a.size(); ++q) {
    if (a[q].size() != b[q].size()) return false;
    for (std::size_t i = 0; i < a[q].size(); ++i) {
      if (a[q][i].id != b[q][i].id ||
          a[q][i].similarity != b[q][i].similarity) {
        return false;
      }
    }
  }
  return true;
}

// S shards placed by first touch: the engine then pins one worker per
// shard to the shard's NUMA cpu set.
std::shared_ptr<const gf::ShardedFingerprintStore> FirstTouchShards(
    const gf::FingerprintStore& store, std::size_t shards,
    const gf::obs::PipelineContext* obs) {
  gf::ShardedFingerprintStore::Options options;
  options.num_shards = shards;
  options.placement = gf::ShardedFingerprintStore::Placement::kFirstTouch;
  auto sharded = gf::ShardedFingerprintStore::Partition(store, options, obs);
  if (!sharded.ok()) std::abort();
  return std::make_shared<const gf::ShardedFingerprintStore>(
      std::move(sharded).value());
}

}  // namespace

int main() {
  const std::size_t users = EnvSize("GF_SHARD_USERS", 100000);
  const std::size_t bits = EnvSize("GF_SHARD_BITS", 1024);
  const std::size_t batch = EnvSize("GF_SHARD_BATCH", 512);
  const std::size_t k = EnvSize("GF_SHARD_K", 10);
  const std::size_t max_shards = EnvSize("GF_SHARD_MAX", 8);

  gf::bench::PrintHeader(
      "Sharded serving: scatter/merge over pinned shards vs one store",
      "acceptance: >= 3x batch qps at 4+ shards vs the single-store "
      "1-thread tile scan, results bit-identical");

  std::printf("store: %zu users x %zu bits, batch %zu, k %zu, %zu cpus, "
              "%zu numa node(s)\n\n",
              users, bits, batch, k, gf::NumCpus(),
              gf::NumaNodeCpuLists().size());

  gf::Rng rng(2026);
  const gf::FingerprintStore store = MakeStore(users, bits, rng);
  std::vector<gf::Shf> queries;
  queries.reserve(batch);
  for (std::size_t q = 0; q < batch; ++q) {
    queries.push_back(
        store.Extract(static_cast<gf::UserId>(rng.Below(users))));
  }

  gf::bench::BenchReport report("sharded_throughput", "BENCH_sharded.json");
  std::printf("%-16s %14s %14s %12s %10s\n", "mode", "wall ms", "queries/s",
              "speedup", "exact");

  // Single-store 1-thread baseline, and the ground truth every sharded
  // run must reproduce bit-for-bit.
  std::vector<std::vector<gf::Neighbor>> truth;
  double scan_qps = 0.0;
  {
    gf::obs::MetricRegistry registry;
    gf::obs::PipelineContext obs{.metrics = &registry};
    gf::ScanQueryEngine engine(store, nullptr, &obs);
    gf::WallTimer timer;
    auto result = engine.QueryBatch(queries, k);
    if (!result.ok()) std::abort();
    const double secs = timer.ElapsedSeconds();
    scan_qps = static_cast<double>(batch) / secs;
    truth = std::move(result).value();
    registry.GetGauge("query.qps")->Set(scan_qps);
    std::printf("%-16s %14.1f %14.0f %11s %10s\n", "scan_1t", secs * 1e3,
                scan_qps, "1.0x", "-");
    report.AddRun("scan_1t", registry);
  }

  bool all_exact = true;
  double speedup_at_4 = 0.0;
  for (std::size_t shards = 1; shards <= max_shards; shards *= 2) {
    gf::obs::MetricRegistry registry;
    gf::obs::PipelineContext obs{.metrics = &registry};
    const gf::ScanQueryEngine engine(FirstTouchShards(store, shards, &obs),
                                     nullptr, &obs);

    // Warm-up pass (thread creation, page faults), then the timed pass.
    if (!engine.QueryBatch(queries, k).ok()) std::abort();
    gf::WallTimer timer;
    auto result = engine.QueryBatch(queries, k);
    if (!result.ok()) std::abort();
    const double secs = timer.ElapsedSeconds();
    const double qps = static_cast<double>(batch) / secs;
    const bool exact = Identical(*result, truth);
    all_exact = all_exact && exact;
    if (shards == 4) speedup_at_4 = qps / scan_qps;
    registry.GetGauge("query.qps")->Set(qps);
    registry.GetGauge("query.speedup_vs_scan")->Set(qps / scan_qps);
    registry.GetGauge("query.bit_exact")->Set(exact ? 1.0 : 0.0);
    const std::string label = "sharded_" + std::to_string(shards);
    std::printf("%-16s %14.1f %14.0f %11.1fx %10s\n", label.c_str(),
                secs * 1e3, qps, qps / scan_qps, exact ? "yes" : "NO");
    report.AddRun(label, registry);
  }

  {  // the async front-end pushing the same load, one request at a time
    gf::obs::MetricRegistry registry;
    gf::obs::PipelineContext obs{.metrics = &registry};
    const gf::ScanQueryEngine engine(
        FirstTouchShards(store, std::min<std::size_t>(max_shards, 4), &obs),
        nullptr, &obs);

    gf::QueryService::Options service_options;
    service_options.max_queue = batch;
    service_options.max_batch = 64;
    service_options.max_wait_micros = 200;
    service_options.expected_bits = bits;
    gf::QueryService service(
        [&engine](std::span<const gf::Shf> b, std::size_t kk) {
          return engine.QueryBatch(b, kk);
        },
        service_options, &obs);

    gf::WallTimer timer;
    std::vector<std::future<gf::Result<std::vector<gf::Neighbor>>>> futures;
    futures.reserve(batch);
    for (std::size_t q = 0; q < batch; ++q) {
      futures.push_back(service.Submit(queries[q], k));
    }
    bool exact = true;
    for (std::size_t q = 0; q < batch; ++q) {
      auto result = futures[q].get();
      if (!result.ok()) std::abort();
      exact = exact && result->size() == truth[q].size();
      for (std::size_t i = 0; exact && i < result->size(); ++i) {
        exact = (*result)[i].id == truth[q][i].id &&
                (*result)[i].similarity == truth[q][i].similarity;
      }
    }
    const double secs = timer.ElapsedSeconds();
    const double qps = static_cast<double>(batch) / secs;
    all_exact = all_exact && exact;
    registry.GetGauge("query.qps")->Set(qps);
    registry.GetGauge("query.speedup_vs_scan")->Set(qps / scan_qps);
    registry.GetGauge("query.bit_exact")->Set(exact ? 1.0 : 0.0);
    std::printf("%-16s %14.1f %14.0f %11.1fx %10s\n", "service_async",
                secs * 1e3, qps, qps / scan_qps, exact ? "yes" : "NO");
    report.AddRun("service_async", registry);
  }

  report.Write();
  std::printf(
      "\nsharded_S scatters the batch over S single-thread workers pinned\n"
      "to their shard's NUMA cpu set; every run above is verified\n"
      "bit-identical to scan_1t (exact=%s). service_async pushes the\n"
      "batch through the admission-controlled micro-batching front-end.\n"
      "4-shard speedup: %.1fx. report: %s\n",
      all_exact ? "yes" : "NO", speedup_at_4, report.path().c_str());
  return all_exact ? 0 : 1;
}
