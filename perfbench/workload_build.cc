// Workload `build` — GoldFinger-Hyrec KNN graph construction at the
// paper's Table-4 / README-quickstart configuration: k = 30, 1024-bit
// SHFs, delta = 0.001, at most 30 iterations, on a 4-thread pool, over
// the ml10M-shaped generator at half scale (34,908 users).
//
// Why: this is the paper's own use case. Build time splits across
// candidate generation, the batched SHF kernel and neighbor-list
// updates, and no serving layer runs.
//
// End-to-end metrics (the same four as every workload): setup_s
// (dataset generation, median of kSetupRepeats), peak_rss_mb,
// lists_per_s (users / the median BuildKnnGraph call, fingerprinting
// included, over the builds that start within --seconds: a build
// delivers one neighbor list per user) and avg_sim (Eq. 2, mean exact
// Jaccard over the graph's edges; Eq. 3 quality divides it by the exact
// graph's value, which is fixed per dataset and would need a native
// brute-force build per run to recompute).
//
// Predictions (traced run): core.fingerprint_s, knn.build.* and
// common.simd.* carry all the work and should move lists_per_s; every
// serving, ingest and net metric reads 0.
//
// Output check, outside the timed window: every user of every timed
// build has k distinct non-self neighbors.

#include <cstdio>
#include <optional>
#include <unordered_set>

#include "common/thread_pool.h"
#include "dataset/synthetic.h"
#include "knn/builder.h"
#include "knn/quality.h"
#include "loadgen.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr double kDatasetScale = 0.5;  // ml10M at half scale
constexpr std::size_t kBitsPerShf = 1024;

gf::KnnPipelineConfig PaperConfig() {
  gf::KnnPipelineConfig config;
  config.algorithm = gf::KnnAlgorithm::kHyrec;
  config.mode = gf::SimilarityMode::kGoldFinger;
  config.greedy.k = 30;
  config.greedy.delta = 0.001;
  config.greedy.max_iterations = 30;
  config.fingerprint.num_bits = kBitsPerShf;
  return config;
}

// Users whose neighbor list is short, repeats an id or holds the user.
std::size_t BadNeighborhoods(const gf::KnnGraph& graph, std::size_t k) {
  std::size_t bad = 0;
  std::unordered_set<gf::UserId> seen;
  for (gf::UserId u = 0; u < graph.NumUsers(); ++u) {
    const auto neighbors = graph.NeighborsOf(u);
    seen.clear();
    bool ok = neighbors.size() == k;
    for (const gf::Neighbor& n : neighbors) {
      ok = ok && n.id != u && n.id < graph.NumUsers() && seen.insert(n.id).second;
    }
    if (!ok) ++bad;
  }
  return bad;
}

}  // namespace

RunReport RunBuild(const RunConfig& run) {
  RunReport report;
  gf::ThreadPool pool(kPoolThreads);
  const gf::KnnPipelineConfig config = PaperConfig();

  std::vector<double> setup_seconds;
  std::optional<gf::Dataset> dataset;
  for (int i = 0; i < kSetupRepeats; ++i) {
    dataset.reset();
    const int64_t t0 = NowNanos();
    auto generated = gf::GeneratePaperDataset(gf::PaperDataset::kMovieLens10M,
                                              kDatasetScale, run.seed);
    setup_seconds.push_back(static_cast<double>(NowNanos() - t0) * 1e-9);
    if (!generated.ok()) {
      std::fprintf(stderr, "dataset: %s\n",
                   generated.status().ToString().c_str());
      std::exit(1);
    }
    dataset = std::move(generated).value();
  }
  std::printf("build: %zu users, %zu items, %zu ratings; k=%zu b=%zu\n",
              dataset->NumUsers(), dataset->NumItems(), dataset->NumEntries(),
              config.greedy.k, kBitsPerShf);

  // Warm-up: one full build spins the pool up and grows the heap to the
  // build's working set (the first build on a fresh process is ~15%
  // slower).
  ++report.attempted;
  if (!gf::BuildKnnGraph(*dataset, config, &pool).ok()) {
    report.Fail(1, "warm-up build returned an error");
  }

  // Timed builds: as many as start within --seconds (at least one).
  std::vector<double> build_seconds;
  std::optional<gf::KnnResult> last;
  const int64_t deadline = NowNanos() + static_cast<int64_t>(run.seconds * 1e9);
  do {
    ++report.attempted;
    const int64_t t0 = NowNanos();
    auto built = gf::BuildKnnGraph(*dataset, config, &pool);
    build_seconds.push_back(static_cast<double>(NowNanos() - t0) * 1e-9);
    if (!built.ok()) {
      report.Fail(1, "build: " + built.status().ToString());
      continue;
    }
    if (const std::size_t bad = BadNeighborhoods(built->graph, config.greedy.k);
        bad != 0) {
      report.Fail(1, std::to_string(bad) + " users lack k distinct non-self "
                                           "neighbors");
    }
    last = std::move(built).value();
  } while (NowNanos() < deadline);

  const double build_s = Percentile(build_seconds, 0.5);
  const double avg_sim =
      last.has_value() ? gf::AverageExactSimilarity(last->graph, *dataset, &pool)
                       : 0.0;
  std::printf("build: %zu timed builds, median %.3f s; avg exact sim %.6f; "
              "checked %zu users x k=%zu per build\n",
              build_seconds.size(), build_s, avg_sim, dataset->NumUsers(),
              config.greedy.k);

  if (!run.trace) {
    report.Add("setup_s", Percentile(setup_seconds, 0.5), "s");
    report.Add("peak_rss_mb", PeakRssMiB(), "MiB");
    report.Add("lists_per_s", static_cast<double>(dataset->NumUsers()) / build_s,
               "1/s");
    report.Add("avg_sim", avg_sim, "ratio");
    return report;
  }

  // Traced build: the context carries a fresh registry (BuildKnnGraph
  // assumes one per build) and a recorder for knn.prepare / knn.build /
  // hyrec.iteration spans; the benchmark adds its own span around the
  // call.
  gf::obs::MetricRegistry registry;
  gf::obs::TraceRecorder tracer;
  gf::obs::PipelineContext ctx;
  ctx.metrics = &registry;
  ctx.tracer = &tracer;
  ctx.pool = &pool;
  ++report.attempted;
  const uint64_t busy_before = pool.busy_micros();
  const int64_t t0 = NowNanos();
  auto traced = gf::BuildKnnGraph(*dataset, config, ctx);
  const int64_t t1 = NowNanos();
  const uint64_t busy = pool.busy_micros() - busy_before;
  if (!traced.ok()) {
    report.Fail(1, "traced build: " + traced.status().ToString());
    return report;
  }
  if (BadNeighborhoods(traced->graph, config.greedy.k) != 0) {
    report.Fail(1, "traced build: users lack k distinct non-self neighbors");
  }
  const double wall_s = static_cast<double>(t1 - t0) * 1e-9;
  const double pairs = static_cast<double>(traced->stats.similarity_computations);
  const double construct_s = traced->stats.seconds;

  // Coverage: the recorder's top-level phases (knn.prepare, knn.build)
  // against the benchmark's span around the whole call.
  SpanGroup group = RecorderGroup(tracer);
  group.kind = "build";
  group.spans.insert(group.spans.begin(), {"bench.build_knn_graph", 0, t0, t1});
  double covered_ms = 0.0;
  for (const gf::obs::Span& span : tracer.Spans()) {
    if (span.parent == 0) covered_ms += static_cast<double>(span.DurationMicros()) * 1e-3;
  }
  if (!run.trace_out.empty() &&
      !WriteTrace(run.trace_out, run.workload, t0, {group}, registry, tracer)) {
    std::fprintf(stderr, "could not write %s\n", run.trace_out.c_str());
  }

  report.Add("core.fingerprint_s", traced->preparation_seconds, "s");
  report.Add("knn.build.construct_s", construct_s, "s");
  report.Add("knn.build.iterations",
             static_cast<double>(traced->stats.iterations), "count");
  report.Add("knn.build.similarities", pairs, "count");
  report.Add("knn.build.scan_rate",
             traced->stats.ScanRate(dataset->NumUsers()), "ratio");
  report.Add("knn.build.pool_busy_ratio",
             static_cast<double>(busy) * 1e-6 /
                 (static_cast<double>(kPoolThreads) * wall_s),
             "ratio");
  report.Add("common.simd.pairs_per_s", pairs / construct_s, "1/s");
  report.Add("common.simd.bytes_per_s",
             pairs * static_cast<double>(kBitsPerShf / 8) / construct_s, "B/s");
  report.Add("trace.overhead_ratio", wall_s / build_s, "ratio");
  report.Add("trace.coverage", covered_ms / (wall_s * 1e3), "ratio");
  return report;
}

}  // namespace perfbench
