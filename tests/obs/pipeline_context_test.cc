// End-to-end tests of the PipelineContext spine: null-context helpers
// are no-ops, an attached registry reports exactly the numbers the old
// CountingProvider / KnnBuildStats surfaces report, phases leave their
// spans, and checkpointed builds account their I/O.

#include "obs/pipeline_context.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "dataset/loader.h"
#include "io/env.h"
#include "knn/brute_force.h"
#include "knn/builder.h"
#include "knn/checkpoint.h"
#include "knn/quality.h"
#include "knn/similarity_provider.h"
#include "knn/stats.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "testing/test_util.h"

namespace gf {
namespace {

bool HasSpan(const std::vector<obs::Span>& spans, std::string_view name) {
  return std::any_of(spans.begin(), spans.end(),
                     [&](const obs::Span& s) { return s.name == name; });
}

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/obs_pipeline_test_" + name;
  io::PosixEnv env;
  auto names = env.ListDirectory(dir);
  if (names.ok()) {
    for (const std::string& entry : *names) {
      EXPECT_TRUE(env.DeleteFile(io::JoinPath(dir, entry)).ok());
    }
  }
  EXPECT_TRUE(env.CreateDirs(dir).ok());
  return dir;
}

TEST(PipelineContextTest, NullContextHelpersAreNoOps) {
  obs::PipelineContext ctx;  // all sinks null
  EXPECT_FALSE(ctx.HasMetrics());
  EXPECT_EQ(ctx.EffectiveClock(), Clock::System());
  ctx.Count("nothing", 5);
  ctx.SetGauge("nothing", 1.0);
  ctx.Observe("nothing", obs::kSizeBucketBoundaries, 3.0);
  { obs::ScopedPhase phase(&ctx, "noop", "noop.seconds"); }
  { obs::ScopedPhase phase(nullptr, "noop"); }
}

TEST(PipelineContextTest, RegistryMatchesCountingProviderExactly) {
  const Dataset d = testing::SmallSynthetic(120);

  // Reference: the pre-refactor accounting surface.
  ExactJaccardProvider provider(d);
  CountingProvider<ExactJaccardProvider> counting(provider);
  BruteForceKnn(counting, 8);
  ASSERT_GT(counting.count(), 0u);

  KnnPipelineConfig config;
  config.algorithm = KnnAlgorithm::kBruteForce;
  config.greedy.k = 8;
  obs::MetricRegistry registry;
  obs::PipelineContext ctx;
  ctx.metrics = &registry;
  auto result = BuildKnnGraph(d, config, ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const obs::Counter* sims =
      registry.FindCounter(kStatSimilarityComputations);
  ASSERT_NE(sims, nullptr);
  EXPECT_EQ(sims->value(), counting.count());
  // The registry holds the returned stats.
  EXPECT_EQ(result->stats.similarity_computations, sims->value());
  const obs::Gauge* seconds = registry.FindGauge(kStatBuildSeconds);
  ASSERT_NE(seconds, nullptr);
  EXPECT_EQ(result->stats.seconds, seconds->value());
}

TEST(PipelineContextTest, MetricsDoNotChangeTheGraph) {
  const Dataset d = testing::SmallSynthetic(100);
  KnnPipelineConfig config;
  config.algorithm = KnnAlgorithm::kHyrec;
  config.greedy.k = 6;
  auto plain = BuildKnnGraph(d, config);
  obs::MetricRegistry registry;
  obs::TraceRecorder tracer;
  obs::PipelineContext ctx;
  ctx.metrics = &registry;
  ctx.tracer = &tracer;
  auto instrumented = BuildKnnGraph(d, config, ctx);
  ASSERT_TRUE(plain.ok() && instrumented.ok());
  ASSERT_EQ(plain->graph.NumUsers(), instrumented->graph.NumUsers());
  for (UserId u = 0; u < plain->graph.NumUsers(); ++u) {
    const auto a = plain->graph.NeighborsOf(u);
    const auto b = instrumented->graph.NeighborsOf(u);
    ASSERT_EQ(a.size(), b.size()) << "user " << u;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id) << "user " << u << " rank " << i;
    }
  }
  EXPECT_EQ(plain->stats.similarity_computations,
            instrumented->stats.similarity_computations);
}

// A registry that two builds publish into sums their counters, but
// each build returns its own stats: the second build's equal an
// uninstrumented build's.
TEST(PipelineContextTest, ReusedRegistryReturnsEachBuildsOwnStats) {
  const Dataset d = testing::SmallSynthetic(100);
  KnnPipelineConfig config;
  config.algorithm = KnnAlgorithm::kHyrec;
  config.greedy.k = 6;
  auto plain = BuildKnnGraph(d, config);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  ASSERT_FALSE(plain->stats.updates_per_iteration.empty());

  obs::MetricRegistry registry;
  obs::PipelineContext ctx;
  ctx.metrics = &registry;
  ASSERT_TRUE(BuildKnnGraph(d, config, ctx).ok());
  auto second = BuildKnnGraph(d, config, ctx);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->stats.similarity_computations,
            plain->stats.similarity_computations);
  EXPECT_EQ(second->stats.iterations, plain->stats.iterations);
  EXPECT_EQ(second->stats.updates_per_iteration,
            plain->stats.updates_per_iteration);
  EXPECT_EQ(registry.FindCounter(kStatSimilarityComputations)->value(),
            2 * plain->stats.similarity_computations);
}

TEST(PipelineContextTest, PhasesLeaveSpans) {
  const Dataset d = testing::SmallSynthetic(80);
  KnnPipelineConfig config;
  config.algorithm = KnnAlgorithm::kBruteForce;
  config.mode = SimilarityMode::kGoldFinger;
  config.greedy.k = 5;
  obs::MetricRegistry registry;
  obs::TraceRecorder tracer;
  obs::PipelineContext ctx;
  ctx.metrics = &registry;
  ctx.tracer = &tracer;
  auto result = BuildKnnGraph(d, config, ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  AverageExactSimilarity(result->graph, d, nullptr, &ctx);

  const std::vector<obs::Span> spans = tracer.Spans();
  EXPECT_TRUE(HasSpan(spans, "knn.prepare"));
  EXPECT_TRUE(HasSpan(spans, "fingerprint.build"));
  EXPECT_TRUE(HasSpan(spans, "knn.build"));
  EXPECT_TRUE(HasSpan(spans, "bruteforce.scan"));
  EXPECT_TRUE(HasSpan(spans, "knn.evaluate"));
  for (const obs::Span& span : spans) {
    EXPECT_GT(span.end_us, 0u) << span.name << " left open";
  }
  // Phase wall times landed in their gauges.
  ASSERT_NE(registry.FindGauge("knn.prepare_seconds"), nullptr);
  ASSERT_NE(registry.FindGauge("evaluate.seconds"), nullptr);
  // The fingerprint phase accounted its output.
  const obs::Counter* users = registry.FindCounter("fingerprint.users");
  ASSERT_NE(users, nullptr);
  EXPECT_EQ(users->value(), d.NumUsers());
  const obs::Counter* edges = registry.FindCounter("evaluate.edges_scored");
  ASSERT_NE(edges, nullptr);
  EXPECT_GT(edges->value(), 0u);
}

TEST(PipelineContextTest, CheckpointedBuildCountsCheckpointIo) {
  const Dataset d = testing::SmallSynthetic(90);
  KnnPipelineConfig config;
  config.algorithm = KnnAlgorithm::kBruteForce;
  config.greedy.k = 5;
  config.checkpoint.dir = FreshDir("bf");
  config.checkpoint.chunk_users = 16;
  obs::MetricRegistry registry;
  obs::TraceRecorder tracer;
  obs::PipelineContext ctx;
  ctx.metrics = &registry;
  ctx.tracer = &tracer;
  auto result = BuildKnnGraph(d, config, ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const obs::Counter* saves = registry.FindCounter(kStatCheckpointSaves);
  ASSERT_NE(saves, nullptr);
  EXPECT_GT(saves->value(), 0u);
  const obs::Counter* bytes =
      registry.FindCounter(kStatCheckpointBytesWritten);
  ASSERT_NE(bytes, nullptr);
  EXPECT_GT(bytes->value(), 0u);
  EXPECT_TRUE(HasSpan(tracer.Spans(), "checkpoint.save"));
}

TEST(PipelineContextTest, LoaderRecordsDatasetCounters) {
  const std::string content =
      "1::10::5::978300760\n"
      "1::11::4::978300760\n"
      "2::10::3::978300760\n";
  obs::MetricRegistry registry;
  obs::PipelineContext ctx;
  ctx.metrics = &registry;
  LoaderOptions options;
  options.min_ratings_per_user = 1;
  options.obs = &ctx;
  auto dataset = ParseMovieLensDat(content, options);
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();

  EXPECT_EQ(registry.FindCounter("dataset.bytes_read")->value(),
            content.size());
  EXPECT_EQ(registry.FindCounter("dataset.lines_parsed")->value(), 3u);
  EXPECT_EQ(registry.FindCounter("dataset.ratings_kept")->value(), 3u);
  EXPECT_EQ(registry.FindCounter("dataset.users_kept")->value(), 2u);
}

TEST(PipelineContextTest, SupportsCheckpointingMatchesDispatchTable) {
  EXPECT_TRUE(SupportsCheckpointing(KnnAlgorithm::kBruteForce));
  EXPECT_TRUE(SupportsCheckpointing(KnnAlgorithm::kHyrec));
  EXPECT_TRUE(SupportsCheckpointing(KnnAlgorithm::kNNDescent));
  EXPECT_FALSE(SupportsCheckpointing(KnnAlgorithm::kLsh));
  EXPECT_FALSE(SupportsCheckpointing(KnnAlgorithm::kKiff));
  EXPECT_FALSE(SupportsCheckpointing(KnnAlgorithm::kBandedLsh));
  EXPECT_FALSE(SupportsCheckpointing(KnnAlgorithm::kBisection));
}

}  // namespace
}  // namespace gf
