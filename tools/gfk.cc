// gfk — the GoldFinger command-line tool. Drives the whole pipeline
// from the shell: generate or load datasets, fingerprint them, build
// KNN graphs with any algorithm/mode, recommend, and report privacy
// guarantees. Artifacts are exchanged as .gfsz containers (io/).
//
//   gfk generate  --dataset ml1M --scale 0.1 --out ds.gfsz
//   gfk load      --ratings ratings.dat --format dat --out ds.gfsz
//   gfk stats     --in ds.gfsz
//   gfk knn       --in ds.gfsz --algorithm hyrec --mode golfi --k 30
//                 --bits 1024 --out graph.gfsz
//   gfk recommend --in ds.gfsz --graph graph.gfsz --user 0 --n 10
//   gfk privacy   --in ds.gfsz --bits 1024
//   gfk index write --in ds.gfsz --bits 1024 --shards 4 --out index.gfix
//   gfk index info  --in index.gfix
//   gfk serve     --index index.gfix --requests 1024 --clients 4 --k 10
//   gfk serve     --replica --shard 0 --shards 2 --port 0 --port-file p0
//   gfk cluster-query --cluster 127.0.0.1:7001,127.0.0.1:7002/127.0.0.1:7003
//   gfk version
//   gfk help

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "common/simd_popcount.h"
#include "io/container.h"
#include "util/bench_report.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "knn/query.h"
#include "core/privacy.h"
#include "theory/calibration.h"
#include "dataset/loader.h"
#include "dataset/synthetic.h"
#include "io/env.h"
#include "io/gfix.h"
#include "io/serialization.h"
#include "core/sharded_store.h"
#include "core/store_snapshot.h"
#include "knn/builder.h"
#include "knn/query_service.h"
#include "net/coordinator.h"
#include "net/posix_transport.h"
#include "net/replica_server.h"
#include "obs/json_export.h"
#include "obs/metrics.h"
#include "obs/pipeline_context.h"
#include "obs/trace.h"
#include "recommender/recommender.h"

namespace gf::tools {
namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "gfk: %s\n", status.ToString().c_str());
  return 1;
}

int Usage() {
  std::printf(
      "gfk — GoldFinger KNN toolbox\n\n"
      "subcommands:\n"
      "  generate  --dataset ml1M|ml10M|ml20M|AM|DBLP|GW [--scale S]\n"
      "            [--seed N] --out ds.gfsz\n"
      "  load      --ratings FILE --format dat|csv|amazon|edges\n"
      "            [--min-ratings 20] [--threshold 3.0] --out ds.gfsz\n"
      "  stats     --in ds.gfsz\n"
      "  knn       --in ds.gfsz [--algorithm bruteforce|hyrec|nndescent|\n"
      "            lsh|kiff|bandedlsh|bisection|cluster-conquer]\n"
      "            [--mode native|golfi|minhash] [--k 30] [--bits 1024]\n"
      "            [--threads N] [--metrics-out metrics.json]\n"
      "            [--cc-clusters 128] [--cc-assignments 2]\n"
      "            [--cc-inner bruteforce|hyrec] [--cc-refine 0]\n"
      "            [--cc-cap 0]  (max cluster size; 0 = automatic)\n"
      "            [--checkpoint-dir DIR] [--checkpoint-every N]\n"
      "            [--resume] [--out graph.gfsz]\n"
      "  recommend --in ds.gfsz --graph graph.gfsz [--user U] [--n 30]\n"
      "  privacy   --in ds.gfsz [--bits 1024]\n"
      "  fingerprint --in ds.gfsz [--bits 1024] [--hash jenkins|murmur3|\n"
      "            splitmix] [--seed N] --out fp.gfsz\n"
      "  calibrate --in ds.gfsz [--reference 0.25] [--competitor 0.17]\n"
      "            [--max-misordering 0.02]\n"
      "  index write --in ds.gfsz|--store fp.gfsz --out index.gfix\n"
      "            [--bits 1024] [--seed N] [--shards 1] [--threads N]\n"
      "  index info --in index.gfix [--full]\n"
      "  serve     --index index.gfix [--requests 1024] [--clients 4]\n"
      "            [--k 10] [--max-queue 1024] [--max-batch 64]\n"
      "            [--max-wait-us 200] [--seed N]\n"
      "  serve     --replica --shard I --shards S [--users 2000]\n"
      "            [--bits 512] [--seed N] [--port 0] [--port-file FILE]\n"
      "            [--serve-for-ms 120000]\n"
      "  cluster-query --cluster HOST:PORT[,R2...][/SHARD2...]\n"
      "            [--users 2000] [--bits 512] [--seed N] [--queries 8]\n"
      "            [--k 10] [--deadline-ms 2000] [--hedge-us 0]\n"
      "            [--max-attempts 3] [--no-verify]\n"
      "  version   (git sha, SIMD backend, wire/report schema versions)\n");
  return 0;
}

int CmdVersion(const Flags&) {
  // The configure-time sha (GF_GIT_SHA compile definition from the
  // top-level CMakeLists) — the GF_GIT_SHA env var wins so CI can
  // stamp the true revision on a cached build tree.
  const char* sha = std::getenv("GF_GIT_SHA");
#ifdef GF_GIT_SHA
  if (sha == nullptr || sha[0] == '\0') sha = GF_GIT_SHA;
#endif
  if (sha == nullptr || sha[0] == '\0') sha = "unknown";
  std::printf("gfk — GoldFinger KNN toolbox\n");
  std::printf("git sha:              %s\n", sha);
  std::printf("simd backend:         %s\n",
              bits::PopcountBackendName(bits::ActivePopcountBackend()));
  std::printf("gfsz format version:  %u\n", io::kGfszFormatVersion);
  std::printf("gfix format version:  %u\n", io::kGfixVersion);
  std::printf("bench report schema:  %d\n", bench::kBenchReportSchemaVersion);
  return 0;
}

Result<PaperDataset> ParseDatasetName(const std::string& name) {
  for (PaperDataset d : AllPaperDatasets()) {
    if (name == PaperDatasetName(d)) return d;
  }
  return Status::InvalidArgument("unknown dataset '" + name +
                                 "' (ml1M|ml10M|ml20M|AM|DBLP|GW)");
}

int CmdGenerate(const Flags& flags) {
  const std::string out = flags.GetString("out");
  if (out.empty()) return Fail(Status::InvalidArgument("--out required"));
  auto which = ParseDatasetName(flags.GetString("dataset", "ml1M"));
  if (!which.ok()) return Fail(which.status());
  const double scale = flags.GetDouble("scale", 0.1);
  const auto seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  auto dataset = GeneratePaperDataset(*which, scale, seed);
  if (!dataset.ok()) return Fail(dataset.status());
  if (const Status status = io::WriteDataset(*dataset, out); !status.ok()) {
    return Fail(status);
  }
  std::printf("wrote %s: %zu users, %zu items, %zu entries\n", out.c_str(),
              dataset->NumUsers(), dataset->NumItems(),
              dataset->NumEntries());
  return 0;
}

int CmdLoad(const Flags& flags) {
  const std::string path = flags.GetString("ratings");
  const std::string out = flags.GetString("out");
  if (path.empty() || out.empty()) {
    return Fail(Status::InvalidArgument("--ratings and --out required"));
  }
  LoaderOptions options;
  options.min_ratings_per_user =
      static_cast<std::size_t>(flags.GetInt("min-ratings", 20));
  const std::string format = flags.GetString("format", "dat");

  Result<RatingDataset> raw = Status::InvalidArgument(
      "unknown --format '" + format + "' (dat|csv|amazon|edges)");
  if (format == "dat") raw = LoadMovieLensDat(path, options);
  if (format == "csv") raw = LoadMovieLensCsv(path, options);
  if (format == "amazon") raw = LoadAmazonRatings(path, options);
  if (format == "edges") raw = LoadEdgeList(path, options);
  if (!raw.ok()) return Fail(raw.status());

  auto dataset = raw->Binarize(flags.GetDouble("threshold", 3.0));
  if (!dataset.ok()) return Fail(dataset.status());
  if (const Status status = io::WriteDataset(*dataset, out); !status.ok()) {
    return Fail(status);
  }
  std::printf("wrote %s: %zu users, %zu items, %zu positive entries\n",
              out.c_str(), dataset->NumUsers(), dataset->NumItems(),
              dataset->NumEntries());
  return 0;
}

int CmdStats(const Flags& flags) {
  auto dataset = io::ReadDataset(flags.GetString("in"));
  if (!dataset.ok()) return Fail(dataset.status());
  std::printf("%s", FormatStatsTable({ComputeStats(*dataset)}).c_str());
  return 0;
}

int CmdKnn(const Flags& flags) {
  // Observability spine: --metrics-out attaches a registry + tracer to
  // the pipeline context and dumps them as JSON at the end; --threads
  // shares ONE pool across every phase (load excepted: it is I/O-bound).
  obs::MetricRegistry registry;
  obs::TraceRecorder tracer;
  obs::PipelineContext ctx;
  const std::string metrics_out = flags.GetString("metrics-out");
  if (!metrics_out.empty()) {
    ctx.metrics = &registry;
    ctx.tracer = &tracer;
  }
  std::optional<ThreadPool> pool;
  const int threads = flags.GetInt("threads", 0);
  if (threads > 0) {
    pool.emplace(static_cast<std::size_t>(threads));
    ctx.pool = &*pool;
  }

  Result<Dataset> dataset = [&] {
    obs::ScopedPhase phase(&ctx, "gfk.load", "dataset.load_seconds");
    return io::ReadDataset(flags.GetString("in"));
  }();
  if (!dataset.ok()) return Fail(dataset.status());

  KnnPipelineConfig config;
  const std::string algo = flags.GetString("algorithm", "hyrec");
  if (algo == "bruteforce") config.algorithm = KnnAlgorithm::kBruteForce;
  else if (algo == "hyrec") config.algorithm = KnnAlgorithm::kHyrec;
  else if (algo == "nndescent") config.algorithm = KnnAlgorithm::kNNDescent;
  else if (algo == "lsh") config.algorithm = KnnAlgorithm::kLsh;
  else if (algo == "kiff") config.algorithm = KnnAlgorithm::kKiff;
  else if (algo == "bandedlsh") config.algorithm = KnnAlgorithm::kBandedLsh;
  else if (algo == "bisection") config.algorithm = KnnAlgorithm::kBisection;
  else if (algo == "cluster-conquer") {
    config.algorithm = KnnAlgorithm::kClusterConquer;
  } else {
    return Fail(Status::InvalidArgument("unknown --algorithm " + algo));
  }

  // Cluster-and-Conquer knobs: C buckets, t assignments per user, the
  // per-cluster construction and the optional refinement pass.
  config.cluster_conquer.num_clusters =
      static_cast<std::size_t>(flags.GetInt("cc-clusters", 128));
  config.cluster_conquer.assignments =
      static_cast<std::size_t>(flags.GetInt("cc-assignments", 2));
  config.cluster_conquer.refine_iterations =
      static_cast<std::size_t>(flags.GetInt("cc-refine", 0));
  config.cluster_conquer.max_cluster_size =
      static_cast<std::size_t>(flags.GetInt("cc-cap", 0));
  const std::string cc_inner = flags.GetString("cc-inner", "bruteforce");
  if (cc_inner == "bruteforce") {
    config.cluster_conquer.inner = ClusterConquerInner::kBruteForce;
  } else if (cc_inner == "hyrec") {
    config.cluster_conquer.inner = ClusterConquerInner::kHyrec;
  } else {
    return Fail(Status::InvalidArgument("unknown --cc-inner " + cc_inner));
  }

  const std::string mode = flags.GetString("mode", "golfi");
  if (mode == "native") config.mode = SimilarityMode::kNative;
  else if (mode == "golfi") config.mode = SimilarityMode::kGoldFinger;
  else if (mode == "minhash") config.mode = SimilarityMode::kBbitMinHash;
  else return Fail(Status::InvalidArgument("unknown --mode " + mode));

  config.greedy.k = static_cast<std::size_t>(flags.GetInt("k", 30));
  config.fingerprint.num_bits =
      static_cast<std::size_t>(flags.GetInt("bits", 1024));

  // Checkpoint/resume: long builds snapshot into --checkpoint-dir every
  // --checkpoint-every progress units (greedy iterations, brute-force
  // chunks); --resume continues from the newest valid snapshot instead
  // of starting over.
  config.checkpoint.dir = flags.GetString("checkpoint-dir");
  config.checkpoint.every =
      static_cast<std::size_t>(flags.GetInt("checkpoint-every", 1));
  config.checkpoint.resume = flags.GetBool("resume", false);
  if (config.checkpoint.resume && config.checkpoint.dir.empty()) {
    return Fail(Status::InvalidArgument("--resume needs --checkpoint-dir"));
  }

  auto result = BuildKnnGraph(*dataset, config, ctx);
  if (!result.ok()) return Fail(result.status());
  std::printf("%s/%s: prep %.3fs, build %.3fs, %zu iterations, %.2fM "
              "similarities, avg stored sim %.4f\n",
              std::string(KnnAlgorithmName(config.algorithm)).c_str(),
              std::string(SimilarityModeName(config.mode)).c_str(),
              result->preparation_seconds, result->stats.seconds,
              result->stats.iterations,
              result->stats.similarity_computations / 1e6,
              result->graph.AverageStoredSimilarity());

  const std::string out = flags.GetString("out");
  if (!out.empty()) {
    obs::ScopedPhase phase(&ctx, "gfk.write", "graph.write_seconds");
    if (const Status status = io::WriteKnnGraph(result->graph, out);
        !status.ok()) {
      return Fail(status);
    }
    std::printf("wrote %s\n", out.c_str());
  }

  if (!metrics_out.empty()) {
    const std::string json = obs::ExportJson(registry, &tracer);
    if (const Status status =
            io::Env::Default()->WriteFileAtomic(metrics_out, json);
        !status.ok()) {
      return Fail(status);
    }
    std::printf("wrote metrics %s\n", metrics_out.c_str());
  }
  return 0;
}

int CmdRecommend(const Flags& flags) {
  auto dataset = io::ReadDataset(flags.GetString("in"));
  if (!dataset.ok()) return Fail(dataset.status());
  auto graph = io::ReadKnnGraph(flags.GetString("graph"));
  if (!graph.ok()) return Fail(graph.status());
  if (graph->NumUsers() != dataset->NumUsers()) {
    return Fail(Status::InvalidArgument(
        "graph and dataset disagree on the user count"));
  }
  RecommenderConfig config;
  config.num_recommendations =
      static_cast<std::size_t>(flags.GetInt("n", 30));
  const auto user = static_cast<UserId>(flags.GetInt("user", 0));
  if (user >= dataset->NumUsers()) {
    return Fail(Status::OutOfRange("no such user"));
  }
  const auto recs = RecommendForUser(*graph, *dataset, user, config);
  std::printf("user %u: %zu recommendations\n", user, recs.size());
  for (const auto& rec : recs) {
    std::printf("  item %u  score %.4f\n", rec.item, rec.score);
  }
  return 0;
}

int CmdPrivacy(const Flags& flags) {
  auto dataset = io::ReadDataset(flags.GetString("in"));
  if (!dataset.ok()) return Fail(dataset.status());
  FingerprintConfig config;
  config.num_bits = static_cast<std::size_t>(flags.GetInt("bits", 1024));
  auto store = FingerprintStore::Build(*dataset, config);
  if (!store.ok()) return Fail(store.status());
  auto analysis = PreimageAnalysis::Compute(dataset->NumItems(), config);
  if (!analysis.ok()) return Fail(analysis.status());

  double mean_card = 0;
  double worst_l = 1e300;
  double best_l = 0;
  for (UserId u = 0; u < store->num_users(); ++u) {
    mean_card += store->CardinalityOf(u);
    if (store->CardinalityOf(u) == 0) continue;
    const double l = analysis->For(store->Extract(u)).l_diversity;
    worst_l = std::min(worst_l, l);
    best_l = std::max(best_l, l);
  }
  mean_card /= static_cast<double>(std::max<std::size_t>(1,
                                                         store->num_users()));
  const auto theory = TheoreticalPrivacy(
      dataset->NumItems(), config.num_bits,
      static_cast<uint32_t>(mean_card));
  std::printf("items=%zu bits=%zu mean cardinality=%.1f\n",
              dataset->NumItems(), config.num_bits, mean_card);
  std::printf("theoretical (Thm 2-3): k-anonymity 2^%.1f, l-diversity %.1f\n",
              theory.k_anonymity_log2, theory.l_diversity);
  std::printf("empirical l-diversity across users: min %.0f, max %.0f\n",
              worst_l, best_l);
  return 0;
}

int CmdFingerprint(const Flags& flags) {
  auto dataset = io::ReadDataset(flags.GetString("in"));
  if (!dataset.ok()) return Fail(dataset.status());
  const std::string out = flags.GetString("out");
  if (out.empty()) return Fail(Status::InvalidArgument("--out required"));

  FingerprintConfig config;
  config.num_bits = static_cast<std::size_t>(flags.GetInt("bits", 1024));
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 0));
  const std::string hash = flags.GetString("hash", "jenkins");
  if (hash == "jenkins") config.hash = hash::HashKind::kJenkins;
  else if (hash == "murmur3") config.hash = hash::HashKind::kMurmur3;
  else if (hash == "splitmix") config.hash = hash::HashKind::kSplitMix;
  else return Fail(Status::InvalidArgument("unknown --hash " + hash));

  auto store = FingerprintStore::Build(*dataset, config);
  if (!store.ok()) return Fail(store.status());
  if (const Status status = io::WriteFingerprintStore(*store, out);
      !status.ok()) {
    return Fail(status);
  }
  std::printf("wrote %s: %zu fingerprints of %zu bits (%zu payload bytes)\n",
              out.c_str(), store->num_users(), store->num_bits(),
              store->PayloadBytes());
  return 0;
}

int CmdCalibrate(const Flags& flags) {
  auto dataset = io::ReadDataset(flags.GetString("in"));
  if (!dataset.ok()) return Fail(dataset.status());
  theory::CalibrationTarget target;
  target.reference_jaccard = flags.GetDouble("reference", 0.25);
  target.competitor_jaccard = flags.GetDouble("competitor", 0.17);
  target.max_misordering = flags.GetDouble("max-misordering", 0.02);
  target.profile_size = static_cast<std::size_t>(
      std::lround(std::max(1.0, dataset->MeanProfileSize())));
  std::printf(
      "calibrating for |Pu| = %zu: protect J=%.2f against J=%.2f at "
      "misordering <= %.3f\n",
      target.profile_size, target.reference_jaccard,
      target.competitor_jaccard, target.max_misordering);
  auto result = theory::CalibrateShfSize(target);
  if (!result.ok()) return Fail(result.status());
  std::printf("-> use %zu-bit SHFs (achieved misordering %.4f)\n",
              result->num_bits, result->misordering);
  return 0;
}

int CmdIndexWrite(const Flags& flags) {
  const std::string out = flags.GetString("out");
  if (out.empty()) return Fail(Status::InvalidArgument("--out required"));
  std::optional<ThreadPool> pool;
  const int threads = flags.GetInt("threads", 0);
  if (threads > 0) pool.emplace(static_cast<std::size_t>(threads));
  ThreadPool* pool_ptr = pool ? &*pool : nullptr;

  // Either a pre-built fingerprint store, or a dataset to fingerprint.
  Result<FingerprintStore> store =
      Status::InvalidArgument("--in (dataset) or --store required");
  const std::string store_path = flags.GetString("store");
  if (!store_path.empty()) {
    store = io::ReadFingerprintStore(store_path);
  } else if (!flags.GetString("in").empty()) {
    auto dataset = io::ReadDataset(flags.GetString("in"));
    if (!dataset.ok()) return Fail(dataset.status());
    FingerprintConfig config;
    config.num_bits = static_cast<std::size_t>(flags.GetInt("bits", 1024));
    config.seed = static_cast<uint64_t>(flags.GetInt("seed", 0));
    store = FingerprintStore::Build(*dataset, config, pool_ptr);
  }
  if (!store.ok()) return Fail(store.status());

  io::GfixWriteOptions options;
  const auto shards =
      std::max<std::size_t>(1, static_cast<std::size_t>(
                                   flags.GetInt("shards", 1)));
  options.shard_begins =
      ShardedFingerprintStore::BalancedBegins(store->num_users(), shards);

  WallTimer timer;
  if (const Status status = io::WriteGfixIndex(*store, out, options);
      !status.ok()) {
    return Fail(status);
  }
  std::printf("wrote %s in %.1f ms: %zu users x %zu bits, %zu shard(s)\n",
              out.c_str(), timer.ElapsedSeconds() * 1e3, store->num_users(),
              store->num_bits(), options.shard_begins.size());
  return 0;
}

int CmdIndexInfo(const Flags& flags) {
  const std::string path = flags.GetString("in");
  if (path.empty()) return Fail(Status::InvalidArgument("--in required"));
  io::MappedFingerprintStore::OpenOptions options;
  if (flags.GetBool("full", false)) options.verify = io::GfixVerify::kFull;
  WallTimer timer;
  auto mapped = io::MappedFingerprintStore::Open(path, options);
  if (!mapped.ok()) return Fail(mapped.status());
  std::printf("%s: opened in %.2f ms (%s verify)\n", path.c_str(),
              timer.ElapsedSeconds() * 1e3,
              options.verify == io::GfixVerify::kFull ? "full" : "structure");
  std::printf("  %zu users x %zu bits (%zu words/fingerprint)\n",
              mapped->num_users(), mapped->num_bits(),
              mapped->store().words_per_shf());
  std::printf("  shards:");
  for (const UserId begin : mapped->shard_begins()) {
    std::printf(" %u", begin);
  }
  std::printf("\n");
  return 0;
}

int CmdIndex(const Flags& flags) {
  const auto& positional = flags.positional();
  const std::string action = positional.size() > 1 ? positional[1] : "";
  if (action == "write") return CmdIndexWrite(flags);
  if (action == "info") return CmdIndexInfo(flags);
  return Fail(Status::InvalidArgument(
      "usage: gfk index write|info ... (see gfk help)"));
}

int CmdServeReplica(const Flags& flags);

int CmdServe(const Flags& flags) {
  // `gfk serve --replica` is the distributed tier's server process.
  if (flags.GetBool("replica")) return CmdServeReplica(flags);
  // Serving from a persistent index: map the GFIX file (no rebuild, no
  // arena copy), hydrate the persisted shard layout into a zero-copy
  // sharded scan, and drive it through the QueryService front-end from
  // concurrent clients — replies are verified bit-identical to the
  // per-pair scan over the same mapped store.
  const std::string index_path = flags.GetString("index");
  if (index_path.empty()) {
    return Fail(Status::InvalidArgument("--index required"));
  }
  const auto requests =
      static_cast<std::size_t>(flags.GetInt("requests", 1024));
  const auto clients = static_cast<std::size_t>(flags.GetInt("clients", 4));
  const auto k = static_cast<std::size_t>(flags.GetInt("k", 10));
  if (requests == 0 || clients == 0 || k == 0) {
    return Fail(Status::InvalidArgument(
        "--requests, --clients and --k must be >= 1"));
  }

  obs::MetricRegistry registry;
  obs::PipelineContext ctx;
  ctx.metrics = &registry;

  WallTimer open_timer;
  auto mapped = io::MappedFingerprintStore::Open(index_path);
  if (!mapped.ok()) return Fail(mapped.status());
  auto sharded = mapped->Shards(&ctx);
  if (!sharded.ok()) return Fail(sharded.status());
  const ScanQueryEngine engine(
      std::make_shared<const ShardedFingerprintStore>(
          std::move(sharded).value()),
      nullptr, &ctx);
  const double open_ms = open_timer.ElapsedSeconds() * 1e3;

  const std::size_t users = mapped->num_users();
  if (users == 0) return Fail(Status::InvalidArgument("empty index"));
  std::printf(
      "%s: %zu users x %zu bits in %zu shard(s), serving after %.2f ms\n",
      index_path.c_str(), users, mapped->num_bits(),
      mapped->shard_begins().size(), open_ms);

  const std::size_t pool_size = std::min<std::size_t>(256, requests);
  Rng rng(static_cast<uint64_t>(flags.GetInt("seed", 42)) ^ 0x5EED);
  std::vector<Shf> queries;
  queries.reserve(pool_size);
  for (std::size_t q = 0; q < pool_size; ++q) {
    queries.push_back(
        mapped->store().Extract(static_cast<UserId>(rng.Below(users))));
  }
  // The mapped file is an immutable epoch; the scan pins it through the
  // snapshot seam like every other reader in the stack. Per-pair Query
  // runs neither the tile kernel nor the prune that served batches run.
  const ScanQueryEngine scan(StoreSnapshot::Borrow(mapped->store()));
  std::vector<std::vector<Neighbor>> truth;
  truth.reserve(queries.size());
  for (const Shf& query : queries) {
    auto answer = scan.Query(query, k);
    if (!answer.ok()) return Fail(answer.status());
    truth.push_back(std::move(answer).value());
  }

  QueryService::Options service_options;
  service_options.max_queue =
      static_cast<std::size_t>(flags.GetInt("max-queue", 1024));
  service_options.max_batch =
      static_cast<std::size_t>(flags.GetInt("max-batch", 64));
  service_options.max_wait_micros =
      static_cast<uint64_t>(flags.GetInt("max-wait-us", 200));
  service_options.expected_bits = mapped->num_bits();
  QueryService service(
      [&engine](std::span<const Shf> batch, std::size_t kk) {
        return engine.QueryBatch(batch, kk);
      },
      service_options, &ctx);

  std::atomic<std::size_t> served{0};
  std::atomic<std::size_t> rejected{0};
  std::atomic<std::size_t> mismatched{0};
  // Each client keeps at most its share of the queue in flight (one
  // request when there are more clients than slots), so the clients
  // alone do not fill the queue and the rejected count is the service's.
  const std::size_t in_flight =
      std::max<std::size_t>(1, service_options.max_queue / clients);
  WallTimer timer;
  std::vector<std::thread> client_threads;
  client_threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    client_threads.emplace_back([&, c] {
      std::deque<std::pair<std::size_t,
                           std::future<Result<std::vector<Neighbor>>>>>
          pending;
      const auto check_oldest = [&] {
        auto& [q, future] = pending.front();
        auto result = future.get();
        if (!result.ok()) {
          rejected.fetch_add(1, std::memory_order_relaxed);
        } else {
          served.fetch_add(1, std::memory_order_relaxed);
          const std::vector<Neighbor>& expected = truth[q];
          bool exact = result->size() == expected.size();
          for (std::size_t i = 0; exact && i < expected.size(); ++i) {
            exact = (*result)[i].id == expected[i].id &&
                    (*result)[i].similarity == expected[i].similarity;
          }
          if (!exact) mismatched.fetch_add(1, std::memory_order_relaxed);
        }
        pending.pop_front();
      };
      for (std::size_t r = c; r < requests; r += clients) {
        if (pending.size() == in_flight) check_oldest();
        const std::size_t q = r % pool_size;
        pending.emplace_back(q, service.Submit(queries[q], k));
      }
      while (!pending.empty()) check_oldest();
    });
  }
  for (auto& t : client_threads) t.join();
  const double secs = timer.ElapsedSeconds();
  service.Shutdown();

  std::printf("served %zu, rejected %zu, mismatched %zu in %.1f ms "
              "(%.0f queries/s)\n",
              served.load(), rejected.load(), mismatched.load(), secs * 1e3,
              static_cast<double>(served.load()) / secs);
  if (mismatched.load() != 0) {
    return Fail(Status::Internal(
        "mapped-index replies diverged from the scan"));
  }
  return 0;
}

// ---- Distributed serving (DESIGN.md §14) -------------------------------
//
// Both sides of the wire rebuild the SAME deterministic synthetic store
// from (--users, --bits, --seed), so a replica can serve its balanced
// slice and the client can verify the scattered answer bit-identical to
// a local exhaustive scan — no dataset files have to be shipped around.

Result<FingerprintStore> BuildSyntheticStore(std::size_t users,
                                             std::size_t bits,
                                             uint64_t seed) {
  SyntheticSpec spec;
  spec.num_users = users;
  spec.num_items = std::max<std::size_t>(2000, users / 10);
  spec.seed = seed;
  auto dataset = GenerateZipfDataset(spec);
  if (!dataset.ok()) return dataset.status();
  FingerprintConfig config;
  config.num_bits = bits;
  return FingerprintStore::Build(*dataset, config);
}

int CmdServeReplica(const Flags& flags) {
  // One replica process: serve shard --shard of --shards over a real
  // socket. --port 0 binds an ephemeral port; --port-file publishes the
  // bound port for the launcher (the two-process ctest smoke reads it).
  const auto shards = static_cast<std::size_t>(flags.GetInt("shards", 1));
  const auto shard = static_cast<std::size_t>(flags.GetInt("shard", 0));
  const auto users = static_cast<std::size_t>(flags.GetInt("users", 2000));
  const auto bits = static_cast<std::size_t>(flags.GetInt("bits", 512));
  if (shards == 0 || shard >= shards || users < shards) {
    return Fail(Status::InvalidArgument(
        "need --shards >= 1, --shard < --shards, --users >= --shards"));
  }

  auto store = BuildSyntheticStore(
      users, bits, static_cast<uint64_t>(flags.GetInt("seed", 42)));
  if (!store.ok()) return Fail(store.status());
  const auto begins = ShardedFingerprintStore::BalancedBegins(users, shards);
  auto view = ShardedFingerprintStore::ViewOf(*store, begins);
  if (!view.ok()) return Fail(view.status());
  const FingerprintStore& slice = view->shard(shard);
  const UserId begin = view->ShardBegin(shard);
  const auto end = static_cast<UserId>(begin + slice.num_users());

  obs::MetricRegistry registry;
  obs::PipelineContext ctx;
  ctx.metrics = &registry;
  const net::ReplicaServer replica(slice, begin, nullptr, &ctx);
  net::PosixServer server(
      [&replica](std::string_view frame) { return replica.Handle(frame); });
  if (const Status status =
          server.Start(static_cast<uint16_t>(flags.GetInt("port", 0)));
      !status.ok()) {
    return Fail(status);
  }
  const std::string port_file = flags.GetString("port-file");
  if (!port_file.empty()) {
    if (const Status status = io::Env::Default()->WriteFileAtomic(
            port_file, std::to_string(server.port()) + "\n");
        !status.ok()) {
      return Fail(status);
    }
  }
  std::printf("replica %zu/%zu: users [%u, %u) x %zu bits on 127.0.0.1:%u\n",
              shard, shards, begin, end, bits, server.port());
  std::fflush(stdout);

  // Serve until killed, bounded by --serve-for-ms as a safety net so an
  // orphaned replica never outlives a crashed launcher by much.
  const long serve_for_ms = flags.GetInt("serve-for-ms", 120'000);
  const auto started = std::chrono::steady_clock::now();
  for (;;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (serve_for_ms > 0 &&
        std::chrono::steady_clock::now() - started >
            std::chrono::milliseconds(serve_for_ms)) {
      break;
    }
  }
  return 0;
}

int CmdClusterQuery(const Flags& flags) {
  // The client side of the distributed tier: scatter a query batch over
  // a replicated cluster through ClusterCoordinator + PosixTransport
  // and (by default) verify the merged top-k bit-identical to a local
  // exhaustive scan of the same synthetic store.
  //
  // --cluster lists replica addresses: ',' separates the replicas of
  // one shard, '/' separates shards, e.g. "a:1,a:2/b:1" = two shards,
  // the first one two-way replicated.
  const std::string spec = flags.GetString("cluster");
  if (spec.empty()) return Fail(Status::InvalidArgument("--cluster required"));
  const auto users = static_cast<std::size_t>(flags.GetInt("users", 2000));
  const auto bits = static_cast<std::size_t>(flags.GetInt("bits", 512));
  const auto num_queries =
      static_cast<std::size_t>(flags.GetInt("queries", 8));
  const auto k = static_cast<std::size_t>(flags.GetInt("k", 10));
  if (users == 0 || num_queries == 0 || k == 0) {
    return Fail(Status::InvalidArgument(
        "--users, --queries and --k must be >= 1"));
  }

  net::ClusterConfig config;
  config.num_users = static_cast<UserId>(users);
  for (std::size_t pos = 0; pos <= spec.size();) {
    std::size_t cut = spec.find('/', pos);
    if (cut == std::string::npos) cut = spec.size();
    std::vector<std::string> replicas;
    for (std::size_t rpos = pos; rpos <= cut;) {
      std::size_t rcut = std::min(spec.find(',', rpos), cut);
      replicas.push_back(spec.substr(rpos, rcut - rpos));
      rpos = rcut + 1;
    }
    config.replicas.push_back(std::move(replicas));
    pos = cut + 1;
  }
  const std::size_t shards = config.replicas.size();
  config.shard_begins = ShardedFingerprintStore::BalancedBegins(users, shards);

  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  auto store = BuildSyntheticStore(users, bits, seed);
  if (!store.ok()) return Fail(store.status());
  Rng rng(seed ^ 0xC1A57E);
  std::vector<Shf> queries;
  queries.reserve(num_queries);
  for (std::size_t q = 0; q < num_queries; ++q) {
    queries.push_back(store->Extract(static_cast<UserId>(rng.Below(users))));
  }

  obs::MetricRegistry registry;
  obs::PipelineContext ctx;
  ctx.metrics = &registry;
  net::PosixTransport transport;
  net::ClusterCoordinator::Options options;
  options.deadline_micros =
      static_cast<uint64_t>(flags.GetInt("deadline-ms", 2000)) * 1000;
  options.hedge_delay_micros =
      static_cast<uint64_t>(flags.GetInt("hedge-us", 0));
  options.max_attempts_per_shard =
      static_cast<std::size_t>(flags.GetInt("max-attempts", 3));
  net::ClusterCoordinator coordinator(config, &transport, options, &ctx);

  WallTimer timer;
  auto answer = coordinator.QueryBatch(queries, k);
  const double ms = timer.ElapsedSeconds() * 1e3;
  if (!answer.ok()) return Fail(answer.status());
  std::printf(
      "%zu quer%s over %zu shard(s): %zu/%zu answered in %.1f ms "
      "(%llu requests, %llu failovers, %llu hedges)\n",
      num_queries, num_queries == 1 ? "y" : "ies", shards,
      answer->shards_answered, answer->shards_total, ms,
      static_cast<unsigned long long>(
          registry.GetCounter("net.requests")->value()),
      static_cast<unsigned long long>(
          registry.GetCounter("net.failovers")->value()),
      static_cast<unsigned long long>(
          registry.GetCounter("net.hedges")->value()));
  for (std::size_t s = 0; s < answer->shard_status.size(); ++s) {
    if (!answer->shard_status[s].ok()) {
      std::printf("  shard %zu: %s\n", s,
                  answer->shard_status[s].ToString().c_str());
    }
  }

  if (flags.GetBool("no-verify")) return 0;
  if (!answer->complete()) {
    return Fail(Status::Unavailable(
        "partial answer; bit-exactness needs the full quorum "
        "(pass --no-verify to accept degraded results)"));
  }
  const ScanQueryEngine scan(*store);
  auto truth = scan.QueryBatch(queries, k);
  if (!truth.ok()) return Fail(truth.status());
  for (std::size_t q = 0; q < num_queries; ++q) {
    const auto& got = answer->results[q];
    const auto& want = (*truth)[q];
    bool exact = got.size() == want.size();
    for (std::size_t i = 0; exact && i < want.size(); ++i) {
      exact = got[i].id == want[i].id &&
              got[i].similarity == want[i].similarity;
    }
    if (!exact) {
      return Fail(Status::Internal(
          "query " + std::to_string(q) +
          ": distributed answer diverged from the local scan"));
    }
  }
  std::printf("verified: all replies bit-identical to the local scan\n");
  return 0;
}

}  // namespace
}  // namespace gf::tools

int main(int argc, char** argv) {
  auto flags = gf::Flags::Parse(argc, argv);
  if (!flags.ok()) return gf::tools::Fail(flags.status());
  if (flags->positional().empty()) return gf::tools::Usage();
  const std::string& command = flags->positional()[0];
  if (command == "help") return gf::tools::Usage();
  if (command == "generate") return gf::tools::CmdGenerate(*flags);
  if (command == "load") return gf::tools::CmdLoad(*flags);
  if (command == "stats") return gf::tools::CmdStats(*flags);
  if (command == "knn") return gf::tools::CmdKnn(*flags);
  if (command == "recommend") return gf::tools::CmdRecommend(*flags);
  if (command == "privacy") return gf::tools::CmdPrivacy(*flags);
  if (command == "fingerprint") return gf::tools::CmdFingerprint(*flags);
  if (command == "index") return gf::tools::CmdIndex(*flags);
  if (command == "serve") return gf::tools::CmdServe(*flags);
  if (command == "calibrate") return gf::tools::CmdCalibrate(*flags);
  if (command == "cluster-query") return gf::tools::CmdClusterQuery(*flags);
  if (command == "version") return gf::tools::CmdVersion(*flags);
  std::fprintf(stderr, "gfk: unknown subcommand '%s' (try gfk help)\n",
               command.c_str());
  return 1;
}
