// The serving workloads. All three share the bench/util "100k-user
// config" (MicroBenchSpec(..., 100000) + GenerateZipfOrDie, seeded by
// --seed): 1024-bit SHFs, k = 10 per query, one 4-thread pool, and a
// QueryService front-end (max_batch 64, 200 us linger, queue 1024).
// Each runs, after an untimed warm-up, two timed phases, interleaved
// as kRounds rounds:
//
//   1. open loop: Poisson arrivals at a fixed offered rate (a constant
//      below, derived from the parent commit's measured capacity); the
//      schedule comes from the seed and every request is timed from its
//      due time. The traced run's loadgen.query_p50_ms / _p99_ms and
//      the layer timings come from here.
//   2. closed loop: kWindow = 2 x max_batch requests kept outstanding so
//      coalesced batches stay full; the capacity, lists_per_s, comes
//      from here.
//
// End-to-end metrics, the same four as every workload: setup_s,
// peak_rss_mb, lists_per_s (answers per second in the closed loop: each
// answer is one neighbor list) and avg_sim (mean similarity of the
// returned neighbors per distinct sampled visitor; on serve_hot and
// serve_cluster the sample is the one checked against the scan). The
// open-loop latency and serve_churn's ingest lag are traced-run layer
// metrics: the latency did not hold a 0.25 bound from seed to seed on a
// shared VM, and every workload must report every end-to-end metric
// (NOTES.md).
//
// serve_hot
//   Zipf(s = 1.0) arrivals over 16,384 distinct visitor SHFs through
//   QueryService (cache_try = AsCacheTryFn) -> L1 ServingCache (4,096
//   entries) -> SnapshotQueryEngine (4 shards) over one fixed snapshot.
//   Why: rating traffic is popularity-skewed, so most requests are
//   answered inside Submit; the visitor pool is 4x the cache, so misses
//   and evictions still happen while the scan serves only misses.
//   Predictions: knn.serving_cache.hit_ratio high and probe_us_p50 on
//   the blocking path of the median request; snapshot_query.dup_share
//   highest here; rebuilds = 1; ingest and net metrics 0;
//   common.simd and sharded_query see little work; the traced
//   loadgen.query_p50_ms is a cache hit.
//   Not a workload of BENCHMARK.json: its closed-loop capacity is
//   bimodal from run to run (NOTES.md, defect c), so lists_per_s could
//   not hold a 0.25 bound. It still runs for the layer figures.
//
// serve_churn
//   Uniform arrivals over all 100k users' SHFs (cache hits ~ 0) through
//   the same stack, but the snapshot source is a VersionedStore fed by
//   an IngestService: a fixed-rate stream of state-changing add/remove
//   events, published every 1,024 events, repairing a k = 30 graph that
//   Cluster-and-Conquer builds at set-up.
//   Why: the scan, epoch re-pinning and publish/repair do the work and
//   the cache is pure overhead (probe, fill, stale reclaim), so a cache
//   or ingest change that costs the miss path shows here.
//   Predictions: sharded_query.scan_ms_mean, common.simd.*, snapshot
//   rebuilds, knn.ingest.* and live_snapshots_max carry the work and
//   move lists_per_s, knn.ingest.lag_* and the traced loadgen.query_*;
//   serving_cache.hit_ratio ~ 0 with stale_evictions > 0; net.* 0.
//
// serve_cluster
//   The same uniform reads, no writes, through QueryService ->
//   ClusterCoordinator -> PosixTransport over loopback -> 2 shards
//   served by in-process PosixServer + ReplicaServer (sharing the pool).
//   Why: the only path with wire encode/decode, per-call connect and
//   thread spawn, and the coordinator merge.
//   Predictions: net.coordinator.batch_ms_*, net.replica.handle_ms_p50,
//   net.wire_ms_p50 and net.bytes_per_query move lists_per_s and the
//   traced loadgen.query_p50_ms; cache,
//   snapshot_query and ingest metrics 0.
//   Known defect, left visible: PosixServer keeps one finished thread
//   per accepted connection until Stop() and BlockingCall connects per
//   call, so peak_rss_mb grows with the calls served; the per-call
//   connect also makes the open-loop latency bimodal from run to run
//   (NOTES.md).
//
// Output checks, outside the timed windows; a mismatch is a failed
// operation and fails the run:
//   serve_hot / serve_cluster: a seeded sample of up to kMaxSamples
//     answers is bit-identical to ScanQueryEngine over the same store.
//   serve_churn: sampled QueryBatchPinned batches are bit-identical to
//     a scan of their pinned snapshot, and the final epoch's words and
//     cardinalities are bit-identical to a rebuild of the write side.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <malloc.h>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "common/random.h"
#include "common/thread_pool.h"
#include "core/fingerprint_store.h"
#include "core/store_snapshot.h"
#include "core/versioned_store.h"
#include "knn/builder.h"
#include "knn/ingest.h"
#include "knn/query.h"
#include "knn/query_service.h"
#include "knn/serving_cache.h"
#include "knn/snapshot_query.h"
#include "loadgen.h"
#include "net/coordinator.h"
#include "net/posix_transport.h"
#include "net/replica_server.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "spans.h"
#include "util/bench_env.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Answer = std::vector<gf::Neighbor>;
using AnswerFuture = std::future<gf::Result<Answer>>;

constexpr std::size_t kUsers = 100000;
constexpr std::size_t kBits = 1024;
constexpr std::size_t kK = 10;
constexpr std::size_t kEngineShards = 4;
constexpr std::size_t kClusterShards = 2;
constexpr std::size_t kMaxBatch = 64;
constexpr std::size_t kMaxQueue = 1024;
constexpr uint64_t kMaxWaitMicros = 200;
constexpr std::size_t kWindow = 2 * kMaxBatch;
constexpr std::size_t kCacheEntries = 4096;
constexpr std::size_t kHotVisitors = 16384;
constexpr double kHotZipfS = 1.0;
constexpr std::size_t kPublishEvery = 1024;
constexpr std::size_t kGraphK = 30;
constexpr double kWarmupSeconds = 1.5;      // closed loop, then
constexpr double kWarmupOpenSeconds = 1.0;  // open loop, untimed
// serve_hot's cache turns over slowly (only misses fill it), so its
// warm-up runs until ~10 cache capacities of requests were sent.
constexpr std::size_t kHotWarmupRequests = 10 * kCacheEntries;
constexpr double kOpenShare = 0.5;  // of --seconds; the rest is closed loop
// The timed phases run as kRounds interleaved rounds (open segment, then
// closed segment), so both phases meet the same machine conditions; the
// capacity is that of the median closed segment.
constexpr int kRounds = 5;
constexpr std::size_t kMaxSamples = 4096;
constexpr uint64_t kSampleEvery = 4;
// serve_churn's pinned samples are taken in an untimed tail after the
// last round, at least kPinnedSpacingNs apart, so that no epoch the
// benchmark holds for the check counts in a timed figure.
constexpr std::size_t kPinnedSamples = 4;
constexpr int64_t kPinnedSpacingNs = 500'000'000;
constexpr double kTailSeconds = 2.0;
constexpr int kProgramNice = 5;  // see RunNiced
constexpr int64_t kSpinNanos = 50'000;

enum class Kind { kHot, kChurn, kCluster };
// kTail: the untimed closed loop after the last round in which
// serve_churn takes its pinned output-check samples.
enum Phase : uint8_t { kWarmup = 0, kOpen = 1, kClosed = 2, kTail = 3 };

bool IsTimed(uint8_t phase) { return phase == kOpen || phase == kClosed; }

struct Shape {
  Kind kind;
  double open_rate;   // offered queries/s in the open-loop phase
  double event_rate;  // ingest events/s through every phase (serve_churn)
};

// Rates: constants, never calibrated at run time (NOTES.md has the
// measurements). Open loop: a sixth to a seventh of the closed-loop
// capacity each workload measures at the parent commit (hot 7,400/s,
// churn 1,750/s, cluster 2,000/s), so that the one- or two-query
// batches of the open loop keep the single dispatcher short of
// saturation even when the shared host runs a third slower; >= 2,200
// samples per run at --seconds 15. Events: half of the ingest capacity
// that `--workload ingest_capacity` measures (~950 events/s, about
// 1.05 s of publish and repair per 1,024-event epoch).
Shape ShapeOf(const std::string& workload) {
  if (workload == "serve_hot") return {Kind::kHot, 1000.0, 0.0};
  if (workload == "serve_churn") return {Kind::kChurn, 300.0, 480.0};
  // Ingest alone, as fast as the service admits events
  // (RunIngestCapacity); the rate only sizes the generated stream.
  if (workload == "ingest_capacity") return {Kind::kChurn, 0.0, 4096.0};
  return {Kind::kCluster, 300.0, 0.0};
}

// ---------------------------------------------------------------------
// Inputs: everything generated from the seed before the program runs.

struct Inputs {
  std::optional<gf::Dataset> dataset;
  std::optional<gf::FingerprintStore> store;  // epoch-0 fingerprints
  std::vector<gf::Shf> hot_visitors;          // serve_hot's visitor pool
  // Per round: open-loop arrival offsets from the segment start, and
  // the visitor each arrival asks for.
  std::vector<std::vector<int64_t>> open_due;
  std::vector<std::vector<uint32_t>> open_visitors;
  std::vector<gf::RatingEvent> events;        // serve_churn
  std::shared_ptr<const gf::KnnGraph> graph;  // serve_churn: C&C, k = 30
  std::vector<gf::FingerprintStore> slices;   // serve_cluster shards
  std::vector<gf::UserId> slice_begins;

  std::size_t NumVisitors() const {
    return hot_visitors.empty() ? store->num_users() : hot_visitors.size();
  }
  gf::Shf Visitor(uint32_t v) const {
    return hot_visitors.empty() ? store->Extract(v) : hot_visitors[v];
  }
};

[[noreturn]] void Die(const char* what, const gf::Status& status) {
  std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
  std::exit(1);
}

// Draws visitor indices: Zipf over the hot pool, uniform otherwise.
class VisitorDraw {
 public:
  VisitorDraw(const Inputs& in, uint64_t seed) : rng_(seed) {
    if (!in.hot_visitors.empty()) {
      zipf_.emplace(in.hot_visitors.size(), kHotZipfS, seed);
    }
    n_ = in.NumVisitors();
  }
  uint32_t Next() {
    return static_cast<uint32_t>(zipf_ ? zipf_->Next() : rng_.Below(n_));
  }

 private:
  gf::Rng rng_;
  std::optional<gf::bench::ZipfQuerySampler> zipf_;
  std::size_t n_ = 0;
};

// State-changing add/remove events against a shadow of the profiles:
// an add names an item the user lacks, a remove one the user has, so
// every accepted event applies and event i lands in the epoch the
// publish cadence gives it.
std::vector<gf::RatingEvent> MakeEvents(const gf::Dataset& dataset,
                                        std::size_t count, uint64_t seed) {
  gf::Rng rng(seed);
  std::unordered_map<gf::UserId, std::vector<gf::ItemId>> shadow;
  std::vector<gf::RatingEvent> events;
  events.reserve(count);
  const std::size_t items = dataset.NumItems();
  while (events.size() < count) {
    const auto user = static_cast<gf::UserId>(rng.Below(dataset.NumUsers()));
    auto [it, fresh] = shadow.try_emplace(user);
    std::vector<gf::ItemId>& profile = it->second;
    if (fresh) {
      const auto p = dataset.Profile(user);
      profile.assign(p.begin(), p.end());
    }
    const bool remove = !profile.empty() &&
                        (profile.size() >= items || rng.Below(2) == 0);
    if (remove) {
      const std::size_t at = rng.Below(profile.size());
      events.push_back(gf::RatingEvent::Remove(user, profile[at]));
      profile.erase(profile.begin() + static_cast<std::ptrdiff_t>(at));
      continue;
    }
    for (;;) {
      const auto item = static_cast<gf::ItemId>(rng.Below(items));
      const auto pos = std::lower_bound(profile.begin(), profile.end(), item);
      if (pos != profile.end() && *pos == item) continue;
      profile.insert(pos, item);
      events.push_back(gf::RatingEvent::Add(user, item));
      break;
    }
  }
  return events;
}

gf::FingerprintStore Slice(const gf::FingerprintStore& store, gf::UserId begin,
                           gf::UserId end) {
  const std::size_t words_per_shf = store.words_per_shf();
  std::vector<uint64_t> words;
  words.reserve(static_cast<std::size_t>(end - begin) * words_per_shf);
  std::vector<uint32_t> cards;
  cards.reserve(end - begin);
  for (gf::UserId u = begin; u < end; ++u) {
    const auto row = store.WordsOf(u);
    words.insert(words.end(), row.begin(), row.end());
    cards.push_back(store.CardinalityOf(u));
  }
  auto slice = gf::FingerprintStore::FromRaw(store.config(), end - begin,
                                             std::move(words), std::move(cards));
  if (!slice.ok()) Die("slice", slice.status());
  return std::move(slice).value();
}

std::unique_ptr<Inputs> MakeInputs(const Shape& shape, const RunConfig& run,
                                   gf::ThreadPool* pool,
                                   const gf::obs::PipelineContext* obs) {
  auto in = std::make_unique<Inputs>();
  in->dataset = gf::bench::GenerateZipfOrDie(
      gf::bench::MicroBenchSpec("serve", kUsers, 0, 0.0, run.seed));
  gf::FingerprintConfig config;
  config.num_bits = kBits;
  auto store = gf::FingerprintStore::Build(*in->dataset, config, pool, obs);
  if (!store.ok()) Die("store", store.status());
  in->store = std::move(store).value();


  const uint64_t seed = gf::SplitMix64(run.seed);
  if (shape.kind == Kind::kHot) {
    // Distinct by cache key: a repeated visitor would be one cache entry.
    gf::Rng rng(seed ^ 0x407);
    std::unordered_set<uint64_t> keys;
    while (in->hot_visitors.size() < kHotVisitors) {
      gf::Shf shf = in->store->Extract(
          static_cast<gf::UserId>(rng.Below(in->store->num_users())));
      if (keys.insert(gf::ServingCache::CanonicalHash(shf, kK)).second) {
        in->hot_visitors.push_back(std::move(shf));
      }
    }
  }
  // Index kRounds is the untimed open-loop segment that ends warm-up.
  const double segment_seconds = run.seconds * kOpenShare / kRounds;
  VisitorDraw draw(*in, seed ^ 0x0B15);
  for (int r = 0; r <= kRounds && shape.open_rate > 0; ++r) {
    in->open_due.push_back(PoissonSchedule(
        shape.open_rate, r < kRounds ? segment_seconds : kWarmupOpenSeconds,
        seed ^ (0x0BE7 + static_cast<uint64_t>(r))));
    in->open_visitors.emplace_back(in->open_due.back().size());
    for (uint32_t& v : in->open_visitors.back()) v = draw.Next();
  }

  if (shape.kind == Kind::kChurn) {
    // Enough events for warm-up, every round and the drains, with room
    // for a slow machine.
    const auto count = static_cast<std::size_t>(
        shape.event_rate * (kWarmupSeconds + 2 * run.seconds + 10.0));
    in->events = MakeEvents(*in->dataset, count, seed ^ 0xE7E7);
    gf::KnnPipelineConfig cc;
    cc.algorithm = gf::KnnAlgorithm::kClusterConquer;
    cc.mode = gf::SimilarityMode::kGoldFinger;
    cc.greedy.k = kGraphK;
    cc.fingerprint = config;
    gf::obs::PipelineContext ctx = obs != nullptr ? *obs : gf::obs::PipelineContext{};
    ctx.pool = pool;
    auto built = gf::BuildKnnGraph(*in->dataset, cc, ctx);
    if (!built.ok()) Die("graph", built.status());
    in->graph = std::make_shared<const gf::KnnGraph>(std::move(built->graph));
  }
  if (shape.kind == Kind::kCluster) {
    in->slice_begins = gf::ShardedFingerprintStore::BalancedBegins(
        in->store->num_users(), kClusterShards);
    for (std::size_t s = 0; s < kClusterShards; ++s) {
      const gf::UserId end = s + 1 < kClusterShards
                                 ? in->slice_begins[s + 1]
                                 : static_cast<gf::UserId>(in->store->num_users());
      in->slices.push_back(Slice(*in->store, in->slice_begins[s], end));
    }
  }
  return in;
}

// ---------------------------------------------------------------------
// The serving stack and the benchmark's wrappers around its public
// calls.

// VersionedStore stamps published_micros through its clock once per
// epoch (epoch 0 at construction), so recording the readings gives
// every epoch's publish time without polling.
class PublishLog final : public gf::Clock {
 public:
  uint64_t NowMicros() override {
    const uint64_t now = gf::Clock::System()->NowMicros();
    const std::lock_guard<std::mutex> lock(mu_);
    stamps_.push_back(now);
    return now;
  }
  void SleepMicros(uint64_t micros) override {
    gf::Clock::System()->SleepMicros(micros);
  }
  std::vector<uint64_t> Stamps() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return stamps_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<uint64_t> stamps_;
};

struct BatchRec {
  int64_t start = 0, end = 0;
  std::size_t size = 0;
  std::size_t dups = 0;  // traced only
};

struct HandleRec {
  int64_t start = 0, end = 0;
  std::size_t bytes = 0;  // request + response frame
};

struct PinnedSample {
  gf::SnapshotPtr snapshot;
  std::vector<gf::Shf> queries;
  std::vector<Answer> results;
};

struct Hooks {
  bool traced = false;
  // Sender thread: the cache probe runs inside Submit.
  bool probe_hit = false;
  int64_t probe_start = 0, probe_end = 0;
  // Dispatcher thread; read after the service has shut down.
  std::vector<BatchRec> batches;
  std::vector<PinnedSample> pinned;
  int64_t last_pinned_ns = 0;
  uint64_t partial_answers = 0;
  std::atomic<int64_t> sample_after{std::numeric_limits<int64_t>::max()};
  // Replica handler threads (serve_cluster, traced).
  std::mutex handles_mu;
  std::vector<HandleRec> handles;
};

std::size_t CountDuplicates(std::span<const gf::Shf> queries) {
  std::unordered_set<uint64_t> seen;
  std::size_t dups = 0;
  for (const gf::Shf& q : queries) {
    if (!seen.insert(gf::ServingCache::CanonicalHash(q, kK)).second) ++dups;
  }
  return dups;
}

struct Stack {
  Hooks hooks;
  PublishLog publish_log;
  std::unique_ptr<gf::FixedSnapshotSource> fixed;
  std::unique_ptr<gf::VersionedStore> versioned;
  std::unique_ptr<gf::SnapshotQueryEngine> engine;
  std::unique_ptr<gf::IngestService> ingest;
  std::vector<std::unique_ptr<gf::net::ReplicaServer>> replicas;
  std::vector<std::unique_ptr<gf::net::PosixServer>> servers;
  std::unique_ptr<gf::net::PosixTransport> transport;
  std::unique_ptr<gf::net::ClusterCoordinator> coordinator;
  std::unique_ptr<gf::QueryService> service;  // last: shuts down first
};

std::unique_ptr<Stack> MakeStack(const Shape& shape, const Inputs& in,
                                 gf::ThreadPool* pool,
                                 const gf::obs::PipelineContext* obs) {
  auto stack = std::make_unique<Stack>();
  Hooks& hooks = stack->hooks;
  hooks.traced = obs != nullptr;
  gf::QueryService::Options service_options;
  service_options.max_queue = kMaxQueue;
  service_options.max_batch = kMaxBatch;
  service_options.max_wait_micros = kMaxWaitMicros;
  service_options.expected_bits = kBits;
  gf::QueryService::BatchFn batch_fn;

  if (shape.kind == Kind::kCluster) {
    gf::net::ClusterConfig cluster;
    cluster.num_users = static_cast<gf::UserId>(in.store->num_users());
    cluster.shard_begins = in.slice_begins;
    for (std::size_t s = 0; s < in.slices.size(); ++s) {
      stack->replicas.push_back(std::make_unique<gf::net::ReplicaServer>(
          in.slices[s], in.slice_begins[s], pool, obs));
      const gf::net::ReplicaServer* replica = stack->replicas.back().get();
      stack->servers.push_back(std::make_unique<gf::net::PosixServer>(
          [replica, &hooks](std::string_view frame) {
            const int64_t t0 = NowNanos();
            std::string response = replica->Handle(frame);
            if (hooks.traced) {
              const int64_t t1 = NowNanos();
              const std::lock_guard<std::mutex> lock(hooks.handles_mu);
              hooks.handles.push_back({t0, t1, frame.size() + response.size()});
            }
            return response;
          }));
      if (const gf::Status status = stack->servers.back()->Start(0);
          !status.ok()) {
        Die("replica server", status);
      }
      cluster.replicas.push_back(
          {"127.0.0.1:" + std::to_string(stack->servers.back()->port())});
    }
    stack->transport = std::make_unique<gf::net::PosixTransport>();
    stack->coordinator = std::make_unique<gf::net::ClusterCoordinator>(
        std::move(cluster), stack->transport.get(),
        gf::net::ClusterCoordinator::Options{}, obs);
    gf::net::ClusterCoordinator* coordinator = stack->coordinator.get();
    batch_fn = [coordinator, &hooks](std::span<const gf::Shf> queries,
                                     std::size_t k)
        -> gf::Result<std::vector<Answer>> {
      const int64_t t0 = NowNanos();
      auto answer = coordinator->QueryBatch(queries, k);
      hooks.batches.push_back({t0, NowNanos(), queries.size(),
                               hooks.traced ? CountDuplicates(queries) : 0});
      if (!answer.ok()) return answer.status();
      if (!answer->complete()) {
        ++hooks.partial_answers;
        return gf::Status::Unavailable("partial cluster answer");
      }
      return std::move(answer->results);
    };
  } else {
    const gf::SnapshotSource* source = nullptr;
    if (shape.kind == Kind::kHot) {
      stack->fixed = std::make_unique<gf::FixedSnapshotSource>(*in.store);
      source = stack->fixed.get();
    } else {
      auto write_side =
          gf::MutableFingerprintStore::FromDataset(*in.dataset, in.store->config());
      if (!write_side.ok()) Die("write side", write_side.status());
      stack->versioned = std::make_unique<gf::VersionedStore>(
          std::move(write_side).value(), in.graph, &stack->publish_log);
      source = stack->versioned.get();
    }
    gf::SnapshotQueryEngine::Options engine_options;
    engine_options.num_shards = kEngineShards;
    engine_options.cache_capacity = kCacheEntries;
    stack->engine =
        std::make_unique<gf::SnapshotQueryEngine>(source, engine_options, pool, obs);
    if (shape.kind == Kind::kChurn) {
      gf::IngestService::Options ingest_options;
      ingest_options.publish_every = kPublishEvery;
      stack->ingest = std::make_unique<gf::IngestService>(
          stack->versioned.get(), ingest_options, obs);
    }
    const gf::SnapshotQueryEngine* engine = stack->engine.get();
    batch_fn = [engine, &hooks](std::span<const gf::Shf> queries,
                                std::size_t k) -> gf::Result<std::vector<Answer>> {
      const int64_t t0 = NowNanos();
      auto pinned = engine->QueryBatchPinned(queries, k);
      const int64_t t1 = NowNanos();
      hooks.batches.push_back(
          {t0, t1, queries.size(), hooks.traced ? CountDuplicates(queries) : 0});
      if (!pinned.ok()) return pinned.status();
      // A few full-ish batches of the untimed tail keep their pinned
      // epoch for the bit-exactness check after the run (each held
      // epoch costs one store's memory until then).
      if (t0 >= hooks.sample_after.load(std::memory_order_relaxed) &&
          hooks.pinned.size() < kPinnedSamples &&
          queries.size() >= kMaxBatch / 2 &&
          t0 - hooks.last_pinned_ns >= kPinnedSpacingNs) {
        hooks.last_pinned_ns = t0;
        hooks.pinned.push_back({pinned->snapshot,
                                {queries.begin(), queries.end()},
                                pinned->results});
      }
      return std::move(pinned->results);
    };
    service_options.cache_try = [inner = engine->AsCacheTryFn(), &hooks](
                                    const gf::Shf& query, std::size_t k,
                                    Answer* out) {
      hooks.probe_start = NowNanos();
      hooks.probe_hit = inner(query, k, out);
      hooks.probe_end = NowNanos();
      return hooks.probe_hit;
    };
  }
  stack->service = std::make_unique<gf::QueryService>(std::move(batch_fn),
                                                      service_options, obs);
  return stack;
}

// ---------------------------------------------------------------------
// The load generator: this thread sends, one collector thread waits on
// queued requests in FIFO order. Hits resolve inside Submit and are
// stamped by the sender. Nothing polls.

struct ReqRec {
  int64_t due = 0, submit_start = 0, submit_end = 0, done = 0;
  int64_t probe_start = 0, probe_end = 0;
  int64_t queued_seq = -1;  // position in the service queue; -1 = not queued
  uint32_t visitor = 0;
  uint8_t phase = kWarmup;
  uint8_t round = 0;
  bool hit = false, ok = false, rejected = false;
};

// One timed segment. Requests it sent may finish during the drain that
// follows `deadline`; batches started before `next` belong to it.
struct Segment {
  Phase phase = kOpen;
  int round = 0;
  int64_t start = 0, deadline = 0, next = 0;
};

class LoadGen {
 public:
  LoadGen(Stack& stack, const Inputs& in, const Shape& shape, uint64_t seed)
      : stack_(stack), in_(in), seed_(seed) {
    event_interval_ns_ =
        shape.event_rate > 0 ? static_cast<int64_t>(1e9 / shape.event_rate) : 0;
    TightenTimerSlack();  // this thread is the sender
    collector_ = std::thread([this] { CollectLoop(); });
  }

  ~LoadGen() { StopCollector(); }

  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  /// Untimed, until lazy set-up has finished: closed loop in steps of
  /// `seconds` until at least `min_requests` were sent, then an
  /// open-loop segment.
  void Warmup(double seconds, std::size_t min_requests) {
    StartEvents();
    do {
      ClosedLoop(seconds, kWarmup, 0, seed_ ^ 0x3A3A ^ reqs_.size());
    } while (reqs_.size() < min_requests);
    OpenLoop(kRounds, kWarmup);
  }

  /// Open-loop segment of round `round`: requests sent on the seeded
  /// schedule, each timed from its due time. With kWarmup, the untimed
  /// segment that ends warm-up, so the first timed round does not pay
  /// for the switch from closed to open loop.
  void OpenLoop(int round, Phase phase = kOpen) {
    const int64_t start = NowNanos() + 1'000'000;
    const std::vector<int64_t>& due_offsets = in_.open_due[round];
    if (phase == kOpen) {
      BeginSegment(kOpen, round, start);
    } else {
      phase_ = phase;
    }
    for (std::size_t i = 0; i < due_offsets.size(); ++i) {
      const int64_t due = start + due_offsets[i];
      for (int64_t next = NextEventDue(); next < due; next = NextEventDue()) {
        SleepUntilNanos(next);
        SubmitDueEvents();
      }
      WaitForDue(due);
      SubmitQuery(in_.open_visitors[round][i], due);
    }
    if (phase == kOpen) segments_.back().deadline = NowNanos();
    Drain();
  }

  /// Closed-loop segment: kWindow requests outstanding for `seconds`.
  void ClosedLoop(double seconds, Phase phase, int round, uint64_t seed) {
    VisitorDraw draw(in_, seed);
    const int64_t start = NowNanos();
    const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
    if (!IsTimed(phase)) {
      phase_ = phase;
    } else {
      BeginSegment(phase, round, start);
      segments_.back().deadline = end;
    }
    for (;;) {
      WaitUntil([this] { return queued_ - completed_ < kWindow; }, end);
      const int64_t now = NowNanos();
      if (now >= end) break;
      SubmitQuery(draw.Next(), now);
    }
    Drain();
  }

  /// Closes the last timed segment: later batches belong to none.
  void EndTimed() { segments_.back().next = NowNanos(); }

  /// Untimed closed loop after the timed rounds (serve_churn): the
  /// pinned output-check samples are taken here, so the epochs the
  /// benchmark holds count in no timed figure.
  void Tail(double seconds) {
    stack_.hooks.sample_after.store(NowNanos(), std::memory_order_relaxed);
    ClosedLoop(seconds, kTail, 0, seed_ ^ 0x7A17);
  }

  /// Joins the collector and folds its records into the sender's.
  void Finish() {
    StopCollector();
    for (const Done& d : done_) {
      reqs_[d.id].done = d.done;
      reqs_[d.id].ok = d.ok;
    }
    for (auto& [id, answer] : collector_answers_) {
      answers_.emplace_back(id, std::move(answer));
    }
  }

  std::deque<ReqRec>& reqs() { return reqs_; }
  std::vector<std::pair<uint64_t, Answer>>& answers() { return answers_; }
  const std::vector<int64_t>& event_submit_ns() const { return event_submit_ns_; }
  const std::vector<uint8_t>& event_phase() const { return event_phase_; }
  uint64_t events_rejected() const { return events_rejected_; }
  std::size_t depth_max() const { return depth_max_; }
  int64_t live_snapshots_max() const { return live_max_; }
  const std::vector<Segment>& segments() const { return segments_; }

 private:
  struct Pending {
    uint64_t id = 0;
    AnswerFuture future;
    bool sampled = false;
  };
  struct Done {
    uint64_t id = 0;
    int64_t done = 0;
    bool ok = false;
  };
  static constexpr int64_t kNever = std::numeric_limits<int64_t>::max();

  bool Timed() const { return IsTimed(phase_); }

  void BeginSegment(Phase phase, int round, int64_t start) {
    if (!segments_.empty()) segments_.back().next = start;
    phase_ = phase;
    round_ = round;
    segments_.push_back({phase, round, start, start, start});
  }

  // Sleeps to just short of `due`, then spins, so a request is sent on
  // time rather than one timer wake-up late.
  static void WaitForDue(int64_t due) {
    SleepUntilNanos(due - kSpinNanos);
    while (NowNanos() < due) {
    }
  }

  void SubmitQuery(uint32_t visitor, int64_t due) {
    const uint64_t id = reqs_.size();
    ReqRec& rec = reqs_.emplace_back();
    rec.due = due;
    rec.visitor = visitor;
    rec.phase = phase_;
    rec.round = static_cast<uint8_t>(round_);
    const bool sampled = Timed() && sampled_ < kMaxSamples &&
                         gf::SplitMix64(seed_ ^ id) % kSampleEvery == 0;
    if (sampled) ++sampled_;
    gf::Shf query = in_.Visitor(visitor);
    Hooks& hooks = stack_.hooks;
    hooks.probe_hit = false;
    hooks.probe_start = hooks.probe_end = 0;
    rec.submit_start = NowNanos();
    AnswerFuture future = stack_.service->Submit(std::move(query), kK);
    rec.submit_end = NowNanos();
    rec.hit = hooks.probe_hit;
    rec.probe_start = hooks.probe_start;
    rec.probe_end = hooks.probe_end;
    if (!rec.hit &&
        future.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
      Enqueue(rec, {id, std::move(future), sampled});
      return;
    }
    // Resolved inside Submit: a cache hit, or refused before queueing.
    gf::Result<Answer> result = future.get();
    rec.done = NowNanos();
    rec.ok = result.ok();
    if (!rec.hit && result.ok()) {
      // Served by a batch before Submit returned: still a queued request.
      const std::lock_guard<std::mutex> lock(mu_);
      rec.queued_seq = static_cast<int64_t>(queued_++);
      ++completed_;
    }
    rec.rejected = !rec.hit && !result.ok();
    if (sampled && result.ok()) answers_.emplace_back(id, std::move(result).value());
  }

  void Enqueue(ReqRec& rec, Pending pending) {
    const std::lock_guard<std::mutex> lock(mu_);
    rec.queued_seq = static_cast<int64_t>(queued_++);
    fifo_.push_back(std::move(pending));
    cv_.notify_all();
  }

  void CollectLoop() {
    for (;;) {
      Pending pending;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return !fifo_.empty() || closing_; });
        if (fifo_.empty()) return;
        pending = std::move(fifo_.front());
        fifo_.pop_front();
      }
      gf::Result<Answer> result = pending.future.get();
      const int64_t done = NowNanos();
      done_.push_back({pending.id, done, result.ok()});
      if (pending.sampled && result.ok()) {
        collector_answers_.emplace_back(pending.id, std::move(result).value());
      }
      const std::lock_guard<std::mutex> lock(mu_);
      ++completed_;
      cv_.notify_all();
    }
  }

  void StopCollector() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      closing_ = true;
      cv_.notify_all();
    }
    if (collector_.joinable()) collector_.join();
  }

  // Waits until every queued request has been collected.
  void Drain() {
    WaitUntil([this] { return completed_ == queued_; }, kNever);
  }

  // Waits (mu_ held for `ready`) until `ready` or `deadline`, submitting
  // ingest events as they fall due.
  template <typename Ready>
  void WaitUntil(Ready ready, int64_t deadline) {
    std::unique_lock<std::mutex> lock(mu_);
    while (!ready()) {
      const int64_t now = NowNanos();
      if (now >= deadline) return;
      const int64_t next_event = NextEventDue();
      if (next_event <= now) {
        lock.unlock();
        SubmitDueEvents();
        lock.lock();
        continue;
      }
      const int64_t wake = std::min(deadline, next_event);
      cv_.wait_until(lock,
                     std::chrono::steady_clock::time_point(std::chrono::nanoseconds(wake)));
    }
  }

  void StartEvents() {
    if (event_interval_ns_ > 0) events_start_ = NowNanos();
  }

  int64_t NextEventDue() const {
    if (event_interval_ns_ == 0 || next_event_ >= in_.events.size()) return kNever;
    return events_start_ + static_cast<int64_t>(next_event_) * event_interval_ns_;
  }

  void SubmitDueEvents() {
    while (NextEventDue() <= NowNanos()) {
      gf::RatingEvent event = in_.events[next_event_++];
      const int64_t t = NowNanos();
      event.enqueued_micros = static_cast<uint64_t>(t / 1000);
      if (stack_.ingest->Submit(event).ok()) {
        event_submit_ns_.push_back(t);
        event_phase_.push_back(phase_);
      } else {
        ++events_rejected_;
        // The cadence mapping assumes every event applies; a refused
        // event breaks it for the rest of the run.
        event_interval_ns_ = 0;
        return;
      }
      if (stack_.hooks.traced && Timed()) {
        depth_max_ = std::max(depth_max_, stack_.ingest->QueueDepth());
        live_max_ = std::max(live_max_, stack_.versioned->LiveSnapshots());
      }
    }
  }

  Stack& stack_;
  const Inputs& in_;
  const uint64_t seed_;
  Phase phase_ = kWarmup;
  int round_ = 0;
  std::vector<Segment> segments_;

  // Sender-owned.
  // Deques: a vector's doubling would stall the sender for milliseconds
  // and briefly hold both copies, which peak_rss_mb would count.
  std::deque<ReqRec> reqs_;
  std::vector<std::pair<uint64_t, Answer>> answers_;
  std::size_t sampled_ = 0;
  int64_t event_interval_ns_ = 0;
  int64_t events_start_ = 0;
  std::size_t next_event_ = 0;
  std::vector<int64_t> event_submit_ns_;
  std::vector<uint8_t> event_phase_;
  uint64_t events_rejected_ = 0;
  std::size_t depth_max_ = 0;
  int64_t live_max_ = 0;

  // Shared with the collector, guarded by mu_.
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> fifo_;
  uint64_t queued_ = 0;
  uint64_t completed_ = 0;
  bool closing_ = false;

  // Collector-owned; read after the join.
  std::deque<Done> done_;
  std::vector<std::pair<uint64_t, Answer>> collector_answers_;

  std::thread collector_;  // last: joined before the rest tears down
};

// ---------------------------------------------------------------------
// Checks and metrics.

bool SameAnswer(const Answer& a, const Answer& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].similarity != b[i].similarity) return false;
  }
  return true;
}

// Sampled answers vs ScanQueryEngine over the same store.
void CheckAgainstScan(const Inputs& in, LoadGen& load, gf::ThreadPool* pool,
                      RunReport* report) {
  std::unordered_map<uint32_t, std::size_t> slot;
  std::vector<gf::Shf> queries;
  for (const auto& [id, answer] : load.answers()) {
    const uint32_t v = load.reqs()[id].visitor;
    if (slot.try_emplace(v, queries.size()).second) queries.push_back(in.Visitor(v));
  }
  const gf::ScanQueryEngine scan(*in.store, pool);
  auto truth = scan.QueryBatch(queries, kK);
  if (!truth.ok()) Die("scan", truth.status());
  std::size_t wrong = 0;
  for (const auto& [id, answer] : load.answers()) {
    if (!SameAnswer(answer, (*truth)[slot[load.reqs()[id].visitor]])) ++wrong;
  }
  std::printf("check: %zu sampled answers (%zu distinct visitors) vs "
              "ScanQueryEngine: %zu mismatched\n",
              load.answers().size(), queries.size(), wrong);
  if (wrong != 0) report->Fail(wrong, "answers differ from the scan");
}

// serve_churn: pinned batches vs a scan of their snapshot, and the final
// epoch vs a from-scratch rebuild of the write side.
void CheckChurn(Stack& stack, gf::ThreadPool* pool, RunReport* report) {
  std::size_t checked = 0, wrong = 0;
  for (const PinnedSample& sample : stack.hooks.pinned) {
    const gf::ScanQueryEngine scan(sample.snapshot, pool);
    auto truth = scan.QueryBatch(sample.queries, kK);
    if (!truth.ok()) Die("scan", truth.status());
    for (std::size_t q = 0; q < sample.queries.size(); ++q, ++checked) {
      if (!SameAnswer(sample.results[q], (*truth)[q])) ++wrong;
    }
  }
  std::printf("check: %zu pinned batches, %zu answers vs a scan of their "
              "epoch: %zu mismatched\n",
              stack.hooks.pinned.size(), checked, wrong);
  if (wrong != 0) report->Fail(wrong, "pinned answers differ from the scan");
  if (stack.hooks.pinned.empty()) report->Fail(1, "no pinned batch sampled");

  const gf::SnapshotPtr snapshot = stack.versioned->Acquire();
  const gf::MutableFingerprintStore& write = stack.versioned->write_side();
  std::vector<std::vector<gf::ItemId>> profiles(write.num_users());
  std::size_t max_item = 0;
  for (gf::UserId u = 0; u < write.num_users(); ++u) {
    const auto profile = write.ProfileOf(u);
    profiles[u].assign(profile.begin(), profile.end());
    for (const gf::ItemId item : profile) {
      max_item = std::max(max_item, static_cast<std::size_t>(item));
    }
  }
  auto dataset = gf::Dataset::FromProfiles(std::move(profiles), max_item + 1);
  if (!dataset.ok()) Die("rebuild dataset", dataset.status());
  auto rebuilt = gf::FingerprintStore::Build(*dataset, write.config(), pool);
  if (!rebuilt.ok()) Die("rebuild store", rebuilt.status());
  const auto live_words = snapshot->store().WordsArena();
  const auto want_words = rebuilt->WordsArena();
  const auto live_cards = snapshot->store().Cardinalities();
  const auto want_cards = rebuilt->Cardinalities();
  const bool same =
      std::equal(live_words.begin(), live_words.end(), want_words.begin(),
                 want_words.end()) &&
      std::equal(live_cards.begin(), live_cards.end(), want_cards.begin(),
                 want_cards.end());
  std::printf("check: final epoch %llu %s a rebuild of the write side\n",
              static_cast<unsigned long long>(snapshot->epoch()),
              same ? "bit-identical to" : "DIFFERS from");
  if (!same) report->Fail(1, "final epoch differs from the rebuild");
}

double Ms(int64_t ns) { return static_cast<double>(ns) * 1e-6; }

struct Counters {
  uint64_t Counter(std::string_view name) const {
    const gf::obs::Counter* c = registry != nullptr ? registry->FindCounter(name) : nullptr;
    return c != nullptr ? c->value() : 0;
  }
  std::pair<uint64_t, double> Histogram(std::string_view name) const {
    const gf::obs::Histogram* h =
        registry != nullptr ? registry->FindHistogram(name) : nullptr;
    return h != nullptr ? std::make_pair(h->count(), h->sum())
                        : std::make_pair(uint64_t{0}, 0.0);
  }
  const gf::obs::MetricRegistry* registry = nullptr;
};

struct Completions {
  double answers = 0.0;
  double seconds = 0.0;
  double Rate() const { return seconds > 0 ? answers / seconds : 0.0; }
};

// Everything one driven stack measured; the traced run derives the
// layer metrics from the same records.
struct Measured {
  std::vector<double> latency_ms;      // open loop, answered, every round
  std::vector<double> p50_ms;          // per round, open loop, answered
  std::vector<Completions> closed;     // per round
  std::vector<double> lag_ms;          // serve_churn, all timed rounds
  double peak_rss_mib = 0.0;           // at the end of the last round
  double avg_sim = 0.0;                // per distinct sampled visitor

  // The median round's closed-loop answers per second: one round that
  // meets a burst of host contention does not move it.
  double Capacity() const {
    std::vector<double> rates;
    for (const Completions& c : closed) rates.push_back(c.Rate());
    return Percentile(rates, 0.5);
  }
};

// The answers of a closed-loop segment after its first completion burst
// and the time from its first to its last completion. Batches resolve in
// bursts of up to max_batch, so counting whole bursts over a fixed
// window would quantise the rate; the first burst only opens the
// interval.
Completions CompletionsOf(std::vector<int64_t> done) {
  if (done.size() < 2) return {};
  std::sort(done.begin(), done.end());
  const int64_t first = done.front();
  const auto after_first = static_cast<double>(
      done.end() - std::upper_bound(done.begin(), done.end(), first + 100'000));
  return {after_first, static_cast<double>(done.back() - first) * 1e-9};
}

const char* WorkloadName(Kind kind) {
  return kind == Kind::kHot     ? "serve_hot"
         : kind == Kind::kChurn ? "serve_churn"
                                : "serve_cluster";
}

Measured Measure(const Shape& shape, Stack& stack, LoadGen& load,
                 RunReport* report) {
  Measured m;
  std::vector<std::vector<double>> latency(kRounds);
  std::vector<std::vector<int64_t>> closed_done(kRounds);
  std::vector<std::vector<double>> late_ms(kRounds);
  std::vector<double> hits(kRounds, 0.0);
  uint64_t refused = 0, errors = 0;
  const std::vector<Segment>& segments = load.segments();
  for (const ReqRec& r : load.reqs()) {
    ++report->attempted;
    if (r.phase == kOpen) {
      late_ms[r.round].push_back(Ms(r.submit_start - r.due));
      hits[r.round] += r.hit;
    }
    if (!r.ok) {
      ++(r.rejected ? refused : errors);
      continue;
    }
    if (r.phase == kOpen) {
      latency[r.round].push_back(Ms(r.done - r.due));
    } else if (r.phase == kClosed &&
               r.done <= segments[2 * r.round + 1].deadline) {
      closed_done[r.round].push_back(r.done);
    }
  }
  if (refused != 0) report->Fail(refused, "requests refused at Submit");
  if (errors != 0) report->Fail(errors, "requests answered with an error");
  for (int r = 0; r < kRounds; ++r) {
    if (!SupportsPercentile(latency[r].size(), 0.5)) {
      report->Fail(1, "too few open-loop samples in a round for its p50");
    }
    m.latency_ms.insert(m.latency_ms.end(), latency[r].begin(), latency[r].end());
    m.p50_ms.push_back(Percentile(latency[r], 0.5));
    m.closed.push_back(CompletionsOf(closed_done[r]));
  }
  if (shape.kind == Kind::kChurn) {
    const std::vector<uint64_t> stamps = stack.publish_log.Stamps();
    const auto& submits = load.event_submit_ns();
    report->attempted += submits.size() + load.events_rejected();
    if (load.events_rejected() != 0) {
      report->Fail(load.events_rejected(), "ingest Submit refused events");
    }
    if (stack.ingest->EventsApplied() != submits.size()) {
      report->Fail(1, "an accepted event did not change state");
    }
    // stamps[e] is epoch e's publish time only if the store read its
    // clock exactly once per epoch (epoch 0 at construction).
    if (stamps.size() != stack.ingest->EpochsPublished() + 1 ||
        stamps.back() != stack.versioned->Acquire()->published_micros()) {
      report->Fail(1, "publish clock readings do not map one-to-one to epochs");
      return m;
    }
    const uint64_t full = FullEpochEvents(submits.size(), kPublishEvery);
    for (uint64_t i = 0; i < full; ++i) {
      if (!IsTimed(load.event_phase()[i])) continue;
      const uint64_t epoch = EpochOfEvent(i, kPublishEvery, 0);
      if (epoch >= stamps.size()) {
        report->Fail(1, "event's epoch was never published");
        break;
      }
      m.lag_ms.push_back(static_cast<double>(stamps[epoch]) * 1e-3 -
                         Ms(submits[i]));
    }
  }
  // A round has a few hundred open-loop samples, too few for its own
  // p99: the p99s are over every round together.
  std::vector<double> all_late;
  for (const auto& late : late_ms) all_late.insert(all_late.end(), late.begin(), late.end());
  std::printf("%s: %d rounds; open loop %zu answered, p50 %.4f ms, p99 %.3f ms, "
              "sender late p99 %.3f ms; per round: sender late p50",
              WorkloadName(shape.kind), kRounds, m.latency_ms.size(),
              Percentile(m.latency_ms, 0.5), Percentile(m.latency_ms, 0.99),
              Percentile(all_late, 0.99));
  for (const auto& late : late_ms) std::printf(" %.4f", Percentile(late, 0.5));
  std::printf(" ms; hit ratio");
  for (int r = 0; r < kRounds; ++r) {
    std::printf(" %.3f", late_ms[r].empty() ? 0.0 : hits[r] / late_ms[r].size());
  }
  std::printf("; p50");
  for (double v : m.p50_ms) std::printf(" %.4f", v);
  std::printf(" ms; capacity");
  for (const Completions& c : m.closed) std::printf(" %.0f", c.Rate());
  std::printf(" /s; %zu ingest lag samples\n", m.lag_ms.size());
  // What the capacity's batches did: how many, how full, how long.
  double closed_batches = 0.0, closed_size = 0.0, closed_ms = 0.0;
  for (const BatchRec& b : stack.hooks.batches) {
    for (const Segment& seg : segments) {
      if (seg.phase == kClosed && b.start >= seg.start && b.start < seg.next) {
        closed_batches += 1.0;
        closed_size += static_cast<double>(b.size);
        closed_ms += Ms(b.end - b.start);
        break;
      }
    }
  }
  std::printf("%s: closed loop %.0f batches, mean size %.1f, mean %.3f ms",
              WorkloadName(shape.kind), closed_batches,
              closed_batches > 0 ? closed_size / closed_batches : 0.0,
              closed_batches > 0 ? closed_ms / closed_batches : 0.0);
  if (stack.engine != nullptr) {
    const gf::ServingCache::Stats cache = stack.engine->cache()->stats();
    std::printf("; cache hits %llu, misses %llu, inserts %llu",
                static_cast<unsigned long long>(cache.hits),
                static_cast<unsigned long long>(cache.misses),
                static_cast<unsigned long long>(cache.inserts));
  }
  std::printf("\n");
  return m;
}

// Runs warm-up and both phases on `stack`, then the output checks.
Measured DriveAll(const Shape& shape, Stack& stack, const Inputs& in,
                  const RunConfig& run, gf::ThreadPool* pool,
                  std::unique_ptr<LoadGen>* out_load, RunReport* report) {
  auto load = std::make_unique<LoadGen>(stack, in, shape, run.seed);
  load->Warmup(kWarmupSeconds, shape.kind == Kind::kHot ? kHotWarmupRequests : 0);
  uint64_t closed_busy_us = 0;
  int64_t closed_ns = 0;
  for (int r = 0; r < kRounds; ++r) {
    load->OpenLoop(r);
    const uint64_t busy0 = pool->busy_micros();
    const int64_t t0 = NowNanos();
    load->ClosedLoop(run.seconds * (1.0 - kOpenShare) / kRounds, kClosed, r,
                     gf::SplitMix64(run.seed) ^ (0xC105 + static_cast<uint64_t>(r)));
    closed_ns += NowNanos() - t0;
    closed_busy_us += pool->busy_micros() - busy0;
  }
  std::printf("%s: pool busy %.3f of %zu threads in the closed loop\n",
              WorkloadName(shape.kind),
              static_cast<double>(closed_busy_us) * 1e3 /
                  (static_cast<double>(kPoolThreads) * static_cast<double>(closed_ns)),
              kPoolThreads);
  load->EndTimed();
  // Before the tail and the checks, whose memory is the benchmark's.
  const double peak_rss_mib = PeakRssMiB();
  if (shape.kind == Kind::kChurn) load->Tail(kTailSeconds);
  load->Finish();
  stack.service->Shutdown();
  if (stack.ingest != nullptr) stack.ingest->Shutdown();
  Measured m = Measure(shape, stack, *load, report);
  m.peak_rss_mib = peak_rss_mib;
  // avg_sim weighs each distinct visitor once: weighted by requests,
  // serve_hot's few Zipf-head visitors would set the mean (an effective
  // sample of ~65 whatever the sample size).
  std::unordered_set<uint32_t> seen;
  double sim_sum = 0.0;
  for (const auto& [id, answer] : load->answers()) {
    if (answer.empty() || !seen.insert(load->reqs()[id].visitor).second) continue;
    double sum = 0.0;
    for (const gf::Neighbor& n : answer) sum += n.similarity;
    sim_sum += sum / static_cast<double>(answer.size());
  }
  m.avg_sim = seen.empty() ? 0.0 : sim_sum / static_cast<double>(seen.size());
  if (shape.kind == Kind::kChurn) {
    CheckChurn(stack, pool, report);
  } else {
    CheckAgainstScan(in, *load, pool, report);
  }
  if (stack.hooks.partial_answers != 0) {
    std::printf("%llu partial cluster answers\n",
                static_cast<unsigned long long>(stack.hooks.partial_answers));
  }
  *out_load = std::move(load);
  return m;
}

void ReportEndToEnd(const Measured& m, const std::vector<double>& setup_seconds,
                    RunReport* report) {
  report->Add("setup_s", Percentile(setup_seconds, 0.5), "s");
  report->Add("peak_rss_mb", m.peak_rss_mib, "MiB");
  report->Add("lists_per_s", m.Capacity(), "1/s");
  report->Add("avg_sim", m.avg_sim, "ratio");
}

// The traced run's layer metrics, from the benchmark's own spans and
// the registry the stack reported into.
void ReportLayers(const Shape& shape, Stack& stack, LoadGen& load,
                  const gf::obs::MetricRegistry& registry,
                  const gf::obs::TraceRecorder& tracer, const Measured& m,
                  const Measured& untraced, const RunConfig& run,
                  RunReport* report) {
  const Counters c{&registry};
  std::deque<ReqRec>& reqs = load.reqs();
  const std::vector<BatchRec>& batches = stack.hooks.batches;
  const std::vector<Segment>& segments = load.segments();
  // The timed segment a batch started in, or nullptr (warm-up).
  auto segment_of = [&segments](int64_t t) -> const Segment* {
    for (const Segment& seg : segments) {
      if (t >= seg.start && t < seg.next) return &seg;
    }
    return nullptr;
  };

  // FIFO attribution of queued requests to batches.
  std::vector<std::size_t> sizes;
  for (const BatchRec& b : batches) sizes.push_back(b.size);
  uint64_t queued = 0;
  for (const ReqRec& r : reqs) queued += r.queued_seq >= 0;
  const std::vector<std::size_t> batch_of = AttributeFifo(sizes, queued);

  std::vector<double> queue_wait, probe_us, late, batch_ms, handle_ms, wire_ms;
  std::vector<std::pair<double, double>> coverage;  // (latency, covered)
  std::vector<SpanGroup> groups;
  uint64_t probes = 0, hits = 0, rejected = 0;
  for (std::size_t id = 0; id < reqs.size(); ++id) {
    const ReqRec& r = reqs[id];
    if (!IsTimed(r.phase)) continue;
    rejected += r.rejected;
    if (r.probe_end != 0) {
      ++probes;
      hits += r.hit;
    }
    if (r.phase != kOpen || !r.ok) continue;
    late.push_back(Ms(r.submit_start - r.due));
    if (r.probe_end != 0) probe_us.push_back(Ms(r.probe_end - r.probe_start) * 1e3);
    // "loadgen.late" and "query_service.queue_wait" are gaps between
    // the calls, written for attribution only.
    SpanGroup group{"request", id,
                    {{"request", id, r.due, r.done},
                     {"loadgen.late", id, r.due, r.submit_start},
                     {"query_service.submit", id, r.submit_start, r.submit_end}}};
    if (r.probe_end != 0) {
      group.spans.push_back({"serving_cache.probe", id, r.probe_start, r.probe_end});
    }
    // Coverage counts only the calls the benchmark timed around the
    // request: Submit (the cache probe runs inside it) and the batch
    // call that carried it. Sender lateness, the queue wait and the
    // collector's wake-up after the batch are no call's time and stay
    // uncovered.
    std::vector<std::pair<int64_t, int64_t>> calls = {{r.submit_start, r.submit_end}};
    if (r.queued_seq >= 0 && batch_of[r.queued_seq] != kNoBatch) {
      const std::size_t b = batch_of[r.queued_seq];
      const BatchRec& batch = batches[b];
      queue_wait.push_back(Ms(batch.start - r.submit_end));
      group.spans.push_back({"query_service.queue_wait", id, r.submit_end, batch.start});
      group.spans.push_back({shape.kind == Kind::kCluster ? "net.coordinator.batch"
                                                          : "snapshot_query.batch",
                             b, batch.start, batch.end});
      calls.emplace_back(batch.start, batch.end);
    }
    coverage.emplace_back(Ms(r.done - r.due), Ms(CoveredNanos(r.due, r.done, calls)));
    groups.push_back(std::move(group));
  }

  // Batches: timings over the open-loop phase, sizes and per-query cost
  // over the closed-loop phase (where capacity is measured).
  std::vector<HandleRec> handles;
  {
    const std::lock_guard<std::mutex> lock(stack.hooks.handles_mu);
    handles = stack.hooks.handles;
  }
  std::sort(handles.begin(), handles.end(),
            [](const HandleRec& a, const HandleRec& b) { return a.start < b.start; });
  double closed_batch_ms = 0.0, handle_bytes = 0.0, handle_pairs = 0.0,
         handle_seconds = 0.0;
  uint64_t closed_queries = 0, timed_queries = 0, dups = 0, closed_batches = 0;
  std::size_t h = 0;
  for (const BatchRec& b : batches) {
    const Segment* seg = segment_of(b.start);
    const bool open = seg != nullptr && seg->phase == kOpen;
    const bool closed = seg != nullptr && seg->phase == kClosed;
    int64_t slowest = 0;
    for (; h < handles.size() && handles[h].start < b.end; ++h) {
      if (handles[h].start < b.start) continue;
      slowest = std::max(slowest, handles[h].end - handles[h].start);
      if (open || closed) {
        handle_bytes += static_cast<double>(handles[h].bytes);
        handle_pairs += static_cast<double>(b.size * (kUsers / kClusterShards));
        handle_seconds += Ms(handles[h].end - handles[h].start) * 1e-3;
      }
      if (open) handle_ms.push_back(Ms(handles[h].end - handles[h].start));
    }
    if (open) {
      batch_ms.push_back(Ms(b.end - b.start));
      if (slowest > 0) wire_ms.push_back(Ms(b.end - b.start - slowest));
    }
    if (closed) {
      closed_batch_ms += Ms(b.end - b.start);
      closed_queries += b.size;
      ++closed_batches;
    }
    if (open || closed) {
      timed_queries += b.size;
      dups += b.dups;
    }
  }

  const bool engine = shape.kind != Kind::kCluster;
  report->Add("knn.query_service.queue_wait_p50_ms", Percentile(queue_wait, 0.5), "ms");
  report->Add("knn.query_service.queue_wait_p99_ms", Percentile(queue_wait, 0.99), "ms");
  report->Add("knn.query_service.batch_size_mean",
              closed_batches ? static_cast<double>(closed_queries) / closed_batches : 0.0,
              "count");
  report->Add("knn.query_service.rejected", static_cast<double>(rejected), "count");
  report->Add("loadgen.late_p99_ms", Percentile(late, 0.99), "ms");
  // The untraced pass's open-loop latency, every round together.
  report->Add("loadgen.query_p50_ms", Percentile(untraced.latency_ms, 0.5), "ms");
  report->Add("loadgen.query_p99_ms", Percentile(untraced.latency_ms, 0.99), "ms");
  if (!SupportsPercentile(untraced.latency_ms.size(), 0.99)) {
    report->Fail(1, "too few open-loop samples for p99");
  }
  if (engine) {
    const gf::ServingCache::Stats cache = stack.engine->cache()->stats();
    report->Add("knn.serving_cache.hit_ratio",
                probes ? static_cast<double>(hits) / probes : 0.0, "ratio");
    report->Add("knn.serving_cache.probe_us_p50", Percentile(probe_us, 0.5), "us");
    report->Add("knn.serving_cache.evictions", static_cast<double>(cache.evictions), "count");
    report->Add("knn.serving_cache.stale_evictions",
                static_cast<double>(cache.stale_epoch_evictions), "count");
    report->Add("knn.snapshot_query.batch_ms_p50", Percentile(batch_ms, 0.5), "ms");
    report->Add("knn.snapshot_query.batch_ms_p99", Percentile(batch_ms, 0.99), "ms");
    report->Add("knn.snapshot_query.us_per_query",
                closed_queries ? closed_batch_ms * 1e3 / closed_queries : 0.0, "us");
    report->Add("knn.snapshot_query.rebuilds",
                static_cast<double>(c.Counter("query.snapshot_rebuilds")), "count");
    report->Add("knn.snapshot_query.dup_share",
                timed_queries ? static_cast<double>(dups) / timed_queries : 0.0, "ratio");
    const auto [scans, scan_us] = c.Histogram("query.shard.scan_micros");
    report->Add("knn.sharded_query.scan_ms_mean", scans ? scan_us * 1e-3 / scans : 0.0, "ms");
    // Every scanned query meets every row once across the shards.
    const double pairs = static_cast<double>(c.Counter("query.sharded.queries")) *
                         static_cast<double>(kUsers);
    report->Add("common.simd.pairs_per_s", scan_us > 0 ? pairs / (scan_us * 1e-6) : 0.0,
                "1/s");
    report->Add("common.simd.bytes_per_s",
                scan_us > 0 ? pairs * (kBits / 8) / (scan_us * 1e-6) : 0.0, "B/s");
  } else {
    report->Add("net.coordinator.batch_ms_p50", Percentile(batch_ms, 0.5), "ms");
    report->Add("net.coordinator.batch_ms_p99", Percentile(batch_ms, 0.99), "ms");
    report->Add("net.replica.handle_ms_p50", Percentile(handle_ms, 0.5), "ms");
    report->Add("net.wire_ms_p50", Percentile(wire_ms, 0.5), "ms");
    report->Add("net.bytes_per_query",
                timed_queries ? handle_bytes / timed_queries : 0.0, "B");
    report->Add("net.failovers", static_cast<double>(c.Counter("net.failovers")), "count");
    report->Add("net.deadline_exceeded",
                static_cast<double>(c.Counter("net.deadline_exceeded")), "count");
    // Each replica scores its batch against its shard's rows inside
    // Handle (decode and encode included, on the shared pool).
    report->Add("common.simd.pairs_per_s",
                handle_seconds > 0 ? handle_pairs / handle_seconds : 0.0, "1/s");
    report->Add("common.simd.bytes_per_s",
                handle_seconds > 0 ? handle_pairs * (kBits / 8) / handle_seconds : 0.0,
                "B/s");
  }
  if (shape.kind == Kind::kChurn) {
    const auto [publishes, publish_us] = c.Histogram("ingest.publish_micros");
    report->Add("knn.ingest.publish_ms_mean", publishes ? publish_us * 1e-3 / publishes : 0.0,
                "ms");
    const uint64_t epochs = c.Counter("ingest.publishes");
    report->Add("knn.ingest.refresh_users_per_epoch",
                epochs ? static_cast<double>(c.Counter("ingest.refresh_users")) / epochs : 0.0,
                "count");
    report->Add("knn.ingest.epochs", static_cast<double>(stack.ingest->EpochsPublished()),
                "count");
    report->Add("knn.ingest.queue_depth_max", static_cast<double>(load.depth_max()),
                "count");
    report->Add("knn.ingest.rejected", static_cast<double>(load.events_rejected()),
                "count");
    report->Add("core.versioned_store.live_snapshots_max",
                static_cast<double>(load.live_snapshots_max()), "count");
    // Like loadgen.query_*, from the untraced pass.
    report->Add("knn.ingest.lag_p50_ms", Percentile(untraced.lag_ms, 0.5), "ms");
    report->Add("knn.ingest.lag_p99_ms", Percentile(untraced.lag_ms, 0.99), "ms");
  }

  // Coverage of the median request: its blocking-path spans over its
  // measured latency.
  std::sort(coverage.begin(), coverage.end());
  const auto& median = coverage.empty() ? std::pair<double, double>{1.0, 0.0}
                                        : coverage[(coverage.size() - 1) / 2];
  report->Add("trace.coverage", median.first > 0 ? median.second / median.first : 0.0,
              "ratio");
  report->Add("trace.overhead_ratio",
              m.Capacity() > 0 ? untraced.Capacity() / m.Capacity() : 0.0, "ratio");
  std::printf("trace: %zu open-loop requests traced, %zu batches, %zu replica "
              "handles, %zu recorder spans\n",
              groups.size(), batches.size(), handles.size(), tracer.Spans().size());
  groups.push_back(RecorderGroup(tracer));
  if (!run.trace_out.empty() &&
      !WriteTrace(run.trace_out, run.workload, segments.front().start, groups,
                  registry, tracer)) {
    std::fprintf(stderr, "could not write %s\n", run.trace_out.c_str());
  }
}

// The measurement serve_churn's event rate is derived from (NOTES.md):
// serve_churn's ingest stack with no queries, events submitted back to
// back while fewer than two epochs' worth wait in the intake (so the
// drain at shutdown stays short). Reports the events per second applied
// between the first and the last publish in --seconds, so each counted
// epoch includes its graph repair.
void MeasureIngestCapacity(const Inputs& in, Stack& stack, const RunConfig& run,
                           RunReport* report) {
  const int64_t end = NowNanos() + static_cast<int64_t>(run.seconds * 1e9);
  std::size_t next = 0;
  while (NowNanos() < end && next < in.events.size()) {
    if (stack.ingest->QueueDepth() >= 2 * kPublishEvery) {
      SleepUntilNanos(NowNanos() + 100'000);
    } else if (stack.ingest->Submit(in.events[next]).ok()) {
      ++next;
    } else {
      report->Fail(1, "ingest Submit refused an event");
      return;
    }
  }
  const std::vector<uint64_t> stamps = stack.publish_log.Stamps();
  stack.ingest->Shutdown();
  report->attempted += next;
  if (stamps.size() < 4 || next == in.events.size()) {
    report->Fail(1, "too few epochs, or the event stream ran out");
    return;
  }
  const double epochs = static_cast<double>(stamps.size() - 2);
  const double seconds = static_cast<double>(stamps.back() - stamps[1]) * 1e-6;
  const double rate = epochs * kPublishEvery / seconds;
  std::printf("ingest capacity: %.0f events/s (%.0f epochs of %zu events in "
              "%.3f s, %.1f ms per epoch)\n",
              rate, epochs, kPublishEvery, seconds, seconds * 1e3 / epochs);
  report->Add("ingest_events_per_s", rate, "1/s");
}

}  // namespace

RunReport RunServe(const RunConfig& run) {
  const Shape shape = ShapeOf(run.workload);
  RunReport report;
  // Every thread of the program under test starts from a niced thread;
  // this thread (the sender) and the collector keep the default.
  const std::unique_ptr<gf::ThreadPool> owned_pool = RunNiced(kProgramNice, [] {
    return std::make_unique<gf::ThreadPool>(kPoolThreads);
  });
  gf::ThreadPool* pool = owned_pool.get();
  const auto make_stack = [&](const Inputs& in, const gf::obs::PipelineContext* obs) {
    return RunNiced(kProgramNice, [&] { return MakeStack(shape, in, pool, obs); });
  };

  if (run.workload == "ingest_capacity") {
    const std::unique_ptr<Inputs> inputs = MakeInputs(shape, run, pool, nullptr);
    const std::unique_ptr<Stack> stack = make_stack(*inputs, nullptr);
    MeasureIngestCapacity(*inputs, *stack, run, &report);
    return report;
  }
  if (!run.trace) {
    std::vector<double> setup_seconds;
    std::unique_ptr<Inputs> inputs;
    std::unique_ptr<Stack> stack;  // uses *inputs
    for (int i = 0; i < kSetupRepeats; ++i) {
      stack.reset();
      inputs.reset();
      // Hands the torn-down set-up's memory back, so the repeats do not
      // stack up in peak_rss_mb.
      malloc_trim(0);
      const int64_t t0 = NowNanos();
      inputs = MakeInputs(shape, run, pool, nullptr);
      stack = make_stack(*inputs, nullptr);
      setup_seconds.push_back(static_cast<double>(NowNanos() - t0) * 1e-9);
    }
    std::printf("set-up: %d times, peak RSS so far %.1f MiB\n", kSetupRepeats,
                PeakRssMiB());
    std::unique_ptr<LoadGen> load;
    const Measured m = DriveAll(shape, *stack, *inputs, run, pool, &load, &report);
    ReportEndToEnd(m, setup_seconds, &report);
    return report;
  }

  // Traced run. First an untraced stack runs the phases, for the
  // loadgen.query_* figures and the overhead ratio; then a stack with
  // the observability context runs the whole workload.
  gf::obs::MetricRegistry registry;
  gf::obs::TraceRecorder tracer;
  gf::obs::PipelineContext ctx;
  ctx.metrics = &registry;
  ctx.tracer = &tracer;
  ctx.pool = pool;
  const std::unique_ptr<Inputs> inputs = MakeInputs(shape, run, pool, &ctx);
  Measured untraced;
  {
    // The same phases in the same order, so the closed loop meets the
    // same cache and epoch state as the traced one.
    const std::unique_ptr<Stack> stack = make_stack(*inputs, nullptr);
    std::unique_ptr<LoadGen> load;
    untraced = DriveAll(shape, *stack, *inputs, run, pool, &load, &report);
  }
  const std::unique_ptr<Stack> stack = make_stack(*inputs, &ctx);
  std::unique_ptr<LoadGen> load;
  const Measured m = DriveAll(shape, *stack, *inputs, run, pool, &load, &report);
  ReportLayers(shape, *stack, *load, registry, tracer, m, untraced, run, &report);
  return report;
}

}  // namespace perfbench
