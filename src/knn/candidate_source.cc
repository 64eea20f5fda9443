#include "knn/candidate_source.h"

#include <algorithm>
#include <string>

#include "common/bit_util.h"
#include "core/shf.h"

namespace gf {

namespace {

// GraphNeighborsSource takes seeds only from a recorded answer whose
// query estimates at least this similar to the new one (below it, the
// answer says nothing useful about this query's neighborhood).
constexpr double kMinSeedSimilarity = 0.05;
// How many of that answer's ids GraphNeighborsSource expands.
constexpr std::size_t kMaxSeeds = 16;

}  // namespace

RecentAnswers::RecentAnswers(std::size_t capacity) : capacity_(capacity) {
  ring_.reserve(capacity_);
}

void RecentAnswers::Record(const Shf& query,
                           std::span<const Neighbor> result) {
  if (capacity_ == 0) return;
  Entry entry;
  entry.num_bits = query.num_bits();
  entry.cardinality = query.cardinality();
  entry.words.assign(query.words().begin(), query.words().end());
  entry.ids.reserve(result.size());
  for (const Neighbor& n : result) entry.ids.push_back(n.id);

  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(entry));
  } else {
    ring_[next_] = std::move(entry);
  }
  next_ = (next_ + 1) % capacity_;
}

std::vector<UserId> RecentAnswers::NearestSeeds(const Shf& query,
                                                double min_similarity) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Entry* best = nullptr;
  double best_sim = -1.0;
  for (const Entry& entry : ring_) {
    if (entry.num_bits != query.num_bits()) continue;
    const uint32_t inter = bits::AndPopCount(
        query.words().data(), entry.words.data(), entry.words.size());
    const double sim =
        JaccardFromCounts(query.cardinality(), entry.cardinality, inter);
    if (sim > best_sim) {
      best_sim = sim;
      best = &entry;
    }
  }
  if (best == nullptr || best_sim < min_similarity) return {};
  return best->ids;
}

std::size_t RecentAnswers::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

GraphNeighborsSource::GraphNeighborsSource(
    const RecentAnswers* recent, std::shared_ptr<const KnnGraph> graph,
    std::size_t num_users)
    : recent_(recent), graph_(std::move(graph)), num_users_(num_users) {}

void GraphNeighborsSource::Collect(const Shf& query, std::size_t k,
                                   std::vector<UserId>* out) const {
  (void)k;
  const std::vector<UserId> seeds =
      recent_->NearestSeeds(query, kMinSeedSimilarity);
  std::size_t taken = 0;
  for (const UserId seed : seeds) {
    if (taken >= kMaxSeeds) break;
    // Seeds recorded under an older (possibly larger) epoch must not
    // index past the pinned store or graph.
    if (seed >= num_users_) continue;
    ++taken;
    out->push_back(seed);
    if (graph_ == nullptr || seed >= graph_->NumUsers()) continue;
    for (const Neighbor& n : graph_->NeighborsOf(seed)) {
      if (n.id < num_users_) out->push_back(n.id);
    }
  }
}

PopularityCandidateSource::PopularityCandidateSource(
    const FingerprintStore& store, std::size_t count) {
  const std::size_t n = store.num_users();
  std::vector<UserId> ids(n);
  for (std::size_t u = 0; u < n; ++u) ids[u] = static_cast<UserId>(u);
  const std::size_t keep = std::min(count, n);
  std::partial_sort(ids.begin(), ids.begin() + keep, ids.end(),
                    [&store](UserId a, UserId b) {
                      const uint32_t ca = store.CardinalityOf(a);
                      const uint32_t cb = store.CardinalityOf(b);
                      if (ca != cb) return ca > cb;
                      return a < b;
                    });
  popular_.assign(ids.begin(), ids.begin() + keep);
}

void PopularityCandidateSource::Collect(const Shf& query, std::size_t k,
                                        std::vector<UserId>* out) const {
  (void)query;
  (void)k;
  out->insert(out->end(), popular_.begin(), popular_.end());
}

CandidateQueryEngine::CandidateQueryEngine(
    const FingerprintStore* store,
    std::vector<const CandidateSource*> sources, Options options,
    ThreadPool* pool, const obs::PipelineContext* obs)
    : store_(store),
      sources_(std::move(sources)),
      options_(options),
      source_counters_(sources_.size(), nullptr),
      rescorer_(pool, obs, "query.candidate_engine") {
  if (obs != nullptr && obs->HasMetrics()) {
    for (std::size_t i = 0; i < sources_.size(); ++i) {
      source_counters_[i] = obs->metrics->GetCounter(
          "candidates." + std::string(sources_[i]->name()));
    }
  }
}

void CandidateQueryEngine::Gather(const Shf& query, std::size_t k,
                                  std::vector<UserId>* candidates) const {
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    const std::size_t before = candidates->size();
    sources_[i]->Collect(query, k, candidates);
    if (source_counters_[i] != nullptr) {
      source_counters_[i]->Add(candidates->size() - before);
    }
    // Dedup after every source: the early-stop check must count
    // DISTINCT candidates or a source repeating the same ids would
    // starve the fallbacks.
    std::sort(candidates->begin(), candidates->end());
    candidates->erase(std::unique(candidates->begin(), candidates->end()),
                      candidates->end());
    if (candidates->size() >= options_.min_candidates) break;
  }
}

Result<std::vector<Neighbor>> CandidateQueryEngine::Query(
    const Shf& query, std::size_t k) const {
  auto batch = QueryBatch({&query, 1}, k);
  if (!batch.ok()) return batch.status();
  return std::move(batch->front());
}

Result<std::vector<std::vector<Neighbor>>> CandidateQueryEngine::QueryBatch(
    std::span<const Shf> queries, std::size_t k) const {
  return rescorer_.QueryBatch(
      *store_, queries, k,
      [this](const Shf& query, std::size_t kk, std::vector<UserId>* out) {
        Gather(query, kk, out);
      });
}

}  // namespace gf
