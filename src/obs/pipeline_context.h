// PipelineContext: the observability + execution spine threaded through
// every pipeline phase (dataset load → fingerprint → KNN build →
// evaluate). One context bundles
//
//   * metrics   the MetricRegistry phases report counters/gauges into,
//   * tracer    the TraceRecorder phases open spans on,
//   * clock     the injectable time source (tests pin a FakeClock),
//   * pool      the ONE ThreadPool every phase shares (no more ad-hoc
//               pools per phase).
//
// Zero-cost contract: all sink pointers are optional, every helper
// inlines to a null check, and the pipeline entry points default to a
// null context pointer. At a call site that passes the literal nullptr
// (every uninstrumented caller — the templated algorithms see a
// compile-time constant), dead-branch elimination removes the
// instrumentation entirely; bench_table4 bounds the residual overhead
// at <2%. Hot loops never touch the registry per pair: algorithms keep
// local tallies (as before) and flush them at phase boundaries.

#ifndef GF_OBS_PIPELINE_CONTEXT_H_
#define GF_OBS_PIPELINE_CONTEXT_H_

#include <cstdint>
#include <span>
#include <string_view>

#include "common/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace gf {
class ThreadPool;
}  // namespace gf

namespace gf::obs {

/// Aggregates the sinks and the shared execution resources. Copyable
/// view type (all members are non-owning).
struct PipelineContext {
  MetricRegistry* metrics = nullptr;
  TraceRecorder* tracer = nullptr;
  Clock* clock = nullptr;  // nullptr means Clock::System()
  ThreadPool* pool = nullptr;

  bool HasMetrics() const { return metrics != nullptr; }

  Clock* EffectiveClock() const {
    return clock != nullptr ? clock : Clock::System();
  }

  /// Adds `n` to the named counter; no-op without a metrics sink.
  void Count(std::string_view name, uint64_t n) const {
    if (metrics != nullptr) metrics->GetCounter(name)->Add(n);
  }

  /// Sets the named gauge; no-op without a metrics sink.
  void SetGauge(std::string_view name, double value) const {
    if (metrics != nullptr) metrics->GetGauge(name)->Set(value);
  }

  /// Observes into the named histogram; no-op without a metrics sink.
  void Observe(std::string_view name, std::span<const double> boundaries,
               double value) const {
    if (metrics != nullptr) {
      metrics->GetHistogram(name, boundaries)->Observe(value);
    }
  }
};

/// Instrument lookups for components that cache their instruments at
/// construction: the named instrument, or nullptr when `obs` is null or
/// carries no metrics sink.
inline Counter* CounterOrNull(const PipelineContext* obs,
                              std::string_view name) {
  return obs != nullptr && obs->HasMetrics() ? obs->metrics->GetCounter(name)
                                             : nullptr;
}

inline Histogram* HistogramOrNull(const PipelineContext* obs,
                                  std::string_view name,
                                  std::span<const double> boundaries) {
  return obs != nullptr && obs->HasMetrics()
             ? obs->metrics->GetHistogram(name, boundaries)
             : nullptr;
}

/// The context's clock, or nullptr without a context.
inline Clock* ClockOrNull(const PipelineContext* obs) {
  return obs != nullptr ? obs->EffectiveClock() : nullptr;
}

/// Shared power-of-two bucket boundaries for size-shaped histograms
/// (candidate-set sizes, per-iteration updates). Upper-inclusive.
inline constexpr double kSizeBucketBoundaries[] = {
    0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096};

/// Shared 1-2-5 bucket boundaries for latency histograms, in
/// MICROSECONDS, upper-inclusive, spanning 1 us .. 1 s. Quantiles (p50
/// / p99) are derivable from the exported bucket counts the usual
/// Prometheus way.
inline constexpr double kLatencyBucketBoundariesMicros[] = {
    1,     2,     5,     10,     20,     50,     100,     200,     500,
    1000,  2000,  5000,  10000,  20000,  50000,  100000,  200000,  500000,
    1000000};

/// RAII phase span on a context: opens a tracer span (when a tracer is
/// attached) and, when `seconds_gauge` is non-empty, records the phase
/// wall time into that gauge on destruction. Null-context safe.
class ScopedPhase {
 public:
  ScopedPhase(const PipelineContext* ctx, std::string_view span_name,
              std::string_view seconds_gauge = {})
      : ctx_(ctx),
        span_(ctx != nullptr ? ctx->tracer : nullptr, span_name),
        seconds_gauge_(seconds_gauge),
        start_us_(ctx != nullptr && (ctx->tracer != nullptr ||
                                     (!seconds_gauge.empty() &&
                                      ctx->metrics != nullptr))
                      ? ctx->EffectiveClock()->NowMicros()
                      : 0) {}

  ~ScopedPhase() {
    if (ctx_ == nullptr || seconds_gauge_.empty() || !ctx_->HasMetrics()) {
      return;
    }
    const uint64_t end_us = ctx_->EffectiveClock()->NowMicros();
    ctx_->SetGauge(seconds_gauge_,
                   static_cast<double>(end_us - start_us_) * 1e-6);
  }

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  const PipelineContext* ctx_;
  ScopedSpan span_;
  std::string_view seconds_gauge_;
  uint64_t start_us_;
};

}  // namespace gf::obs

#endif  // GF_OBS_PIPELINE_CONTEXT_H_
