// The traced run's own spans: the benchmark times every public call it
// makes and keeps the spans in memory; they are written out once the
// workload has finished, one JSON line per request (or per build), so
// every span of one request shares that request's id.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace perfbench {

struct Span {
  const char* name = "";  // a string literal: spans never own their name
  uint64_t id = 0;        // request id, or batch id for batch-level spans
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  double Millis() const { return static_cast<double>(end_ns - start_ns) * 1e-6; }
};

/// One traced unit of work (a request, a build, or the recorder's own
/// spans) and its spans.
struct SpanGroup {
  const char* kind = "request";  // a string literal
  uint64_t id = 0;
  std::vector<Span> spans;
};

/// Every span `tracer` recorded, as one group of kind "recorder". The
/// recorder's clock is the same steady clock, in microseconds.
SpanGroup RecorderGroup(const gf::obs::TraceRecorder& tracer);

/// Writes one JSON line per group to `path`, times in microseconds
/// relative to `origin_ns`, and next to it, as
/// `<path without .jsonl>.registry.json`, every counter, gauge and
/// histogram of `registry` with the recorder's spans (obs::ExportJson).
/// Returns false when a file cannot be written.
bool WriteTrace(const std::string& path, const std::string& workload,
                int64_t origin_ns, const std::vector<SpanGroup>& groups,
                const gf::obs::MetricRegistry& registry,
                const gf::obs::TraceRecorder& tracer);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
