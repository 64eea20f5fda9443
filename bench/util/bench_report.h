// Shared pipeline-metrics emitter for the bench harnesses: collects one
// serialized metrics snapshot per benchmark run and writes them as a
// single JSON report, so CI (and humans) can diff per-phase wall times
// and counter totals across runs without scraping stdout tables.
//
// Report schema (schema_version 2):
//
//   {
//     "schema_version": 2,
//     "bench": "<harness name>",
//     "context": {
//       "cpus": <hardware_concurrency>,
//       "simd": "<active popcount backend, e.g. avx2>",
//       "git_sha": "<short sha at configure time; GF_GIT_SHA overrides>"
//     },
//     "runs": [
//       {"label": "<dataset/algo/mode>", "metrics": { ...obs::ExportJson }}
//     ]
//   }
//
// The context block makes cross-host report diffs interpretable: a qps
// regression on 4 cpus vs 32, or scalar vs avx2, is hardware, not code.
//
// Each harness passes its own default output filename (BENCH_kernel_
// popcount.json, BENCH_cc.json, ...; BENCH_pipeline.json when
// omitted — the canonical pipeline report emitted by bench_table4);
// GF_BENCH_OUT overrides whichever default, so only one harness per
// CI step should run with the override set.

#ifndef GF_BENCH_UTIL_BENCH_REPORT_H_
#define GF_BENCH_UTIL_BENCH_REPORT_H_

#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace gf::bench {

/// The report schema version emitted by BenchReport::Write (surfaced
/// by `gfk version`; bump together with the header comment above).
inline constexpr int kBenchReportSchemaVersion = 2;

class BenchReport {
 public:
  /// `bench_name` labels the report (the harness name);
  /// `default_filename` is where it lands unless GF_BENCH_OUT is set.
  explicit BenchReport(std::string bench_name,
                       std::string default_filename = "BENCH_pipeline.json");

  /// Snapshots `registry` (and `tracer`'s spans when non-null) as one
  /// run labelled `label`.
  void AddRun(const std::string& label, const obs::MetricRegistry& registry,
              const obs::TraceRecorder* tracer = nullptr);

  /// Writes the report to path(). Returns false (and prints to stderr)
  /// on I/O failure.
  bool Write() const;

  /// $GF_BENCH_OUT when set, else the harness's default filename.
  const std::string& path() const { return path_; }

 private:
  std::string bench_name_;
  std::string path_;
  std::vector<std::string> runs_;  // pre-serialized run objects
};

}  // namespace gf::bench

#endif  // GF_BENCH_UTIL_BENCH_REPORT_H_
