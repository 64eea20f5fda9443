// The benchmark's workloads and the report every run prints. Which
// metrics a workload reports, why it exists and what each layer metric
// is predicted to do on it are recorded beside each definition
// (workload_build.cc, workload_serve.cc) and summarised in NOTES.md.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Every pool in every workload has this many threads (one per core of
/// the 4-core target machine); load comes from one sender plus one
/// completion collector.
inline constexpr std::size_t kPoolThreads = 4;

/// Set-up is repeated this many times per run; setup_s is the median.
inline constexpr int kSetupRepeats = 3;

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // where a traced run writes its spans
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunReport {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records `n` failed operations and marks the run incorrect.
  void Fail(uint64_t n, const std::string& why);
};

RunReport RunBuild(const RunConfig& config);
/// serve_hot, serve_churn and serve_cluster (and ingest_capacity, the
/// measurement serve_churn's event rate is derived from).
RunReport RunServe(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
