// perfbench — the repo's end-to-end benchmark.
//
//   perfbench --workload build|serve_hot|serve_churn|serve_cluster
//             --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// Untraced runs attach no observability sink and print the end-to-end
// metrics; traced runs attach a MetricRegistry + TraceRecorder to every
// constructor that takes one, time every public call the benchmark
// makes, and print the per-layer metrics of the layers the workload
// runs. The last stdout line is the JSON result: {"correct",
// "attempted", "failed", "metrics"}.
//
// `--workload serve_hot` and `--workload ingest_capacity` are not
// workloads of BENCHMARK.json: serve_hot's capacity is bimodal from run
// to run, and ingest_capacity measures the ingest throughput
// serve_churn's event rate is derived from (NOTES.md).

#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace perfbench {

void RunReport::Fail(uint64_t n, const std::string& why) {
  failed += n;
  correct = false;
  std::fprintf(stdout, "FAILED: %s\n", why.c_str());
}

namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\n",
               why);
  std::exit(2);
}

void PrintJson(const RunReport& report) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig config;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing flag value");
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && config.seconds >= 1.0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      config.trace = value == "1";
    } else if (flag == "--trace-out") {
      config.trace_out = value;
    } else {
      Usage("unknown flag");
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    Usage("--workload, --seed, --seconds (>= 1) and --trace are required");
  }

  RunReport report;
  if (config.workload == "build") {
    report = RunBuild(config);
  } else if (config.workload == "serve_hot" ||
             config.workload == "serve_churn" ||
             config.workload == "serve_cluster" ||
             config.workload == "ingest_capacity") {
    report = RunServe(config);
  } else {
    Usage("unknown workload");
  }

  std::fflush(stdout);
  PrintJson(report);
  return 0;
}
