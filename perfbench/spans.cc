#include "spans.h"

#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <set>

#include "obs/json_export.h"

namespace perfbench {

namespace {

// A stable C string equal to `name`, for span names known only at run
// time (the recorder's own spans).
const char* InternName(const std::string& name) {
  static std::mutex mu;
  static std::set<std::string> names;
  const std::lock_guard<std::mutex> lock(mu);
  return names.insert(name).first->c_str();
}

}  // namespace

SpanGroup RecorderGroup(const gf::obs::TraceRecorder& tracer) {
  SpanGroup group{"recorder", 0, {}};
  for (const gf::obs::Span& span : tracer.Spans()) {
    if (span.end_us == 0) continue;
    group.spans.push_back({InternName(span.name), span.id,
                           static_cast<int64_t>(span.start_us) * 1000,
                           static_cast<int64_t>(span.end_us) * 1000});
  }
  return group;
}

bool WriteTrace(const std::string& path, const std::string& workload,
                int64_t origin_ns, const std::vector<SpanGroup>& groups,
                const gf::obs::MetricRegistry& registry,
                const gf::obs::TraceRecorder& tracer) {
  std::error_code ec;
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (file == nullptr) return false;
  for (const SpanGroup& group : groups) {
    std::fprintf(file.get(),
                 "{\"workload\":\"%s\",\"kind\":\"%s\",\"id\":%llu,\"spans\":[",
                 workload.c_str(), group.kind,
                 static_cast<unsigned long long>(group.id));
    for (std::size_t i = 0; i < group.spans.size(); ++i) {
      const Span& span = group.spans[i];
      std::fprintf(file.get(), "%s[\"%s\",%.3f,%.3f]", i == 0 ? "" : ",",
                   span.name,
                   static_cast<double>(span.start_ns - origin_ns) * 1e-3,
                   static_cast<double>(span.end_ns - origin_ns) * 1e-3);
    }
    std::fprintf(file.get(), "]}\n");
  }
  if (std::ferror(file.get()) != 0) return false;

  std::string registry_path = path;
  if (registry_path.ends_with(".jsonl")) registry_path.resize(registry_path.size() - 6);
  registry_path += ".registry.json";
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> registry_file(
      std::fopen(registry_path.c_str(), "w"), &std::fclose);
  if (registry_file == nullptr) return false;
  const std::string json = gf::obs::ExportJson(registry, &tracer);
  return std::fwrite(json.data(), 1, json.size(), registry_file.get()) == json.size();
}

}  // namespace perfbench
