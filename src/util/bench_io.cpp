#include "util/bench_io.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#include "util/thread_pool.hpp"

// The top-level build generates this header on every build (cmake/
// git_rev.cmake); a build without it, such as perfbench's, stamps
// "unknown".
#if __has_include("cyclops_git_rev.h")
#include "cyclops_git_rev.h"
#endif
#ifndef CYCLOPS_GIT_REV
#define CYCLOPS_GIT_REV "unknown"
#endif

namespace cyclops::util {

std::string sanitized_git_rev(const char* raw) {
  if (raw == nullptr) return "unknown";
  const std::string rev(raw);
  if (rev.size() < 4 || rev.size() > 40) return "unknown";
  for (const char c : rev) {
    const bool hex = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') ||
                     (c >= 'A' && c <= 'F');
    if (!hex) return "unknown";
  }
  return rev;
}

std::size_t host_nproc() {
  return static_cast<std::size_t>(std::thread::hardware_concurrency());
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    std::size_t start = colon + 1;
    while (start < line.size() && line[start] == ' ') ++start;
    std::string model = line.substr(start);
    // JSON-safe: the value is emitted inside a quoted string.
    for (char& c : model) {
      if (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20) {
        c = ' ';
      }
    }
    if (!model.empty()) return model;
    break;
  }
  return "unknown";
}

void write_bench_json(
    const std::string& name,
    const std::vector<std::pair<std::string, double>>& fields) {
  const std::string path = "BENCH_" + name + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "write_bench_json: cannot open %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"name\": \"%s\"", name.c_str());
  std::fprintf(f, ",\n  \"schema_version\": %d", kBenchSchemaVersion);
  std::fprintf(f, ",\n  \"threads\": %zu", ThreadPool::requested_threads());
  std::fprintf(f, ",\n  \"git_rev\": \"%s\"",
               sanitized_git_rev(CYCLOPS_GIT_REV).c_str());
  std::fprintf(f, ",\n  \"host_nproc\": %zu", host_nproc());
  std::fprintf(f, ",\n  \"cpu_model\": \"%s\"", cpu_model().c_str());
  for (const auto& [key, value] : fields) {
    std::fprintf(f, ",\n  \"%s\": %s", key.c_str(),
                 json_number(value).c_str());
  }
  std::fprintf(f, "\n}\n");
  std::fclose(f);
  std::printf("[bench] wrote %s\n", path.c_str());
}

}  // namespace cyclops::util
