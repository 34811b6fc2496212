// cyclops_perfbench: runs one benchmark workload and prints its metrics.
//
//   cyclops_perfbench --workload fleet_mix|trace_eval|calibration
//                     --seed N --seconds S [--trace 0|1] [--tiny]
//                     [--setup-only] [--spans PATH]
//
// --setup-only stops before the first timed op and reports only setup_s.
// Prints a human-readable summary, then as its last line one JSON object
// with the workload's metrics (name → value and unit), attempted / failed
// op counts, the fidelity numbers beside their paper anchors, the
// simulated-output digest and the host facts the binary knows.  run.py
// builds this binary, adds the host record and prints the final result.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.hpp"
#include "obs/config.hpp"
#include "spans.hpp"
#include "util/bench_io.hpp"
#include "util/thread_pool.hpp"

namespace {

using perfbench::Metric;
using perfbench::Outcome;

int usage(const char* why) {
  std::fprintf(stderr,
               "cyclops_perfbench: %s\n"
               "usage: cyclops_perfbench --workload fleet_mix|trace_eval|"
               "calibration --seed N --seconds S [--trace 0|1] [--tiny] "
               "[--setup-only] [--spans PATH]\n",
               why);
  return 2;
}

/// JSON string escaping for the few free-text fields (names, anchors).
std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void print_metrics_json(const std::vector<Metric>& metrics) {
  std::printf("{");
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s%s:{\"value\":%.17g,\"unit\":%s}", i ? "," : "",
                quoted(metrics[i].name).c_str(), metrics[i].value,
                quoted(metrics[i].unit).c_str());
  }
  std::printf("}");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;  // first: set-up time counts from here
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tiny") {
      options.tiny = true;
      continue;
    }
    if (arg == "--setup-only") {
      options.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = v;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(v, &end, 10);
      have_seed = *end == '\0' && *v != '\0';
      if (!have_seed) return usage("--seed takes a whole number");
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(options.seconds > 0.0)) {
        return usage("--seconds takes a positive number");
      }
    } else if (arg == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        return usage("--trace takes 0 or 1");
      }
      options.trace = v[0] == '1';
    } else if (arg == "--spans") {
      options.spans_path = v;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed) return usage("--seed is required");

  Outcome out;
  if (options.workload == "fleet_mix") {
    out = perfbench::run_fleet_mix(options);
  } else if (options.workload == "trace_eval") {
    out = perfbench::run_trace_eval(options);
  } else if (options.workload == "calibration") {
    out = perfbench::run_calibration(options);
  } else {
    return usage("unknown workload");
  }

  if (options.trace) {
    const std::vector<perfbench::Span> spans =
        perfbench::SpanLog::instance().take();
    const perfbench::SpanSummary summary = perfbench::summarize(spans);
    out.per_layer.push_back({"bench.span_coverage", summary.coverage, "frac"});
    std::printf("spans: %zu over %llu ops, child coverage of op time %.1f%%\n",
                spans.size(), static_cast<unsigned long long>(summary.ops),
                100.0 * summary.coverage);
    std::printf("  %-34s %9s %12s %12s\n", "span", "count", "total_ms",
                "self_ms");
    for (const auto& row : summary.rows) {
      std::printf("  %-34s %9llu %12.1f %12.1f\n", row.name.c_str(),
                  static_cast<unsigned long long>(row.count), row.total_ms,
                  row.self_ms);
    }
    if (!options.spans_path.empty() &&
        !perfbench::write_spans_jsonl(options.spans_path, spans)) {
      std::fprintf(stderr, "cannot write spans to %s\n",
                   options.spans_path.c_str());
      return 1;
    }
  }

  const std::vector<Metric>& metrics =
      options.trace ? out.per_layer : out.end_to_end;
  std::printf("%s (%s run, seed %llu): %llu ops attempted, %llu failed\n",
              options.workload.c_str(), options.trace ? "traced" : "untraced",
              static_cast<unsigned long long>(options.seed),
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (const Metric& m : metrics) {
    std::printf("  %-40s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& f : out.fidelity) {
    std::printf("  %-40s %16.6g %-5s  paper: %s\n", f.metric.name.c_str(),
                f.metric.value, f.metric.unit.c_str(), f.paper.c_str());
  }

  const double failed_frac =
      out.attempted > 0 ? static_cast<double>(out.failed) / out.attempted : 1.0;
  std::printf("{\"workload\":%s,\"seed\":%llu,\"trace\":%d,\"attempted\":%llu,"
              "\"failed\":%llu,\"failed_frac\":%.17g,\"digest\":\"%016llx\","
              "\"metrics\":",
              quoted(options.workload).c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0,
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), failed_frac,
              static_cast<unsigned long long>(out.digest));
  print_metrics_json(metrics);
  std::printf(",\"fidelity\":{");
  for (std::size_t i = 0; i < out.fidelity.size(); ++i) {
    const auto& f = out.fidelity[i];
    std::printf("%s%s:{\"value\":%.17g,\"unit\":%s,\"paper\":%s}", i ? "," : "",
                quoted(f.metric.name).c_str(), f.metric.value,
                quoted(f.metric.unit).c_str(), quoted(f.paper).c_str());
  }
  std::printf("},\"host\":{\"driver_threads\":%zu,\"cpu_model\":%s,"
              "\"build_type\":%s,\"cyclops_obs\":%s}}\n",
              cyclops::util::ThreadPool::global().thread_count(),
              quoted(cyclops::util::cpu_model()).c_str(),
              quoted(PERFBENCH_BUILD_TYPE).c_str(),
              cyclops::obs::kEnabled ? "\"ON\"" : "\"OFF\"");
  return 0;
}
