#include "common.hpp"

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

namespace perfbench {

void PhaseStats::start() {
  start_ = window_start_ = Clock::now();
}

void PhaseStats::add_op(double ms) {
  ++ops_;
  window_ms_.push_back(ms);
}

void PhaseStats::close_window() {
  const auto now = Clock::now();
  const double wall = seconds_between(window_start_, now);
  if (!window_ms_.empty() && wall > 0.0) {
    window_rate_.push_back(static_cast<double>(window_ms_.size()) / wall);
    window_p50_.push_back(median(window_ms_));
    window_p99_.push_back(cyclops::util::percentile(window_ms_, 99.0));
  }
  window_ms_.clear();
  window_start_ = now;
}

void PhaseStats::finish() {
  if (!window_ms_.empty()) close_window();
  wall_s_ = seconds_between(start_, Clock::now());
}

void add_end_to_end(Outcome& out, double setup_s, const PhaseStats& phase) {
  out.end_to_end.push_back({"setup_s", setup_s, "s"});
  out.end_to_end.push_back({"ops_per_s", phase.ops_per_s(), "1/s"});
  out.end_to_end.push_back({"op_ms_p50", phase.op_ms_p50(), "ms"});
  out.end_to_end.push_back({"op_ms_p99", phase.op_ms_p99(), "ms"});
  out.end_to_end.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter carries the peak of the
  // image that exec'd this process (e.g. a Python parent) across exec.
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB → MB
    }
  }
  return 0.0;
}

void Digest::bytes(const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= b[i];
    h_ *= 1099511628211ULL;
  }
}

void Digest::add(std::uint64_t v) { bytes(&v, sizeof v); }

void Digest::add(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add(bits);
}

}  // namespace perfbench
