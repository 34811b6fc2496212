// Shared plumbing of the benchmark binary: run options, the per-workload
// outcome (metrics with units, failure counts, fidelity, digest), wall
// timing, order statistics and the simulated-output digest.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/stats.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  /// Taken first thing in main(): set-up time runs from here.
  Clock::time_point started = Clock::now();
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test size: a few sessions / traces / one prototype.
  bool tiny = false;
  /// Stop after set-up and report only setup_s.
  bool setup_only = false;
  /// Where the traced run writes its spans (JSON lines); empty = nowhere.
  std::string spans_path;
};

inline double median(std::span<const double> values) {
  return cyclops::util::percentile(values, 50.0);
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run hands back to main().  `end_to_end` is filled
/// by untraced runs, `per_layer` by traced ones; `fidelity` and `digest`
/// are simulated results, identical across runs of one seed.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Simulated fidelity numbers, each with its paper anchor text.
  struct Fidelity {
    Metric metric;
    std::string paper;
  };
  std::vector<Fidelity> fidelity;
  std::uint64_t digest = 0;
};

/// How a phase reduces its per-window figures to one.
enum class WindowStat {
  /// The median window: for host noise that can make a window faster as
  /// well as slower (fleet_mix, trace_eval).
  kMedian,
  /// The best window (highest rate, lowest latency): for noise that only
  /// slows a window down.  A calibration op waits on ~400 short parallel
  /// jobs, and CPU time the hypervisor steals from any driver stalls them.
  /// Across ten-run sets its ops_per_s spread 0.19 with medians and 0.06
  /// with best windows.  Over the same six runs fleet_mix's spread 0.057
  /// with medians and 0.084 with best windows.
  kBest,
};

/// One timed phase of a closed loop, cut into windows of a fixed number
/// of ops (a fleet batch, ten trace_eval passes, one cycle over the
/// calibration prototypes).  Rates and latency quantiles are taken per
/// window and reduced over windows by `stat`.
class PhaseStats {
 public:
  explicit PhaseStats(WindowStat stat) : stat_(stat) {}

  /// Starts the phase clock (and the first window).
  void start();
  /// Records one finished op of `ms` milliseconds.
  void add_op(double ms);
  /// Closes the current window at now and opens the next.
  void close_window();
  /// Ends the phase (closing a non-empty open window).
  void finish();

  std::uint64_t ops() const noexcept { return ops_; }
  double wall_s() const noexcept { return wall_s_; }
  double elapsed_s() const { return seconds_between(start_, Clock::now()); }
  /// Window ops ÷ window wall time.
  double ops_per_s() const { return reduce(window_rate_, true); }
  /// Window median op latency.
  double op_ms_p50() const { return reduce(window_p50_, false); }
  /// Window p99 op latency.
  double op_ms_p99() const { return reduce(window_p99_, false); }

 private:
  double reduce(const std::vector<double>& values, bool higher_is_better) const {
    if (values.empty() || stat_ == WindowStat::kMedian) return median(values);
    return higher_is_better ? *std::max_element(values.begin(), values.end())
                            : *std::min_element(values.begin(), values.end());
  }

  WindowStat stat_;
  Clock::time_point start_{};
  Clock::time_point window_start_{};
  std::uint64_t ops_ = 0;
  double wall_s_ = 0.0;
  std::vector<double> window_ms_;
  std::vector<double> window_rate_;
  std::vector<double> window_p50_;
  std::vector<double> window_p99_;
};

/// Seconds from the start of main() to now.  Called once, after the
/// workload's set-up and just before its first timed op, so it covers
/// the pool's start, input generation and one untimed warm-up op.
inline double setup_seconds(const Options& options) {
  return seconds_between(options.started, Clock::now());
}

/// The untraced end-to-end metrics every workload reports.
void add_end_to_end(Outcome& out, double setup_s, const PhaseStats& phase);

/// Peak resident set of this process, MB.
double peak_rss_mb();

/// FNV-1a 64 over the exact bytes of simulated statistics: a speed-only
/// change must leave it unchanged.
class Digest {
 public:
  void add(std::uint64_t v);
  void add(double v);
  void add(std::span<const double> values) {
    for (double v : values) add(v);
  }
  std::uint64_t value() const noexcept { return h_; }

 private:
  void bytes(const void* p, std::size_t n);
  std::uint64_t h_ = 1469598103934665603ULL;
};

/// Workload entry points (one file each).
Outcome run_fleet_mix(const Options& options);
Outcome run_trace_eval(const Options& options);
Outcome run_calibration(const Options& options);

}  // namespace perfbench
