// The §5.4 trace-driven connectivity simulation, exactly as the paper
// specifies it: 1 ms slots; at each (10 ms) trace report the TP mechanism
// realigns within `tp_latency_ms` leaving a residual lateral/angular
// error; between reports the terminal drifts at the report-to-report rate;
// a slot is disconnected when accumulated lateral or angular error exceeds
// the link's tolerance.
//
// The evaluator is the discrete-event engine in event_eval.cpp
// (evaluate_trace_events, one trace; evaluate_dataset below fans a
// dataset out over a pool): one report event per trace interval, off/on
// runs located by monotone bisection of detail::IntervalModel::off_at.
// The legacy per-slot loop calls the same predicate and survives as a
// test-only oracle (tests/oracle); the two agree bit-for-bit (enforced in
// tests/event_test.cpp and in bench/fig16_trace_cdf).
#pragma once

#include <cstdint>
#include <vector>

#include "motion/trace.hpp"
#include "obs/registry.hpp"
#include "util/thread_pool.hpp"

namespace cyclops::link {

struct SlotEvalConfig {
  double slot_ms = 1.0;
  double tp_latency_ms = 2.0;
  /// Residual TP error after a realignment (§5.4 uses the Table-2 combined
  /// averages: 4.54 mm lateral, 4.54 mm / 1.75 m = 2.59 mrad angular).
  double residual_lateral_m = 4.54e-3;
  double residual_angular_rad = 4.54e-3 / 1.75;
  /// Link movement tolerances (25G design: 6 mm lateral, 8.73 mrad).
  double lateral_tolerance_m = 6e-3;
  double angular_tolerance_rad = 8.73e-3;
};

struct SlotEvalResult {
  int total_slots = 0;
  int off_slots = 0;
  double off_fraction() const {
    return total_slots > 0 ? static_cast<double>(off_slots) / total_slots : 0.0;
  }
  /// Off-slot clustering: for each 30-slot "frame" containing at least one
  /// off-slot, how many of its slots were off.
  std::vector<int> off_per_dirty_frame;
  /// Fraction of off-slots that fall in frames with fewer than
  /// `threshold` off-slots (the paper reports >60 % for threshold 10);
  /// 0 with no off-slots.
  double scattered_fraction(int threshold = 10) const {
    int scattered = 0, total = 0;
    for (int n : off_per_dirty_frame) {
      total += n;
      if (n < threshold) scattered += n;
    }
    return total > 0 ? static_cast<double>(scattered) / total : 0.0;
  }
};

namespace detail {

/// The §5.4 drift model for one report interval, shared verbatim by the
/// event engine and the fixed-step oracle — a single definition of the
/// per-slot float arithmetic is what makes them bit-identical.
struct IntervalModel {
  double gap_ms = 0.0;
  double lat_rate = 0.0;  ///< m/ms (>= 0: it is a distance over a gap).
  double ang_rate = 0.0;  ///< rad/ms (>= 0).
  const SlotEvalConfig* config = nullptr;

  /// True while slot s (0-based within the interval) still rides the
  /// carry-over branch (realignment for this interval's report not yet
  /// landed).  Monotone non-increasing in s.
  bool in_carry(int s) const {
    return (s + 1) * config->slot_ms <= config->tp_latency_ms;
  }

  /// The legacy per-slot decision, byte-for-byte.  Within each branch the
  /// error is a monotone non-decreasing function of s (rates and times are
  /// non-negative and IEEE rounding is monotone), so "off" is a monotone
  /// predicate per region — which is what lets the event engine bisect for
  /// the first off slot instead of scanning.
  bool off_at(int s) const {
    const double t_ms = (s + 1) * config->slot_ms;
    double lat_err, ang_err;
    if (t_ms <= config->tp_latency_ms) {
      // Realignment for the report at the interval start hasn't landed:
      // drift continues on top of the previous interval's budget.  Use a
      // conservative carry-over of one full interval of drift.
      lat_err = config->residual_lateral_m + lat_rate * (gap_ms + t_ms);
      ang_err = config->residual_angular_rad + ang_rate * (gap_ms + t_ms);
    } else {
      lat_err = config->residual_lateral_m + lat_rate * t_ms;
      ang_err = config->residual_angular_rad + ang_rate * t_ms;
    }
    return lat_err > config->lateral_tolerance_m ||
           ang_err > config->angular_tolerance_rad;
  }
};

/// Number of 1 ms slots in a 30-slot video frame (§5.4's clustering unit).
inline constexpr int kFrameSlots = 30;

}  // namespace detail

/// Evaluates a dataset; returns per-trace off-fractions (for the Fig 16
/// CDF) plus the pooled result.  Traces are evaluated in parallel over
/// `pool` — one event engine per trace — and merged in trace order, so the
/// result is bit-identical to the serial path at any thread count (pass
/// util::ThreadPool::serial() to force inline execution).
///
/// `registry` (optional) accumulates the eval-plane metrics documented
/// on evaluate_trace_events.  Each pool chunk tallies its traces' metrics
/// in plain integers, and the chunks' sum is recorded once after the
/// fan-out, so the values are bit-identical at any thread count.  Throws
/// std::invalid_argument as evaluate_trace_events does, and when the
/// pooled slot total does not fit in an int.
struct DatasetEvalResult {
  std::vector<double> per_trace_off_fraction;
  SlotEvalResult pooled;
  std::uint64_t events = 0;  ///< Total events dispatched.
};
DatasetEvalResult evaluate_dataset(
    const std::vector<motion::Trace>& traces, const SlotEvalConfig& config,
    util::ThreadPool& pool, obs::Registry* registry = nullptr);

}  // namespace cyclops::link
