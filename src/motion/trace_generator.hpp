// Synthetic head-movement traces for 360° video viewing.
//
// Stand-in for the public dataset of [47] (50 viewers x 10 one-minute
// YouTube 360° videos = 500 traces, 10 ms sampling) used in §5.4.  The
// generator produces yaw-dominant exploration with saccade bursts, small
// pitch/roll, and gentle positional sway; parameters are calibrated so the
// per-sample speed CDFs match the paper's Fig 3 characterization (maxima
// around 14 cm/s linear and 19 deg/s angular during normal use).
#pragma once

#include <vector>

#include "motion/trace.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace cyclops::motion {

struct TraceGeneratorConfig {
  double duration_s = 60.0;
  double sample_period_ms = 10.0;
  // Ornstein-Uhlenbeck rate processes (stationary stddevs).
  double yaw_rate_sigma = 0.052;    ///< rad/s (~3 deg/s).
  double pitch_rate_sigma = 0.024;  ///< rad/s.
  double roll_rate_sigma = 0.009;   ///< rad/s.
  double rate_time_constant_s = 0.6;
  /// Saccades: Poisson bursts of extra yaw rate.
  double saccade_rate_hz = 0.25;
  double saccade_peak_rps = 0.17;   ///< ~10 deg/s extra.
  double saccade_duration_s = 0.4;
  // Positional sway.
  double sway_speed_sigma = 0.017;  ///< Per-axis m/s.
  double sway_time_constant_s = 0.8;
  double sway_spring = 0.6;
  /// Posture-shift bursts (leaning / re-seating): brief linear-speed
  /// excursions toward the Fig-3 maximum that stress the link's lateral
  /// drift budget the way real viewers do.
  double shift_rate_hz = 0.18;
  double shift_peak_mps = 0.14;
  double shift_duration_s = 0.8;
  // Hard caps (Fig 3: "at most 19 deg/s and 14 cm/s").
  double max_angular_rps = 0.33;    ///< 19 deg/s.
  double max_linear_mps = 0.14;
  /// Soft pitch limit — viewers rarely look straight up/down.
  double max_pitch_rad = 0.6;
};

/// One synthetic viewing trace around `base` (the seated/standing pose).
Trace generate_viewing_trace(const geom::Pose& base,
                             const TraceGeneratorConfig& config,
                             util::Rng& rng);

/// The full §5.4 dataset: `count` traces with per-trace "viewer style"
/// variation (activity level scales the sigmas).  Trace i is generated
/// from a child RNG keyed off i (Rng::split(i)), so the dataset is
/// bit-identical at any thread count; `rng` advances by exactly one draw
/// per call regardless of `count`.
std::vector<Trace> generate_dataset(
    const geom::Pose& base, int count, const TraceGeneratorConfig& config,
    util::Rng& rng, util::ThreadPool& pool);

/// Room-scale (walking) VR: the user strolls between waypoints inside a
/// horizontal box around the base pose, facing forward and side-stepping
/// (standing room-scale play, e.g. rhythm games) with viewing jitter on
/// top.  Much faster linear motion than seated 360° viewing — the regime
/// that motivates prediction + multi-TX (bench/roomscale_study).
struct WalkingConfig {
  double duration_s = 60.0;
  double sample_period_ms = 10.0;
  /// Walkable half-extent around the base position (m, x and z).
  double area_half_extent = 0.45;
  double walk_speed_min = 0.20;  ///< m/s
  double walk_speed_max = 0.55;
  double pause_s_min = 0.5;      ///< Dwell at each waypoint.
  double pause_s_max = 2.0;
  /// Head-orientation jitter around the base forward direction.
  double gaze_yaw_sigma = 0.25;   ///< rad
  double gaze_pitch_sigma = 0.1;  ///< rad
};

Trace generate_walking_trace(const geom::Pose& base,
                             const WalkingConfig& config, util::Rng& rng);

}  // namespace cyclops::motion
