// Pose prediction to cancel tracking latency.
//
// §5.2 identifies the speed limit as (tracking period + pointing latency)
// x movement speed; the paper's proposed fix is a faster VRH-T.  An
// alternative that needs no new hardware: predict the pose at voltage-
// application time from the report history.  This module implements a
// constant-velocity Kalman filter per translation axis plus a quaternion
// rate extrapolator; bench/ablation_prediction measures how much of the
// latency wall it buys back.
#pragma once

#include <optional>

#include "geom/pose.hpp"
#include "tracking/vrh_tracker.hpp"
#include "util/sim_clock.hpp"

namespace cyclops::tracking {

struct PredictorConfig {
  /// Process noise: white acceleration (m/s^2, stddev).
  double accel_sigma = 2.0;
  /// Measurement noise of the reported position (m, per axis).
  double position_sigma = 0.3e-3;
  /// Cap on how far ahead extrapolation is trusted.
  double max_horizon_ms = 40.0;
  /// Blend factor for the angular-rate estimate (exponential smoothing).
  double rate_smoothing = 0.5;
};

/// Per-axis constant-velocity Kalman filter.
class ScalarCvKalman {
 public:
  explicit ScalarCvKalman(const PredictorConfig& config)
      : config_(config) {}

  void update(double t_s, double measurement);
  /// Predicted value at t_s (extrapolates from the last update).
  double predict(double t_s) const;
  bool initialized() const noexcept { return initialized_; }
  double velocity() const noexcept { return v_; }

 private:
  PredictorConfig config_;
  bool initialized_ = false;
  double last_t_ = 0.0;
  double x_ = 0.0, v_ = 0.0;
  // Covariance [ [p00 p01], [p01 p11] ].
  double p00_ = 1.0, p01_ = 0.0, p11_ = 1.0;
};

/// Full-pose predictor: CV Kalman on x/y/z, smoothed angular-velocity
/// extrapolation on orientation.
class PosePredictor {
 public:
  explicit PosePredictor(PredictorConfig config = {});

  /// Feeds one report (uses capture_time and the reported pose).
  void update(const PoseReport& report);

  /// Pose predicted at `when`; nullopt until two reports have arrived.
  std::optional<geom::Pose> predict(util::SimTimeUs when) const;

 private:
  PredictorConfig config_;
  ScalarCvKalman x_, y_, z_;
  bool have_orientation_ = false;
  geom::Quat last_orientation_;
  util::SimTimeUs last_time_ = 0;
  geom::Vec3 angular_rate_{};  ///< Smoothed body rate (rad/s).
  int updates_ = 0;
};

}  // namespace cyclops::tracking
