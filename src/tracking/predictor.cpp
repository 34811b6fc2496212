#include "tracking/predictor.hpp"

#include <algorithm>
#include <cmath>

#include "geom/mat3.hpp"

namespace cyclops::tracking {

void ScalarCvKalman::update(double t_s, double measurement) {
  if (!initialized_) {
    x_ = measurement;
    v_ = 0.0;
    p00_ = config_.position_sigma * config_.position_sigma;
    p01_ = 0.0;
    p11_ = 1.0;  // wide-open velocity prior
    last_t_ = t_s;
    initialized_ = true;
    return;
  }
  const double dt = std::max(t_s - last_t_, 1e-6);
  last_t_ = t_s;

  // Predict.
  x_ += v_ * dt;
  const double q = config_.accel_sigma * config_.accel_sigma;
  // CV-model process noise (white acceleration).
  const double q00 = q * dt * dt * dt * dt / 4.0;
  const double q01 = q * dt * dt * dt / 2.0;
  const double q11 = q * dt * dt;
  const double p00 = p00_ + 2.0 * p01_ * dt + p11_ * dt * dt + q00;
  const double p01 = p01_ + p11_ * dt + q01;
  const double p11 = p11_ + q11;

  // Update with the position measurement.
  const double r = config_.position_sigma * config_.position_sigma;
  const double s = p00 + r;
  const double k0 = p00 / s;
  const double k1 = p01 / s;
  const double innovation = measurement - x_;
  x_ += k0 * innovation;
  v_ += k1 * innovation;
  p00_ = (1.0 - k0) * p00;
  p01_ = (1.0 - k0) * p01;
  p11_ = p11 - k1 * p01;
}

double ScalarCvKalman::predict(double t_s) const {
  if (!initialized_) return x_;
  return x_ + v_ * (t_s - last_t_);
}

PosePredictor::PosePredictor(PredictorConfig config)
    : config_(config), x_(config), y_(config), z_(config) {}

void PosePredictor::update(const PoseReport& report) {
  const double t_s = util::us_to_s(report.capture_time);
  const geom::Vec3& p = report.pose.translation();
  x_.update(t_s, p.x);
  y_.update(t_s, p.y);
  z_.update(t_s, p.z);

  const geom::Quat q = report.pose.rotation_quat();
  if (have_orientation_) {
    const double dt = util::us_to_s(report.capture_time - last_time_);
    if (dt > 1e-6) {
      // Relative rotation since the last report -> instantaneous rate.
      const geom::Quat dq = last_orientation_.conjugate() * q;
      const geom::Vec3 rate =
          geom::rotation_vector(dq.to_matrix()) / dt;
      const double a = config_.rate_smoothing;
      angular_rate_ = angular_rate_ * (1.0 - a) + rate * a;
    }
  }
  last_orientation_ = q;
  last_time_ = report.capture_time;
  have_orientation_ = true;
  ++updates_;
}

std::optional<geom::Pose> PosePredictor::predict(util::SimTimeUs when) const {
  if (updates_ < 2) return std::nullopt;
  const double horizon_s = std::clamp(
      util::us_to_s(when - last_time_), 0.0, config_.max_horizon_ms * 1e-3);
  const double t_s = util::us_to_s(last_time_) + horizon_s;

  const geom::Vec3 position{x_.predict(t_s), y_.predict(t_s),
                            z_.predict(t_s)};
  const double angle = angular_rate_.norm() * horizon_s;
  geom::Quat orientation = last_orientation_;
  if (angle > 1e-12) {
    // Body-frame rate: compose on the right.
    orientation =
        orientation * geom::Quat::from_axis_angle(angular_rate_, angle);
  }
  return geom::Pose::from_quat(orientation.normalized(), position);
}

}  // namespace cyclops::tracking
