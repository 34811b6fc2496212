#include "geom/pose.hpp"

namespace cyclops::geom {

Pose Pose::from_params(const std::array<double, 6>& p) {
  const Vec3 rvec{p[0], p[1], p[2]};
  const double angle = rvec.norm();
  const Mat3 r = angle > 0.0 ? Mat3::rotation(rvec, angle) : Mat3::identity();
  return {r, Vec3{p[3], p[4], p[5]}};
}

std::array<double, 6> Pose::params() const {
  const Vec3 rvec = rotation_vector(r_);
  return {rvec.x, rvec.y, rvec.z, t_.x, t_.y, t_.z};
}

Pose Pose::inverse() const {
  const Mat3 rt = r_.transposed();
  return {rt, rt * (-t_)};
}

Pose Pose::operator*(const Pose& o) const {
  return {r_ * o.r_, r_ * o.t_ + t_};
}

double rotation_distance(const Pose& a, const Pose& b) {
  const Mat3 rel = a.rotation().transposed() * b.rotation();
  return rotation_vector(rel).norm();
}

}  // namespace cyclops::geom
