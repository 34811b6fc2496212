// Unit quaternions for VRH orientation reports.
//
// The tracker substrate reports orientation as a quaternion (like a real
// headset runtime); internally all optics math uses Mat3.
#pragma once

#include "geom/mat3.hpp"
#include "geom/vec3.hpp"

namespace cyclops::geom {

struct Quat {
  double w = 1.0;
  double x = 0.0;
  double y = 0.0;
  double z = 0.0;

  static Quat identity() { return {}; }
  static Quat from_axis_angle(const Vec3& axis, double angle);
  static Quat from_matrix(const Mat3& m);

  Quat operator*(const Quat& o) const;
  Quat conjugate() const { return {w, -x, -y, -z}; }
  double norm() const;
  Quat normalized() const;

  Mat3 to_matrix() const;
};

/// Spherical linear interpolation between unit quaternions, t in [0, 1].
Quat slerp(const Quat& a, const Quat& b, double t);

}  // namespace cyclops::geom
