#include "geom/quat.hpp"

#include <cmath>

namespace cyclops::geom {

Quat Quat::from_axis_angle(const Vec3& axis, double angle) {
  const double n = axis.norm();
  if (n == 0.0) return identity();
  const double half = angle * 0.5;
  const double s = std::sin(half) / n;
  return {std::cos(half), axis.x * s, axis.y * s, axis.z * s};
}

Quat Quat::from_matrix(const Mat3& m) {
  // Shepperd's method: pick the largest diagonal combination for stability.
  const double t = m.trace();
  Quat q;
  if (t > 0.0) {
    const double s = std::sqrt(t + 1.0) * 2.0;
    q.w = 0.25 * s;
    q.x = (m.m[2][1] - m.m[1][2]) / s;
    q.y = (m.m[0][2] - m.m[2][0]) / s;
    q.z = (m.m[1][0] - m.m[0][1]) / s;
  } else if (m.m[0][0] > m.m[1][1] && m.m[0][0] > m.m[2][2]) {
    const double s = std::sqrt(1.0 + m.m[0][0] - m.m[1][1] - m.m[2][2]) * 2.0;
    q.w = (m.m[2][1] - m.m[1][2]) / s;
    q.x = 0.25 * s;
    q.y = (m.m[0][1] + m.m[1][0]) / s;
    q.z = (m.m[0][2] + m.m[2][0]) / s;
  } else if (m.m[1][1] > m.m[2][2]) {
    const double s = std::sqrt(1.0 + m.m[1][1] - m.m[0][0] - m.m[2][2]) * 2.0;
    q.w = (m.m[0][2] - m.m[2][0]) / s;
    q.x = (m.m[0][1] + m.m[1][0]) / s;
    q.y = 0.25 * s;
    q.z = (m.m[1][2] + m.m[2][1]) / s;
  } else {
    const double s = std::sqrt(1.0 + m.m[2][2] - m.m[0][0] - m.m[1][1]) * 2.0;
    q.w = (m.m[1][0] - m.m[0][1]) / s;
    q.x = (m.m[0][2] + m.m[2][0]) / s;
    q.y = (m.m[1][2] + m.m[2][1]) / s;
    q.z = 0.25 * s;
  }
  return q.normalized();
}

Quat Quat::operator*(const Quat& o) const {
  return {w * o.w - x * o.x - y * o.y - z * o.z,
          w * o.x + x * o.w + y * o.z - z * o.y,
          w * o.y - x * o.z + y * o.w + z * o.x,
          w * o.z + x * o.y - y * o.x + z * o.w};
}

double Quat::norm() const { return std::sqrt(w * w + x * x + y * y + z * z); }

Quat Quat::normalized() const {
  const double n = norm();
  return {w / n, x / n, y / n, z / n};
}

Mat3 Quat::to_matrix() const {
  Mat3 m;
  const double xx = x * x, yy = y * y, zz = z * z;
  const double xy = x * y, xz = x * z, yz = y * z;
  const double wx = w * x, wy = w * y, wz = w * z;
  m.m[0][0] = 1 - 2 * (yy + zz);
  m.m[0][1] = 2 * (xy - wz);
  m.m[0][2] = 2 * (xz + wy);
  m.m[1][0] = 2 * (xy + wz);
  m.m[1][1] = 1 - 2 * (xx + zz);
  m.m[1][2] = 2 * (yz - wx);
  m.m[2][0] = 2 * (xz - wy);
  m.m[2][1] = 2 * (yz + wx);
  m.m[2][2] = 1 - 2 * (xx + yy);
  return m;
}

Quat slerp(const Quat& a, const Quat& b, double t) {
  Quat bb = b;
  double dot = a.w * b.w + a.x * b.x + a.y * b.y + a.z * b.z;
  if (dot < 0.0) {
    bb = {-b.w, -b.x, -b.y, -b.z};
    dot = -dot;
  }
  if (dot > 0.9995) {
    // Nearly parallel: linear interpolate and renormalize.
    Quat q{a.w + t * (bb.w - a.w), a.x + t * (bb.x - a.x),
           a.y + t * (bb.y - a.y), a.z + t * (bb.z - a.z)};
    return q.normalized();
  }
  const double theta = std::acos(dot);
  const double s = std::sin(theta);
  const double wa = std::sin((1.0 - t) * theta) / s;
  const double wb = std::sin(t * theta) / s;
  return Quat{wa * a.w + wb * bb.w, wa * a.x + wb * bb.x, wa * a.y + wb * bb.y,
              wa * a.z + wb * bb.z}
      .normalized();
}

}  // namespace cyclops::geom
