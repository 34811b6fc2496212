#include "geom/mat3.hpp"

#include <cmath>

namespace cyclops::geom {

Mat3 Mat3::zero() {
  Mat3 z;
  for (auto& row : z.m)
    for (auto& v : row) v = 0.0;
  return z;
}

namespace {

/// The Rodrigues formula, written once: R(u, angle) about the unit axis u,
/// or the identity for a zero axis or a zero angle.
Mat3 rodrigues(const UnitAxis& axis, double angle) {
  if (axis.zero || angle == 0.0) return Mat3::identity();
  const Vec3& u = axis.u;
  const double c = std::cos(angle);
  const double s = std::sin(angle);
  const double t = 1.0 - c;
  Mat3 r;
  r.m[0][0] = c + u.x * u.x * t;
  r.m[0][1] = u.x * u.y * t - u.z * s;
  r.m[0][2] = u.x * u.z * t + u.y * s;
  r.m[1][0] = u.y * u.x * t + u.z * s;
  r.m[1][1] = c + u.y * u.y * t;
  r.m[1][2] = u.y * u.z * t - u.x * s;
  r.m[2][0] = u.z * u.x * t - u.y * s;
  r.m[2][1] = u.z * u.y * t + u.x * s;
  r.m[2][2] = c + u.z * u.z * t;
  return r;
}

}  // namespace

UnitAxis::UnitAxis(const Vec3& axis) {
  const double n = axis.norm();
  zero = n == 0.0;
  if (!zero) u = axis / n;
}

Vec3 rotate(const UnitAxis& axis, double angle, const Vec3& v) {
  return rodrigues(axis, angle) * v;
}

Mat3 Mat3::rotation(const Vec3& axis, double angle) {
  return rodrigues(UnitAxis(axis), angle);
}

Mat3 Mat3::rotation_between(const Vec3& from, const Vec3& to) {
  const Vec3 f = from.normalized();
  const Vec3 t = to.normalized();
  const Vec3 axis = f.cross(t);
  const double s = axis.norm();
  const double c = f.dot(t);
  if (s < 1e-15) {
    if (c > 0.0) return identity();
    // Opposite directions: rotate pi about any orthogonal axis.
    return rotation(any_orthogonal(f), std::acos(-1.0));
  }
  return rotation(axis, std::atan2(s, c));
}

Vec3 Mat3::operator*(const Vec3& v) const {
  return {m[0][0] * v.x + m[0][1] * v.y + m[0][2] * v.z,
          m[1][0] * v.x + m[1][1] * v.y + m[1][2] * v.z,
          m[2][0] * v.x + m[2][1] * v.y + m[2][2] * v.z};
}

Mat3 Mat3::operator*(const Mat3& o) const {
  Mat3 r = zero();
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j)
      for (int k = 0; k < 3; ++k) r.m[i][j] += m[i][k] * o.m[k][j];
  return r;
}

Mat3 Mat3::transposed() const {
  Mat3 t;
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j) t.m[i][j] = m[j][i];
  return t;
}

Vec3 rotation_vector(const Mat3& r) {
  const double c = (r.trace() - 1.0) * 0.5;
  const double angle = std::acos(c < -1.0 ? -1.0 : (c > 1.0 ? 1.0 : c));
  if (angle < 1e-12) return {0, 0, 0};
  const Vec3 skew{r.m[2][1] - r.m[1][2], r.m[0][2] - r.m[2][0],
                  r.m[1][0] - r.m[0][1]};
  const double s = skew.norm();
  if (s < 1e-9) {
    // angle ~ pi: extract the axis from the symmetric part.
    Vec3 axis{std::sqrt(std::max(0.0, (r.m[0][0] + 1.0) / 2.0)),
              std::sqrt(std::max(0.0, (r.m[1][1] + 1.0) / 2.0)),
              std::sqrt(std::max(0.0, (r.m[2][2] + 1.0) / 2.0))};
    // Fix signs using off-diagonal terms.
    if (axis.x >= axis.y && axis.x >= axis.z) {
      if (r.m[0][1] + r.m[1][0] < 0) axis.y = -axis.y;
      if (r.m[0][2] + r.m[2][0] < 0) axis.z = -axis.z;
    } else if (axis.y >= axis.z) {
      if (r.m[0][1] + r.m[1][0] < 0) axis.x = -axis.x;
      if (r.m[1][2] + r.m[2][1] < 0) axis.z = -axis.z;
    } else {
      if (r.m[0][2] + r.m[2][0] < 0) axis.x = -axis.x;
      if (r.m[1][2] + r.m[2][1] < 0) axis.y = -axis.y;
    }
    return axis.normalized() * angle;
  }
  return skew * (angle / s);
}

}  // namespace cyclops::geom
