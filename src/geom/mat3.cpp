#include "geom/mat3.hpp"

#include <cmath>

namespace cyclops::geom {

Mat3 Mat3::zero() {
  Mat3 z;
  for (auto& row : z.m)
    for (auto& v : row) v = 0.0;
  return z;
}

UnitAxis::UnitAxis(const Vec3& axis) {
  const double n = axis.norm();
  zero = n == 0.0;
  if (!zero) u = axis / n;
}

Mat3 Mat3::rotation(const Vec3& axis, double angle) {
  return rodrigues(UnitAxis(axis), AngleTrig(angle));
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
