// 3x3 matrices and axis-angle (Rodrigues) rotations.
#pragma once

#include "geom/vec3.hpp"

namespace cyclops::geom {

/// Row-major 3x3 matrix.
struct Mat3 {
  double m[3][3] = {{1, 0, 0}, {0, 1, 0}, {0, 0, 1}};

  static Mat3 identity() { return {}; }
  static Mat3 zero();

  /// Rotation by `angle` radians about the (unit or non-unit) axis, via the
  /// Rodrigues formula.  This is R(r, theta) from the paper's GM model.
  static Mat3 rotation(const Vec3& axis, double angle);

  /// Rotation taking unit vector `from` to unit vector `to`.
  static Mat3 rotation_between(const Vec3& from, const Vec3& to);

  Vec3 operator*(const Vec3& v) const {
    return {m[0][0] * v.x + m[0][1] * v.y + m[0][2] * v.z,
            m[1][0] * v.x + m[1][1] * v.y + m[1][2] * v.z,
            m[2][0] * v.x + m[2][1] * v.y + m[2][2] * v.z};
  }
  Mat3 operator*(const Mat3& o) const;
  Mat3 transposed() const;

  /// Trace of the matrix.
  double trace() const { return m[0][0] + m[1][1] + m[2][2]; }

  Vec3 row(int i) const { return {m[i][0], m[i][1], m[i][2]}; }
  Vec3 col(int j) const { return {m[0][j], m[1][j], m[2][j]}; }
};

/// A rotation axis normalised once, for callers that rotate about a fixed
/// axis many times.  Keeps Mat3::rotation's identity test for a zero axis.
struct UnitAxis {
  Vec3 u;            ///< axis / |axis| (meaningless when `zero`).
  bool zero = true;  ///< |axis| == 0: every rotation is the identity.

  explicit UnitAxis(const Vec3& axis);
};

/// A rotation angle's cos and sin, taken once, for callers that rotate by
/// the same angle more than once.  Keeps Mat3::rotation's identity test
/// for a zero angle.
struct AngleTrig {
  double c, s;  ///< cos(angle), sin(angle).
  bool zero;    ///< angle == 0: every rotation by it is the identity.
  /// An unset slot (an output vector filled in parallel).
  AngleTrig() = default;
  explicit AngleTrig(double angle)
      : c(std::cos(angle)), s(std::sin(angle)), zero(angle == 0.0) {}
};

/// The Rodrigues formula, written once: R(u, angle) about the unit axis u,
/// or the identity for a zero axis or a zero angle.  Exactly
/// Mat3::rotation(axis, angle), bit for bit, for the axis and angle the
/// UnitAxis and AngleTrig were built from.
inline Mat3 rodrigues(const UnitAxis& axis, const AngleTrig& angle) {
  if (axis.zero || angle.zero) return Mat3::identity();
  const Vec3& u = axis.u;
  const double c = angle.c;
  const double s = angle.s;
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

/// Converts a rotation matrix to its rotation-vector (axis * angle) form.
/// Inverse of Mat3::rotation for angles in [0, pi].
Vec3 rotation_vector(const Mat3& r);

}  // namespace cyclops::geom
