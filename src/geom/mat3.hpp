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

  Vec3 operator*(const Vec3& v) const;
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

/// Exactly Mat3::rotation(axis, angle) * v, bit for bit, for the `axis`
/// the UnitAxis was built from — without normalising it again.
Vec3 rotate(const UnitAxis& axis, double angle, const Vec3& v);

/// Converts a rotation matrix to its rotation-vector (axis * angle) form.
/// Inverse of Mat3::rotation for angles in [0, pi].
Vec3 rotation_vector(const Mat3& r);

}  // namespace cyclops::geom
