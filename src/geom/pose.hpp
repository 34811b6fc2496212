// Rigid 6-DoF transforms (SE(3)).
//
// A Pose maps coordinates in its *local* frame into the *parent* frame:
// world_point = pose.apply(local_point).  The 6-parameter vector form
// (rotation-vector + translation) is what the Stage-2 "mapping parameters"
// optimizer estimates — 6 per GMA, 12 total, exactly as in §4.2.
#pragma once

#include <array>
#include <cmath>
#include <limits>
#include <numbers>

#include "geom/mat3.hpp"
#include "geom/quat.hpp"
#include "geom/ray.hpp"
#include "geom/vec3.hpp"

namespace cyclops::geom {

class Pose {
 public:
  Pose() = default;
  Pose(const Mat3& rotation, const Vec3& translation)
      : r_(rotation), t_(translation) {}

  static Pose identity() { return {}; }
  static Pose from_quat(const Quat& q, const Vec3& translation) {
    return {q.to_matrix(), translation};
  }
  /// Builds from the 6-parameter vector [rx, ry, rz, tx, ty, tz] where
  /// (rx, ry, rz) is a rotation vector (axis * angle).
  static Pose from_params(const std::array<double, 6>& p);

  const Mat3& rotation() const { return r_; }
  const Vec3& translation() const { return t_; }
  Quat rotation_quat() const { return Quat::from_matrix(r_); }

  /// The 6-parameter vector form (inverse of from_params).
  std::array<double, 6> params() const;

  Vec3 apply(const Vec3& p) const { return r_ * p + t_; }
  Vec3 apply_dir(const Vec3& d) const { return r_ * d; }
  Ray apply(const Ray& ray) const { return {apply(ray.origin), apply_dir(ray.dir)}; }
  Plane apply(const Plane& pl) const { return {apply(pl.point), apply_dir(pl.normal)}; }

  Pose inverse() const;
  /// Composition: (a * b).apply(p) == a.apply(b.apply(p)).
  Pose operator*(const Pose& o) const;

 private:
  Mat3 r_;
  Vec3 t_;
};

/// Translation distance between two poses.  Header-inline: the Fig-16
/// evaluator calls it per interval on its bound path.
inline double translation_distance(const Pose& a, const Pose& b) {
  return distance(a.translation(), b.translation());
}

/// Rotation angle between two poses' orientations, radians.
double rotation_distance(const Pose& a, const Pose& b);

/// An upper bound on rotation_distance(a, b) from nine products, or +inf
/// where its argument stops (a non-finite entry, an angle past ~π/3).
/// rotation_distance takes θ = acos((T̂ − 1)/2) from the computed trace T̂
/// of AᵀB, and T̂ − 1 is exact for T̂ in [2, 4), so θ = 2·asin(√(3 − T̂)/2).
/// That trace is S = Σ aᵢⱼbᵢⱼ.  T̂ and the sum Ŝ below round each product
/// at most 9 times, so |T̂ − Ŝ| ≤ 2γ₉·Σ|aᵢⱼbᵢⱼ| (γ₉ ≈ 9u, u = 2⁻⁵³), and
/// q = (3 − Ŝ) + 2⁻⁴⁸·Σ|aᵢⱼbᵢⱼ| ≥ 3 − T̂: 32u per unit of Σ|aᵢⱼbᵢⱼ| also
/// covers rounding 3 − Ŝ (exact for Ŝ in [1.5, 6]).  asin(x)/x grows on
/// (0, 1], so for √q/2 ≤ x₀ = 1/2 (q ≤ 1), θ ≤ k·√q, k = asin(x₀)/x₀ = π/3.
/// A relative margin of 1e-12 covers the few ulps of acos, of
/// rotation_vector's rescale and of this sqrt and product.  q ≤ 0 means
/// T̂ ≥ 3, where rotation_distance is 0.
inline double rotation_distance_bound(const Pose& a, const Pose& b) {
  const Mat3& ra = a.rotation();
  const Mat3& rb = b.rotation();
  double dot = 0.0, abs_dot = 0.0;
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      const double p = ra.m[i][j] * rb.m[i][j];
      dot += p;
      abs_dot += std::abs(p);
    }
  }
  const double q = (3.0 - dot) + abs_dot * 0x1p-48;
  if (!(q <= 1.0)) return std::numeric_limits<double>::infinity();
  if (q <= 0.0) return 0.0;
  constexpr double k = std::numbers::pi / 3.0 * (1.0 + 1e-12);
  return k * std::sqrt(q);
}

}  // namespace cyclops::geom
