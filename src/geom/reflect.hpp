// Mirror reflection of a chief ray — the R(p0, x0, n', q) function from
// §4.1 of the paper: reflects the incoming beam off the mirror plane with
// (possibly rotated) normal n' through point q, moving the beam origin to
// the intersection point on the mirror.
#pragma once

#include <optional>

#include "geom/ray.hpp"

namespace cyclops::geom {

/// Reflects `incoming` off the mirror plane.  Returns the outgoing ray whose
/// origin is the hit point on the mirror, or nullopt if the ray misses the
/// plane (parallel or behind).
std::optional<Ray> reflect(const Ray& incoming, const Plane& mirror);

/// Direction-only reflection: d - 2 (d . n) n for unit normal n.
inline Vec3 reflect_dir(const Vec3& dir, const Vec3& unit_normal) {
  return dir - unit_normal * (2.0 * dir.dot(unit_normal));
}

}  // namespace cyclops::geom
