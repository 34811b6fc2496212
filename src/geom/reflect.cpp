#include "geom/reflect.hpp"

namespace cyclops::geom {

std::optional<Ray> reflect(const Ray& incoming, const Plane& mirror) {
  const auto t = intersect(incoming, mirror);
  if (!t) return std::nullopt;
  const Vec3 hit = incoming.at(*t);
  const Vec3 n = mirror.normal.normalized();
  return Ray{hit, reflect_dir(incoming.dir, n)};
}

}  // namespace cyclops::geom
