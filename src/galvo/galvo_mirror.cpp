#include "galvo/galvo_mirror.hpp"

#include <cmath>

#include "util/units.hpp"

namespace cyclops::galvo {

std::array<double, GalvoParams::kParamCount> GalvoParams::pack() const {
  return {p0.x, p0.y, p0.z, x0.x, x0.y, x0.z, n1.x, n1.y, n1.z,
          q1.x, q1.y, q1.z, r1.x, r1.y, r1.z, n2.x, n2.y, n2.z,
          q2.x, q2.y, q2.z, r2.x, r2.y, r2.z, theta1};
}

GalvoParams GalvoParams::unpack(
    const std::array<double, kParamCount>& v) {
  GalvoParams p;
  p.p0 = {v[0], v[1], v[2]};
  p.x0 = geom::Vec3{v[3], v[4], v[5]}.normalized();
  p.n1 = geom::Vec3{v[6], v[7], v[8]}.normalized();
  p.q1 = {v[9], v[10], v[11]};
  p.r1 = geom::Vec3{v[12], v[13], v[14]}.normalized();
  p.n2 = geom::Vec3{v[15], v[16], v[17]}.normalized();
  p.q2 = {v[18], v[19], v[20]};
  p.r2 = geom::Vec3{v[21], v[22], v[23]}.normalized();
  p.theta1 = v[24];
  return p;
}

GalvoSpec gvs102_spec() { return {}; }

GalvoGeometry::GalvoGeometry(GalvoParams params)
    : params_(std::move(params)),
      x0_(params_.x0.normalized()),
      r1_(params_.r1),
      r2_(params_.r2) {}

GalvoMirror::GalvoMirror(GalvoParams params, GalvoSpec spec)
    : geometry_(std::move(params)), spec_(spec) {}

std::optional<geom::Ray> trace_ideal(const GalvoParams& params, double v1,
                                     double v2) {
  const GalvoGeometry geometry(params);
  const auto mid = reflect_ideal(geometry.input(), geometry.mirror1_plane(v1));
  if (!mid) return std::nullopt;
  return reflect_ideal(*mid, geometry.mirror2_plane(v2));
}

std::optional<geom::Ray> GalvoMirror::first_leg(double v1) const {
  if (!voltage_in_range(v1)) return std::nullopt;
  const auto mid = geom::reflect(geometry_.input(), mirror1_plane(v1));
  if (!mid) return std::nullopt;
  if (geom::distance(mid->origin, params().q1) > spec_.mirror_radius) {
    return std::nullopt;  // clipped by mirror 1
  }
  return mid;
}

std::optional<geom::Ray> GalvoMirror::second_leg(
    const std::optional<geom::Ray>& first, double v2,
    const geom::Plane& mirror2) const {
  if (!first || !voltage_in_range(v2)) return std::nullopt;
  const auto out = geom::reflect(*first, mirror2);
  if (!out) return std::nullopt;
  if (geom::distance(out->origin, params().q2) > spec_.mirror_radius) {
    return std::nullopt;  // clipped by mirror 2
  }
  return out;
}

double Daq::quantize(double v) const noexcept {
  return std::round(v / quantization_step) * quantization_step;
}

}  // namespace cyclops::galvo
