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
    const std::array<double, kParamCount>& values) {
  GalvoParams p;
  for (std::size_t field = 0; field < kParamCount; field += 3) {
    p.unpack_field(field, values);
  }
  return p;
}

void GalvoParams::unpack_field(std::size_t column,
                               std::span<const double> v) {
  const std::size_t f = field_of(column);
  if (f == kTheta1) {
    theta1 = v[f];
    return;
  }
  const geom::Vec3 raw{v[f], v[f + 1], v[f + 2]};
  switch (f) {
    case kP0: p0 = raw; break;
    case kX0: x0 = raw.normalized(); break;
    case kN1: n1 = raw.normalized(); break;
    case kQ1: q1 = raw; break;
    case kR1: r1 = raw.normalized(); break;
    case kN2: n2 = raw.normalized(); break;
    case kQ2: q2 = raw; break;
    default: r2 = raw.normalized(); break;
  }
}

GalvoSpec gvs102_spec() { return {}; }

GalvoGeometry::GalvoGeometry(GalvoParams params)
    : params_(std::move(params)),
      x0_(params_.x0.normalized()),
      r1_(params_.r1),
      r2_(params_.r2) {}

GalvoGeometry GalvoGeometry::with_field(std::size_t column,
                                        std::span<const double> values) const {
  GalvoGeometry out = *this;
  out.params_.unpack_field(column, values);
  switch (GalvoParams::field_of(column)) {
    case GalvoParams::kX0: out.x0_ = out.params_.x0.normalized(); break;
    case GalvoParams::kR1: out.r1_ = geom::UnitAxis(out.params_.r1); break;
    case GalvoParams::kR2: out.r2_ = geom::UnitAxis(out.params_.r2); break;
    default: break;
  }
  return out;
}

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
