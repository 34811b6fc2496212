#include "optics/beam.hpp"

#include <cmath>

namespace cyclops::optics {

BeamSpec BeamSpec::diverging_for(double target_diameter, double range,
                                 double launch_diameter, double tail_factor) {
  BeamSpec spec;
  spec.kind = BeamKind::kDiverging;
  spec.launch_diameter = launch_diameter;
  spec.divergence_half_angle =
      (target_diameter - launch_diameter) / (2.0 * range);
  spec.tail_factor = tail_factor;
  return spec;
}

BeamSpec BeamSpec::collimated(double diameter, double tail_factor) {
  BeamSpec spec;
  spec.kind = BeamKind::kCollimated;
  spec.launch_diameter = diameter;
  spec.divergence_half_angle = 0.0;
  spec.tail_factor = tail_factor;
  return spec;
}

double TracedBeam::envelope_diameter_at(const geom::Vec3& p) const {
  if (spec.kind == BeamKind::kCollimated) return spec.launch_diameter;
  const double dist = geom::distance(apex, p);
  return 2.0 * dist * tan_half_angle;
}

double TracedBeam::lateral_scale_at(const geom::Vec3& p) const {
  return spec.tail_factor * 0.5 * envelope_diameter_at(p);
}

geom::Vec3 TracedBeam::arriving_dir_at(const geom::Vec3& p) const {
  if (spec.kind == BeamKind::kCollimated) return chief.dir;
  const geom::Vec3 d = p - apex;
  const double n = d.norm();
  // Degenerate: asking at the apex itself; fall back to the chief direction.
  if (n < 1e-12) return chief.dir;
  return d / n;
}

double TracedBeam::envelope_offset(const geom::Vec3& p) const {
  return geom::line_point_distance(chief, p);
}

TracedBeam launch_beam(const geom::Ray& launch, const BeamSpec& spec) {
  TracedBeam beam;
  beam.chief = {launch.origin, launch.dir.normalized()};
  beam.spec = spec;
  if (spec.kind == BeamKind::kDiverging) {
    beam.tan_half_angle = std::tan(spec.divergence_half_angle);
  }
  if (spec.kind == BeamKind::kDiverging && spec.divergence_half_angle > 0.0) {
    // Place the virtual apex behind the launch point so the envelope has
    // the requested launch diameter at the launch plane.
    const double back = (spec.launch_diameter * 0.5) / beam.tan_half_angle;
    beam.apex = beam.chief.origin - beam.chief.dir * back;
  } else {
    beam.apex = beam.chief.origin;
  }
  return beam;
}

}  // namespace cyclops::optics
