// Envelope model of the launched FSO beam.
//
// Cyclops traces the beam as a chief ray plus an intensity envelope around
// it.  Two envelope kinds exist, matching the two §5.1 link designs:
//
//  * Collimated — constant diameter, all rays parallel to the chief ray
//    (the BE02-05-C beam-expander design).  Tilting the TX changes the
//    direction of every ray through the receive aperture.
//  * Diverging — a cone from a virtual apex slightly behind the launch
//    point (the CFC-2X-C adjustable-collimator design).  Tilting the TX
//    only slides the intensity envelope sideways: the ray that reaches a
//    fixed receive point always points from the apex to that point.  This
//    asymmetry is why Table 1 shows a huge TX angular tolerance for the
//    diverging design but not for the collimated one.
#pragma once

#include "geom/ray.hpp"
#include "geom/vec3.hpp"

namespace cyclops::optics {

enum class BeamKind {
  kCollimated,
  kDiverging,
};

/// Launch-side beam description (a property of the TX collimator).
struct BeamSpec {
  BeamKind kind = BeamKind::kDiverging;
  /// 1/e^2-style envelope diameter at the launch point (m).
  double launch_diameter = 2e-3;
  /// Cone half-angle for diverging beams (rad); ignored when collimated.
  double divergence_half_angle = 0.0;
  /// Lateral envelope scale factor: the misalignment "width" is
  /// tail_factor * radius.  ~1 for a clean Gaussian; >1 for the
  /// heavy-tailed output of the adjustable aspheric collimator.
  double tail_factor = 1.0;

  /// Spec for a diverging beam that reaches `target_diameter` at `range`.
  static BeamSpec diverging_for(double target_diameter, double range,
                                double launch_diameter = 2e-3,
                                double tail_factor = 1.8);

  /// Spec for a collimated beam of constant `diameter`.
  static BeamSpec collimated(double diameter, double tail_factor = 1.0);

  /// Local divergence half-angle of the beam anywhere (0 for collimated).
  double local_divergence() const noexcept {
    return kind == BeamKind::kCollimated ? 0.0 : divergence_half_angle;
  }
};

/// A beam in flight: chief ray plus envelope geometry.
struct TracedBeam {
  geom::Ray chief;    ///< Chief ray: origin on the last optic, unit direction.
  geom::Vec3 apex;    ///< Virtual cone apex (== chief.origin for collimated).
  BeamSpec spec;
  /// tan(spec.divergence_half_angle) for a diverging beam, taken once by
  /// launch_beam (0 for collimated).
  double tan_half_angle = 0.0;

  /// Envelope diameter at a point (uses distance from the apex for
  /// diverging beams; constant for collimated).
  double envelope_diameter_at(const geom::Vec3& p) const;

  /// Lateral envelope scale (the Gaussian-like "w") at a point.
  double lateral_scale_at(const geom::Vec3& p) const;

  /// Direction of the ray within the beam that passes through p.
  geom::Vec3 arriving_dir_at(const geom::Vec3& p) const;

  /// Perpendicular distance from p to the beam's central axis.
  double envelope_offset(const geom::Vec3& p) const;
};

/// Builds the beam launched from `launch` (origin = collimator output,
/// dir = optical axis) with the given spec.
TracedBeam launch_beam(const geom::Ray& launch, const BeamSpec& spec);

}  // namespace cyclops::optics
