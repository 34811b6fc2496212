#include "optics/photodiode.hpp"

#include <cmath>

namespace cyclops::optics {

QuadPhotodiode::QuadPhotodiode(geom::Pose center_pose, double arm_radius)
    : pose_(std::move(center_pose)), arm_radius_(arm_radius) {}

QuadReading QuadPhotodiode::read(const TracedBeam& beam) const {
  const std::array<geom::Vec3, 4> local{{{arm_radius_, 0, 0},
                                         {-arm_radius_, 0, 0},
                                         {0, arm_radius_, 0},
                                         {0, -arm_radius_, 0}}};
  QuadReading reading;
  for (std::size_t i = 0; i < local.size(); ++i) {
    const geom::Vec3 p = pose_.apply(local[i]);
    const double w = beam.lateral_scale_at(p);
    const double r = beam.envelope_offset(p);
    // Envelope intensity falls as exp(-2 r^2 / w^2); scale by 1/w^2 so a
    // wider (more spread) beam reads lower, like a real diode would.
    reading.currents[i] = std::exp(-2.0 * r * r / (w * w)) / (w * w);
  }
  return reading;
}

}  // namespace cyclops::optics
