#include "optics/photodiode.hpp"

#include <cmath>

namespace cyclops::optics {

QuadPhotodiode::QuadPhotodiode(const geom::Pose& center_pose, double arm_radius)
    : arm_radius_(arm_radius) {
  set_pose(center_pose);
}

void QuadPhotodiode::set_pose(const geom::Pose& pose) {
  const double a = arm_radius_;
  diodes_ = {pose.apply({a, 0, 0}), pose.apply({-a, 0, 0}),
             pose.apply({0, a, 0}), pose.apply({0, -a, 0})};
}

QuadReading QuadPhotodiode::read(const TracedBeam& beam) const {
  QuadReading reading;
  for (std::size_t i = 0; i < diodes_.size(); ++i) {
    const geom::Vec3& p = diodes_[i];
    const double w = beam.lateral_scale_at(p);
    const double r = beam.envelope_offset(p);
    // Envelope intensity falls as exp(-2 r^2 / w^2); scale by 1/w^2 so a
    // wider (more spread) beam reads lower, like a real diode would.
    reading.currents[i] = std::exp(-2.0 * r * r / (w * w)) / (w * w);
  }
  return reading;
}

}  // namespace cyclops::optics
