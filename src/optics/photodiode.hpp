// Quadrant photodiode array around the receive aperture.
//
// The prototype surrounds the RX collimator with four photodiodes wired to
// a DAQ (as in FSONet [32]) to monitor received power during the
// exhaustive-search alignment.  Each diode samples the local envelope
// intensity; their sum is a coarse power proxy the aligner can
// hill-climb on.
#pragma once

#include <array>

#include "geom/pose.hpp"
#include "optics/beam.hpp"

namespace cyclops::optics {

struct QuadReading {
  /// Diode currents, arbitrary linear units: +x, -x, +y, -y positions.
  std::array<double, 4> currents{};

  double sum() const noexcept {
    return currents[0] + currents[1] + currents[2] + currents[3];
  }
};

class QuadPhotodiode {
 public:
  /// `center_pose` maps diode-local coordinates (diodes on the local x/y
  /// axes at `arm_radius`, plane normal = local +z) into the world.
  QuadPhotodiode(const geom::Pose& center_pose, double arm_radius);

  /// Samples the beam's envelope intensity at the four diode positions.
  QuadReading read(const TracedBeam& beam) const;

  /// Moves the array; the four world diode positions are taken here, once
  /// per pose, not per read.
  void set_pose(const geom::Pose& pose);

 private:
  double arm_radius_;
  std::array<geom::Vec3, 4> diodes_;  ///< World positions: +x, -x, +y, -y.
};

}  // namespace cyclops::optics
