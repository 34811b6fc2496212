#include "core/calibration.hpp"

#include "geom/mat3.hpp"

namespace cyclops::core {

geom::Pose random_pose_error(util::Rng& rng, double pos_sigma,
                             double angle_sigma) {
  const geom::Vec3 axis =
      geom::Vec3{rng.normal(), rng.normal(), rng.normal()}.normalized();
  return {geom::Mat3::rotation(axis, rng.normal(0.0, angle_sigma)),
          {rng.normal(0.0, pos_sigma), rng.normal(0.0, pos_sigma),
           rng.normal(0.0, pos_sigma)}};
}

geom::Pose random_rig_pose(const geom::Pose& nominal, double position_extent,
                           double angle_extent, util::Rng& rng) {
  const geom::Vec3 axis =
      geom::Vec3{rng.normal(), rng.normal(), rng.normal()}.normalized();
  const double angle = rng.uniform(-angle_extent, angle_extent);
  const geom::Vec3 offset{rng.uniform(-position_extent, position_extent),
                          rng.uniform(-position_extent, position_extent),
                          rng.uniform(-position_extent, position_extent)};
  return geom::Pose{geom::Mat3::rotation(axis, angle) * nominal.rotation(),
                    nominal.translation() + offset};
}

CalibrationResult truth_calibration(const sim::Prototype& proto) {
  return CalibrationResult{
      KSpaceFitReport{
          GmaModel(proto.tx_galvo_truth).transformed(proto.k_from_tx_gma),
          0.0, 0.0, 0, true},
      KSpaceFitReport{
          GmaModel(proto.rx_galvo_truth).transformed(proto.k_from_rx_gma),
          0.0, 0.0, 0, true},
      MappingFitReport{proto.true_map_tx, proto.true_map_rx, 0.0, 0.0, 0, true},
      {}};
}

// calibrate_prototype lives in cal/engine.cpp: the pipeline is now the
// phase sequence of cal::CalibrationEngine, and the one-shot entry point
// is an adapter that steps the engine to completion.

}  // namespace cyclops::core
