// The self-calibrating install: core::calibrate_prototype with
// CalibrationConfig::blind_stage2 recovers the Stage-2 mapping with no
// manual measurement (cal::CalibrationEngine's blind phases — 60 TX
// multi-starts, then up to 12 joint polishes), and the learned models
// point the link well enough to bring it up.
#include <gtest/gtest.h>

#include "core/calibration.hpp"

namespace cyclops::core {
namespace {

TEST(BlindMappingTest, SelfCalibratesWithoutManualMeasurement) {
  sim::Prototype proto = sim::make_prototype(42, sim::prototype_10g_config());
  util::Rng rng(7);
  const runtime::Context ctx = runtime::Context::isolated({.threads = 0});

  // Blind Stage 2: NO manual guesses at all.
  CalibrationConfig config;
  config.blind_stage2 = true;
  const CalibrationResult calib = calibrate_prototype(proto, config, rng, ctx);
  ASSERT_GE(calib.stage2_samples.size(), 20u);
  EXPECT_LT(calib.mapping.avg_coincidence_m, 20e-3);

  // The resulting pointing must bring the link up from a fresh report at
  // the nominal pose.
  const PointingSolver solver = calib.make_pointing_solver({}, ctx);
  proto.scene.set_rig_pose(proto.nominal_rig_pose);
  const geom::Pose psi =
      proto.tracker.report(0, proto.nominal_rig_pose).pose;
  const PointingResult p = solver.solve(psi, {});
  ASSERT_TRUE(p.converged);
  EXPECT_GE(proto.scene.received_power_dbm(p.voltages),
            proto.scene.config().sfp.rx_sensitivity_dbm);
}

}  // namespace
}  // namespace cyclops::core
