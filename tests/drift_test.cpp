// Tests for drift detection + mapping refresh and the servo settle model.
#include <gtest/gtest.h>

#include <cmath>

#include "core/calibration.hpp"
#include "core/drift_monitor.hpp"
#include "core/evaluation.hpp"
#include "core/tp_controller.hpp"
#include "galvo/galvo_mirror.hpp"
#include "util/units.hpp"

namespace cyclops::core {
namespace {

// ---- DriftMonitor unit behavior ----

TEST(DriftMonitorTest, HealthyLinkNeverFlags) {
  DriftMonitor monitor{DriftMonitorConfig{}};
  util::Rng rng(1);
  for (int i = 0; i < 500; ++i) {
    monitor.on_post_realignment_power(-10.5 + rng.normal(0.0, 0.8));
  }
  EXPECT_FALSE(monitor.recalibration_needed());
  EXPECT_NEAR(monitor.smoothed_power_dbm(), -10.5, 0.5);
}

TEST(DriftMonitorTest, PersistentShortfallFlags) {
  DriftMonitor monitor{DriftMonitorConfig{}};
  for (int i = 0; i < 200; ++i) {
    monitor.on_post_realignment_power(-18.0);
  }
  EXPECT_TRUE(monitor.recalibration_needed());
}

TEST(DriftMonitorTest, NeedsMinimumEvidence) {
  DriftMonitorConfig config;
  config.min_samples = 32;
  DriftMonitor monitor{config};
  for (int i = 0; i < 10; ++i) monitor.on_post_realignment_power(-25.0);
  EXPECT_FALSE(monitor.recalibration_needed());  // too few samples yet
}

TEST(DriftMonitorTest, BlackoutsAreNotDriftEvidence) {
  DriftMonitor monitor{DriftMonitorConfig{}};
  for (int i = 0; i < 100; ++i) {
    monitor.on_post_realignment_power(-10.5);
    monitor.on_post_realignment_power(
        -std::numeric_limits<double>::infinity());  // occlusion
  }
  EXPECT_FALSE(monitor.recalibration_needed());
}

TEST(DriftMonitorTest, ResetClearsState) {
  DriftMonitor monitor{DriftMonitorConfig{}};
  for (int i = 0; i < 100; ++i) monitor.on_post_realignment_power(-20.0);
  ASSERT_TRUE(monitor.recalibration_needed());
  monitor.reset();
  EXPECT_FALSE(monitor.recalibration_needed());
  EXPECT_EQ(monitor.samples(), 0);
}

// ---- end-to-end: drift happens, monitor flags, mapping refresh fixes ----

TEST(DriftRecoveryTest, MappingRefreshRestoresPower) {
  const runtime::Context ctx = runtime::Context::isolated({.threads = 0});
  sim::Prototype proto = sim::make_prototype(42, sim::prototype_10g_config());
  util::Rng rng(7);
  const CalibrationResult calib =
      calibrate_prototype(proto, CalibrationConfig{}, rng, ctx);
  const PointingSolver solver = calib.make_pointing_solver({}, ctx);

  // Simulate VRH-T drift: the hidden VR frame shifts (a re-deployment /
  // tracking-origin jump) by recreating the tracker with a nudged frame.
  const geom::Pose drift{geom::Mat3::rotation({0, 1, 0}, 10e-3),
                         {15e-3, -10e-3, 12e-3}};
  tracking::VrhTracker drifted(proto.config.tracker,
                               drift * proto.vr_from_world,
                               proto.x_from_rig, util::Rng(99));

  // Post-realignment powers under the old mapping: consistently short.
  DriftMonitor monitor{DriftMonitorConfig{}};
  const ExhaustiveAligner aligner({}, ctx.pool());
  std::vector<AlignedSample> fresh_tuples;
  sim::Voltages hint{};
  for (int i = 0; i < 40; ++i) {
    const geom::Pose pose =
        random_rig_pose(proto.nominal_rig_pose, 0.12, 0.08, rng);
    proto.scene.set_rig_pose(pose);
    const geom::Pose psi = drifted.report(0, pose).pose;
    const PointingResult p = solver.solve(psi, hint);
    if (p.converged) {
      monitor.on_post_realignment_power(
          proto.scene.received_power_dbm(p.voltages));
      hint = p.voltages;
    }
    // Meanwhile collect fresh aligned tuples for the refresh.
    if (fresh_tuples.size() < 25) {
      const AlignResult aligned = aligner.align(proto.scene, hint);
      if (aligned.converged()) {
        fresh_tuples.push_back({aligned.voltages, drifted.report(0, pose).pose});
      }
    }
  }
  ASSERT_TRUE(monitor.recalibration_needed());
  const double degraded = monitor.smoothed_power_dbm();

  // §4's prescription: redo only the mapping step with the fresh tuples.
  const MappingFitReport refreshed =
      fit_mapping(calib.tx_stage1.model, calib.rx_stage1.model, fresh_tuples,
                  calib.mapping.map_tx, calib.mapping.map_rx, {}, ctx);
  const PointingSolver refreshed_solver(calib.tx_stage1.model,
                                        calib.rx_stage1.model,
                                        refreshed.map_tx, refreshed.map_rx,
                                        PointingOptions{}, ctx);
  monitor.reset();
  for (int i = 0; i < 40; ++i) {
    const geom::Pose pose =
        random_rig_pose(proto.nominal_rig_pose, 0.12, 0.08, rng);
    proto.scene.set_rig_pose(pose);
    const PointingResult p =
        refreshed_solver.solve(drifted.report(0, pose).pose, hint);
    if (p.converged) {
      monitor.on_post_realignment_power(
          proto.scene.received_power_dbm(p.voltages));
      hint = p.voltages;
    }
  }
  EXPECT_FALSE(monitor.recalibration_needed());
  EXPECT_GT(monitor.smoothed_power_dbm(), degraded + 3.0);
  proto.scene.set_rig_pose(proto.nominal_rig_pose);
}

// ---- ServoDynamics ----

TEST(ServoDynamicsTest, SmallAngleFloorAndLinearGrowth) {
  const galvo::ServoDynamics servo;
  EXPECT_DOUBLE_EQ(servo.settle_time_s(0.0), 300e-6);
  EXPECT_NEAR(servo.settle_time_s(1.0), 360e-6, 1e-9);
  EXPECT_NEAR(servo.settle_time_s(-1.0), 360e-6, 1e-9);
  EXPECT_GT(servo.settle_time_s(10.0), servo.settle_time_s(1.0));
}

TEST(ServoDynamicsTest, ControllerDelaysLargeSteps) {
  const runtime::Context ctx = runtime::Context::isolated({.threads = 0});
  sim::Prototype proto = sim::make_prototype(42, sim::prototype_10g_config());
  util::Rng rng(7);
  const CalibrationResult calib =
      calibrate_prototype(proto, CalibrationConfig{}, rng, ctx);

  TpController controller(calib.make_pointing_solver({}, ctx), TpConfig{});
  tracking::PoseReport report;
  report.delivery_time = 1000;
  report.pose = proto.tracker.ideal_report(proto.nominal_rig_pose);
  // First command from zero voltages: a large step.
  const auto first = controller.on_report(report);
  ASSERT_TRUE(first.has_value());
  // Repeat of the same pose: a ~zero step.
  const auto second = controller.on_report(report);
  ASSERT_TRUE(second.has_value());
  EXPECT_GT(first->apply_time, second->apply_time);
}

}  // namespace
}  // namespace cyclops::core
