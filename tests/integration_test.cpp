// End-to-end integration tests: the full pipeline from calibration through
// closed-loop streaming, plus regression tests for cross-cutting behaviors
// (tracker schedule reset between runs, DAQ command pipelining, the
// frozen-origin ablation hook, VR-frame streaming over the simulated link).
#include <gtest/gtest.h>

#include <cmath>

#include "core/calibration.hpp"
#include "link/fso_link.hpp"
#include "motion/profile.hpp"
#include "motion/trace_generator.hpp"
#include "stream/frame_source.hpp"
#include "stream/freeze_ledger.hpp"
#include "stream/wire_queue.hpp"
#include "util/units.hpp"

namespace cyclops {
namespace {

class IntegrationFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    proto_ = new sim::Prototype(
        sim::make_prototype(1234, sim::prototype_10g_config()));
    util::Rng rng(99);
    calib_ = new core::CalibrationResult(
        core::calibrate_prototype(*proto_, core::CalibrationConfig{}, rng));
  }
  static void TearDownTestSuite() {
    delete calib_;
    delete proto_;
    proto_ = nullptr;
    calib_ = nullptr;
  }
  static sim::Prototype* proto_;
  static core::CalibrationResult* calib_;
};

sim::Prototype* IntegrationFixture::proto_ = nullptr;
core::CalibrationResult* IntegrationFixture::calib_ = nullptr;

TEST_F(IntegrationFixture, BackToBackRunsAreIndependent) {
  // Regression: the tracker's scheduled capture must reset between runs
  // (each run restarts simulation time at zero).
  core::TpController c1(calib_->make_pointing_solver(), core::TpConfig{});
  const motion::LinearStrokeMotion profile(proto_->nominal_rig_pose,
                                           {1, 0, 0}, 0.10, {0.10});
  const link::RunResult first = link::run_link_simulation(*proto_, c1, profile);
  core::TpController c2(calib_->make_pointing_solver(), core::TpConfig{});
  const link::RunResult second =
      link::run_link_simulation(*proto_, c2, profile);
  EXPECT_GT(first.realignments, 50);
  EXPECT_GT(second.realignments, 50);
  EXPECT_GT(second.total_up_fraction, 0.99);
}

TEST_F(IntegrationFixture, CommandsPipelineAtHighReportRate) {
  // Regression: with a report period shorter than the pointing latency,
  // commands must still apply (queued), not be overwritten forever.
  sim::PrototypeConfig config = sim::prototype_10g_config();
  config.tracker.period_ms = 1.0;
  config.tracker.period_jitter_ms = 0.05;
  config.tracker.position_lag_ms = 1.0;
  sim::Prototype fast = sim::make_prototype(1234, config);
  util::Rng rng(5);
  const core::CalibrationResult calib =
      core::calibrate_prototype(fast, core::CalibrationConfig{}, rng);
  core::TpController controller(calib.make_pointing_solver(),
                                core::TpConfig{});
  const motion::LinearStrokeMotion profile(fast.nominal_rig_pose, {1, 0, 0},
                                           0.10, {0.3});
  const link::RunResult run =
      link::run_link_simulation(fast, controller, profile);
  EXPECT_GT(run.realignments, 500);
  EXPECT_GT(run.total_up_fraction, 0.95);
}

TEST_F(IntegrationFixture, FrozenOriginSolverIsWorse) {
  const core::PointingSolver full = calib_->make_pointing_solver();
  const core::PointingSolver frozen(
      calib_->tx_stage1.model.with_frozen_origin(),
      calib_->rx_stage1.model.with_frozen_origin(), calib_->mapping.map_tx,
      calib_->mapping.map_rx, core::PointingOptions{});
  EXPECT_TRUE(frozen.tx_vr().origin_frozen());

  util::Rng rng(3);
  double full_power = 0.0, frozen_power = 0.0;
  int n = 0;
  for (int i = 0; i < 10; ++i) {
    const geom::Pose pose = core::random_rig_pose(
        proto_->nominal_rig_pose, 0.2, 0.1, rng);
    proto_->scene.set_rig_pose(pose);
    const geom::Pose psi = proto_->tracker.report(0, pose).pose;
    const auto a = full.solve(psi, {});
    const auto b = frozen.solve(psi, {});
    if (!a.converged || !b.converged) continue;
    full_power += proto_->scene.received_power_dbm(a.voltages);
    frozen_power += proto_->scene.received_power_dbm(b.voltages);
    ++n;
  }
  proto_->scene.set_rig_pose(proto_->nominal_rig_pose);
  ASSERT_GT(n, 5);
  EXPECT_GT(full_power / n, frozen_power / n);
}

TEST_F(IntegrationFixture, FrozenOriginTraceHasConstantOrigin) {
  const core::GmaModel frozen =
      calib_->tx_stage1.model.with_frozen_origin();
  const auto a = frozen.trace(0.0, 0.0);
  const auto b = frozen.trace(4.0, -4.0);
  ASSERT_TRUE(a && b);
  EXPECT_NEAR(geom::distance(a->origin, b->origin), 0.0, 1e-12);
  // The unfrozen model's origin moves (the distortion).
  const auto c = calib_->tx_stage1.model.trace(0.0, 0.0);
  const auto d = calib_->tx_stage1.model.trace(4.0, -4.0);
  EXPECT_GT(geom::distance(c->origin, d->origin), 0.1e-3);
}

TEST_F(IntegrationFixture, StreamingOverStillLinkIsClean) {
  core::TpController controller(calib_->make_pointing_solver(),
                                core::TpConfig{});
  stream::FrameSource source({.fps = 90.0, .stream_rate_gbps = 8.0},
                             util::Rng(17));
  stream::FreezeLedger ledger;
  stream::WireQueue wire(stream::WireQueueConfig{}, ledger);

  link::SimOptions options;
  options.step = 1000;
  const double goodput = proto_->scene.config().sfp.goodput_gbps;
  options.on_slot = [&](util::SimTimeUs now, bool up, double) {
    while (const auto f = source.poll(now)) {
      wire.offer(f->id, f->render_time, f->bits);
    }
    wire.step(now, options.step, up ? goodput : 0.0);
  };
  const motion::StillMotion profile(proto_->nominal_rig_pose, 2.0);
  link::run_link_simulation(*proto_, controller, profile, options);

  EXPECT_GT(ledger.stats().frames_offered, 150);
  EXPECT_EQ(ledger.stats().frames_dropped, 0);
  EXPECT_EQ(ledger.stats().freeze_events, 0);
}

TEST_F(IntegrationFixture, TrackerLagPenalizesOnlyTranslation) {
  // The position-lag model: a translating rig's report is stale by the
  // lag, a rotating rig's orientation is fresh.
  tracking::TrackerConfig config;
  config.position_noise_m = 0.0;
  config.orientation_noise_rad = 0.0;
  tracking::VrhTracker tracker(config, geom::Pose::identity(),
                               geom::Pose::identity(), util::Rng(1));

  const geom::Pose current{geom::Mat3::rotation({0, 1, 0}, 0.1),
                           {0.05, 0.0, 0.0}};
  const geom::Pose lagged{geom::Mat3::rotation({0, 1, 0}, 0.05),
                          {0.04, 0.0, 0.0}};
  const tracking::PoseReport report = tracker.report(0, current, lagged);
  // Position from the lagged pose...
  EXPECT_NEAR(report.pose.translation().x, 0.04, 1e-12);
  // ...orientation from the current pose.
  EXPECT_NEAR(
      geom::rotation_distance(
          report.pose, geom::Pose{current.rotation(), {0.04, 0.0, 0.0}}),
      0.0, 1e-12);
}

TEST(AlignerRobustness, RecoversFromBadHint) {
  sim::Prototype proto =
      sim::make_prototype(77, sim::prototype_10g_config());
  core::ExhaustiveAligner aligner;
  // A hint deep in a dead corner of the voltage space.
  const core::AlignResult result =
      aligner.align(proto.scene, {9.0, -9.0, 9.0, -9.0});
  EXPECT_TRUE(result.converged()) << core::to_string(result.status);
  EXPECT_GT(result.power_dbm, -14.0);
}

TEST(EndToEnd, TwentyFiveGCalibratesAndStreams) {
  sim::Prototype proto =
      sim::make_prototype(2024, sim::prototype_25g_config());
  util::Rng rng(4);
  const core::CalibrationResult calib =
      core::calibrate_prototype(proto, core::CalibrationConfig{}, rng);
  core::TpController controller(calib.make_pointing_solver(),
                                core::TpConfig{});
  motion::MixedRandomMotion::Config mc;
  mc.duration_s = 5.0;
  mc.max_linear_speed = 0.08;
  mc.max_angular_speed = util::deg_to_rad(8.0);
  const motion::MixedRandomMotion profile(proto.nominal_rig_pose, mc,
                                          util::Rng(8));
  const link::RunResult run =
      link::run_link_simulation(proto, controller, profile);
  EXPECT_GT(run.total_up_fraction, 0.95);
}

}  // namespace
}  // namespace cyclops
