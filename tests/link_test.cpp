#include <gtest/gtest.h>

#include <cmath>

#include "core/calibration.hpp"
#include "handover_manager.hpp"
#include "link/event_eval.hpp"
#include "link/fso_link.hpp"
#include "link/handover.hpp"
#include "link/slot_eval.hpp"
#include "motion/trace_generator.hpp"
#include "phy/link_state.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

namespace cyclops::link {
namespace {

// ---- LinkStateMachine ----

TEST(LinkStateTest, StartsDownUntilDelayElapses) {
  phy::LinkStateMachine sm(-25.0, util::us_from_s(2.0));
  EXPECT_FALSE(sm.step(0, -10.0));
  EXPECT_FALSE(sm.step(util::us_from_s(1.9), -10.0));
  EXPECT_TRUE(sm.step(util::us_from_s(2.0), -10.0));
}

TEST(LinkStateTest, DropResetsAcquisition) {
  phy::LinkStateMachine sm(-25.0, util::us_from_s(2.0));
  sm.force_up();
  EXPECT_TRUE(sm.step(0, -10.0));
  EXPECT_FALSE(sm.step(1000, -40.0));  // light lost
  // Light back: still needs the full delay again.
  EXPECT_FALSE(sm.step(2000, -10.0));
  EXPECT_FALSE(sm.step(2000 + util::us_from_s(1.0), -10.0));
  EXPECT_TRUE(sm.step(2000 + util::us_from_s(2.0), -10.0));
}

TEST(LinkStateTest, SensitivityThresholdExact) {
  phy::LinkStateMachine sm(-25.0, 0);
  EXPECT_TRUE(sm.step(0, -25.0));
  EXPECT_FALSE(sm.step(1, -25.0001));
}

TEST(LinkStateTest, InfinitePowerLossIsDown) {
  phy::LinkStateMachine sm(-25.0, 0);
  sm.force_up();
  EXPECT_FALSE(
      sm.step(0, -std::numeric_limits<double>::infinity()));
}

// ---- slot evaluation (§5.4) ----

motion::Trace constant_rate_trace(double linear_mps, double angular_rps,
                                  double duration_s = 10.0) {
  motion::Trace trace;
  for (int i = 0; i * 10 <= duration_s * 1000; ++i) {
    const double t_s = i * 0.01;
    trace.samples.push_back(
        {util::us_from_ms(i * 10.0),
         geom::Pose{geom::Mat3::rotation({0, 1, 0}, angular_rps * t_s),
                    {linear_mps * t_s, 0.0, 0.0}}});
  }
  return trace;
}

TEST(SlotEvalTest, StationaryTraceNeverDisconnects) {
  const SlotEvalResult r =
      evaluate_trace_events(constant_rate_trace(0.0, 0.0), SlotEvalConfig{});
  EXPECT_GT(r.total_slots, 0);
  EXPECT_EQ(r.off_slots, 0);
}

TEST(SlotEvalTest, SlowMotionStaysConnected) {
  // 5 cm/s and 5 deg/s: drift per 10 ms is 0.5 mm / 0.87 mrad on top of
  // the residual 4.54 mm / 2.59 mrad — inside the 6 mm / 8.73 mrad budget.
  const SlotEvalResult r = evaluate_trace_events(
      constant_rate_trace(0.05, util::deg_to_rad(5.0)), SlotEvalConfig{});
  EXPECT_EQ(r.off_slots, 0);
}

TEST(SlotEvalTest, FastLinearMotionDisconnects) {
  // 30 cm/s: 3 mm drift per 10 ms + 4.54 mm residual > 6 mm tolerance.
  const SlotEvalResult r =
      evaluate_trace_events(constant_rate_trace(0.30, 0.0), SlotEvalConfig{});
  EXPECT_GT(r.off_fraction(), 0.2);
}

TEST(SlotEvalTest, FastAngularMotionDisconnects) {
  // 60 deg/s = 10.5 mrad per 10 ms on top of 2.59 residual > 8.73 budget.
  const SlotEvalResult r = evaluate_trace_events(
      constant_rate_trace(0.0, util::deg_to_rad(60.0)), SlotEvalConfig{});
  EXPECT_GT(r.off_fraction(), 0.3);
}

TEST(SlotEvalTest, TighterToleranceDisconnectsMore) {
  const motion::Trace trace = constant_rate_trace(0.12, 0.0);
  SlotEvalConfig loose;
  SlotEvalConfig tight;
  tight.lateral_tolerance_m = 5e-3;
  const double f_loose = evaluate_trace_events(trace, loose).off_fraction();
  const double f_tight = evaluate_trace_events(trace, tight).off_fraction();
  EXPECT_GE(f_tight, f_loose);
}

TEST(SlotEvalTest, LargerResidualErrorHurts) {
  const motion::Trace trace = constant_rate_trace(0.10, 0.0);
  SlotEvalConfig good;
  SlotEvalConfig bad;
  bad.residual_lateral_m = 5.5e-3;
  EXPECT_GE(evaluate_trace_events(trace, bad).off_fraction(),
            evaluate_trace_events(trace, good).off_fraction());
}

TEST(SlotEvalTest, DatasetAggregation) {
  std::vector<motion::Trace> traces{constant_rate_trace(0.0, 0.0),
                                    constant_rate_trace(0.30, 0.0)};
  util::ThreadPool pool(2);
  const DatasetEvalResult r = evaluate_dataset(traces, SlotEvalConfig{}, pool);
  ASSERT_EQ(r.per_trace_off_fraction.size(), 2u);
  EXPECT_EQ(r.per_trace_off_fraction[0], 0.0);
  EXPECT_GT(r.per_trace_off_fraction[1], 0.0);
  EXPECT_EQ(r.pooled.total_slots,
            evaluate_trace_events(traces[0], {}).total_slots +
                evaluate_trace_events(traces[1], {}).total_slots);
}

TEST(SlotEvalTest, ScatteredFraction) {
  SlotEvalResult r;
  r.off_per_dirty_frame = {2, 3, 15};  // 5 scattered, 15 clustered
  EXPECT_NEAR(r.scattered_fraction(10), 0.25, 1e-12);
  EXPECT_NEAR(r.scattered_fraction(20), 1.0, 1e-12);
}

TEST(SlotEvalTest, ScatteredFractionWithNoOffSlotsIsZero) {
  // No dirty frames -> no off-slots -> nothing is "scattered".
  const SlotEvalResult r;
  EXPECT_EQ(r.scattered_fraction(10), 0.0);
}

TEST(SlotEvalTest, SyntheticViewingTraceMostlyConnected) {
  // A generated §5.4-style trace should be operational ~95-100 % of slots
  // (the paper reports 98.6 % on average).
  util::Rng rng(3);
  const geom::Pose base{geom::Mat3::identity(), {0, 0.8, 1.2}};
  const motion::Trace trace =
      motion::generate_viewing_trace(base, {}, rng);
  const SlotEvalResult r = evaluate_trace_events(trace, SlotEvalConfig{});
  EXPECT_LT(r.off_fraction(), 0.08);
}

// ---- handover (the slot-polled oracle in tests/oracle) ----

TEST(HandoverTest, StaysOnActiveWithHysteresis) {
  oracle::HandoverManager manager(2, {});
  // TX1 slightly better but within hysteresis: no switch.
  EXPECT_EQ(manager.step(0, std::vector<double>{-10.0, -9.0}), 0);
  EXPECT_EQ(manager.switches(), 0);
}

TEST(HandoverTest, SwitchesWhenClearlyBetter) {
  HandoverConfig config;
  config.switch_delay_s = 0.0;
  oracle::HandoverManager manager(2, config);
  EXPECT_EQ(manager.step(0, std::vector<double>{-10.0, -5.0}), 1);
  EXPECT_EQ(manager.switches(), 1);
}

TEST(HandoverTest, SwitchesImmediatelyOnDrop) {
  HandoverConfig config;
  config.switch_delay_s = 0.0;
  oracle::HandoverManager manager(2, config);
  // Active occluded: -inf power, backup barely within hysteresis — the
  // drop path must still switch.
  EXPECT_EQ(manager.step(0,
                         std::vector<double>{
                             -std::numeric_limits<double>::infinity(), -24.0}),
            1);
}

TEST(HandoverTest, SwitchDelayBlocksService) {
  HandoverConfig config;
  config.switch_delay_s = 0.2;
  oracle::HandoverManager manager(2, config);
  EXPECT_EQ(manager.step(0, std::vector<double>{-40.0, -5.0}), -1);
  EXPECT_TRUE(manager.switching(util::us_from_s(0.1)));
  EXPECT_EQ(manager.step(util::us_from_s(0.25),
                         std::vector<double>{-40.0, -5.0}),
            1);
}

TEST(HandoverTest, NoFlappingBetweenEqualTx) {
  HandoverConfig config;
  config.switch_delay_s = 0.0;
  oracle::HandoverManager manager(2, config);
  for (int i = 0; i < 50; ++i) {
    manager.step(i, std::vector<double>{-10.0 + 0.5 * (i % 2),
                                        -10.0 - 0.5 * (i % 2)});
  }
  EXPECT_EQ(manager.switches(), 0);
}

// ---- closed loop (short smoke; the full sweeps live in bench/) ----

class ClosedLoopFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    proto_ = new sim::Prototype(
        sim::make_prototype(42, sim::prototype_10g_config()));
    util::Rng rng(7);
    const runtime::Context ctx = runtime::Context::isolated({.threads = 0});
    calib_ = new core::CalibrationResult(core::calibrate_prototype(
        *proto_, core::CalibrationConfig{}, rng, ctx));
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

sim::Prototype* ClosedLoopFixture::proto_ = nullptr;
core::CalibrationResult* ClosedLoopFixture::calib_ = nullptr;

TEST_F(ClosedLoopFixture, SlowLinearMotionKeepsOptimalThroughput) {
  const runtime::Context ctx = runtime::Context::isolated();
  core::TpController controller(calib_->make_pointing_solver({}, ctx),
                                core::TpConfig{});
  const motion::LinearStrokeMotion profile(proto_->nominal_rig_pose,
                                           {1, 0, 0}, 0.15, {0.10});
  const RunResult r = run_link_simulation(*proto_, controller, profile, ctx);
  EXPECT_GT(r.total_up_fraction, 0.999);
  EXPECT_GT(r.realignments, 50);
}

TEST_F(ClosedLoopFixture, ExcessiveLinearSpeedBreaksLink) {
  const runtime::Context ctx = runtime::Context::isolated();
  core::TpController controller(calib_->make_pointing_solver({}, ctx),
                                core::TpConfig{});
  const motion::LinearStrokeMotion profile(proto_->nominal_rig_pose,
                                           {1, 0, 0}, 0.15, {1.5});
  const RunResult r = run_link_simulation(*proto_, controller, profile, ctx);
  EXPECT_LT(r.total_up_fraction, 0.9);
}

TEST_F(ClosedLoopFixture, SlowAngularMotionKeepsOptimalThroughput) {
  const runtime::Context ctx = runtime::Context::isolated();
  core::TpController controller(calib_->make_pointing_solver({}, ctx),
                                core::TpConfig{});
  const motion::AngularStrokeMotion profile(
      proto_->nominal_rig_pose, {0, 1, 0}, util::deg_to_rad(10.0),
      {util::deg_to_rad(8.0)});
  const RunResult r = run_link_simulation(*proto_, controller, profile, ctx);
  EXPECT_GT(r.total_up_fraction, 0.995);
}

TEST_F(ClosedLoopFixture, WindowsCarrySpeedAnnotations) {
  const runtime::Context ctx = runtime::Context::isolated();
  core::TpController controller(calib_->make_pointing_solver({}, ctx),
                                core::TpConfig{});
  const motion::LinearStrokeMotion profile(proto_->nominal_rig_pose,
                                           {1, 0, 0}, 0.1, {0.08});
  const RunResult r = run_link_simulation(*proto_, controller, profile, ctx);
  ASSERT_GT(r.windows.size(), 10u);
  bool saw_speed = false;
  for (const auto& w : r.windows) {
    EXPECT_GE(w.up_fraction, 0.0);
    EXPECT_LE(w.up_fraction, 1.0);
    if (w.linear_speed_mps > 0.05) saw_speed = true;
  }
  EXPECT_TRUE(saw_speed);
}

TEST_F(ClosedLoopFixture, ThroughputIsUpFractionTimesGoodput) {
  const runtime::Context ctx = runtime::Context::isolated();
  core::TpController controller(calib_->make_pointing_solver({}, ctx),
                                core::TpConfig{});
  const motion::StillMotion profile(proto_->nominal_rig_pose, 2.0);
  const RunResult r = run_link_simulation(*proto_, controller, profile, ctx);
  for (const auto& w : r.windows) {
    EXPECT_NEAR(w.throughput_gbps,
                w.up_fraction * proto_->scene.config().sfp.goodput_gbps,
                1e-9);
  }
}

}  // namespace
}  // namespace cyclops::link
