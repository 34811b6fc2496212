// The closed loop's session plane: run_link_simulation with a SessionLog
// attached runs the same loop as without it, one scheduler event per
// slot, and logs each realignment at its exact apply instant.
#include <gtest/gtest.h>

#include <cmath>

#include "core/calibration.hpp"
#include "link/fso_link.hpp"
#include "link/session_log.hpp"
#include "motion/profile.hpp"
#include "obs/registry.hpp"
#include "util/units.hpp"

namespace cyclops::link {
namespace {

struct Rig {
  sim::Prototype proto;
  core::CalibrationResult calib;
};

Rig make_rig(std::uint64_t seed, const runtime::Context& ctx) {
  sim::Prototype proto = sim::make_prototype(seed, sim::prototype_10g_config());
  util::Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  core::CalibrationResult calib =
      core::calibrate_prototype(proto, core::CalibrationConfig{}, rng, ctx);
  return {std::move(proto), std::move(calib)};
}

motion::MixedRandomMotion test_profile(const geom::Pose& base) {
  motion::MixedRandomMotion::Config config;
  config.duration_s = 5.0;
  config.max_linear_speed = 0.15;
  config.max_angular_speed = util::deg_to_rad(20.0);
  return motion::MixedRandomMotion(base, config, util::Rng(99));
}

TEST(EventSessionTest, MatchesLegacySimulationClosely) {
  const runtime::Context ctx = runtime::Context::isolated({.threads = 0});
  // Two identically-seeded rigs: each run consumes tracker randomness, so
  // the two runs cannot share one prototype.
  Rig plain_rig = make_rig(42, ctx);
  Rig logged_rig = make_rig(42, ctx);
  const auto profile = test_profile(plain_rig.proto.nominal_rig_pose);

  core::TpController plain_ctl(plain_rig.calib.make_pointing_solver({}, ctx),
                               core::TpConfig{});
  const RunResult plain =
      run_link_simulation(plain_rig.proto, plain_ctl, profile, ctx);

  core::TpController logged_ctl(
      logged_rig.calib.make_pointing_solver({}, ctx), core::TpConfig{});
  SessionLog log;
  const RunResult logged = run_link_simulation(
      logged_rig.proto, logged_ctl, profile, runtime::Context::isolated(),
      SimOptions{}, &log);

  // The log only observes: the loop's output is unchanged.
  EXPECT_EQ(logged.total_up_fraction, plain.total_up_fraction);
  EXPECT_EQ(logged.realignments, plain.realignments);
  EXPECT_EQ(logged.tp_failures, plain.tp_failures);
  ASSERT_EQ(logged.windows.size(), plain.windows.size());
  for (std::size_t i = 0; i < plain.windows.size(); ++i) {
    EXPECT_EQ(logged.windows[i].min_power_all_dbm,
              plain.windows[i].min_power_all_dbm);
    EXPECT_EQ(logged.windows[i].up_fraction, plain.windows[i].up_fraction);
  }
  EXPECT_EQ(log.windows().size(), logged.windows.size());
  // One scheduler event per 0.5 ms slot over 5 s.
  EXPECT_EQ(logged.slots, 10000u);
  EXPECT_EQ(logged.events, logged.slots);
  EXPECT_EQ(plain.events, logged.events);

  // Every realignment the log saw landed at its exact apply instant; with
  // a ~1.85 ms pointing latency over jittered capture times these do not
  // sit on the 0.5 ms physics grid.  Commands still settling when the
  // session ends are counted but never applied.
  const int logged_realignments = log.count(SessionEventKind::kRealignment);
  EXPECT_GT(logged_realignments, 0);
  EXPECT_LE(logged_realignments, logged.realignments);
  bool any_off_grid = false;
  for (const auto& entry : log.events()) {
    if (entry.kind == SessionEventKind::kRealignment &&
        entry.time % 500 != 0) {
      any_off_grid = true;
      break;
    }
  }
  EXPECT_TRUE(any_off_grid);
}

TEST(EventSessionTest, SessionCountersReconcileWithTpFailures) {
  // A three-iteration pointing budget on a 40 deg/s angular stroke: some
  // reports realign, the rest fail their TP solve.
  const runtime::Context ctx = runtime::Context::isolated({.threads = 0});
  sim::Prototype proto = sim::make_prototype(42, sim::prototype_10g_config());
  core::PointingOptions budget;
  budget.max_iterations = 3;
  core::TpController controller(
      core::truth_calibration(proto).make_pointing_solver(budget, ctx),
      core::TpConfig{});
  const motion::AngularStrokeMotion profile(
      proto.nominal_rig_pose, {0.0, 1.0, 0.0}, util::deg_to_rad(20.0),
      {util::deg_to_rad(40.0)});
  SimOptions options;
  options.step = 1000;
  SessionLog log;
  const RunResult run =
      run_link_simulation(proto, controller, profile, ctx, options, &log);
  ASSERT_GT(run.realignments, 0);
  ASSERT_GT(run.tp_failures, 0);

  obs::Registry& registry = ctx.registry();
  const auto realignments =
      static_cast<std::uint64_t>(run.realignments);
  const auto tp_failures = static_cast<std::uint64_t>(run.tp_failures);
  EXPECT_EQ(registry.counter("session_realignments_total").value(),
            realignments);
  EXPECT_EQ(registry
                .histogram("session_realign_latency_us",
                           obs::HistogramSpec::duration_us())
                .count(),
            realignments);
  EXPECT_EQ(registry.counter("session_tp_failures_total").value(),
            tp_failures);
  EXPECT_EQ(log.count(SessionEventKind::kTpFailure), run.tp_failures);
  // A failure is stamped with its report's delivery time: the capture
  // slot plus the tracker's 0.5 ms report latency, off the 1 ms grid.
  const util::SimTimeUs report_latency =
      util::us_from_ms(proto.tracker.config().report_latency_ms);
  for (const SessionEvent& entry : log.events()) {
    if (entry.kind != SessionEventKind::kTpFailure) continue;
    EXPECT_EQ((entry.time - report_latency) % options.step, 0) << entry.time;
    EXPECT_NE(entry.time % options.step, 0) << entry.time;
  }
}

TEST(EventSessionTest, WindowsCarrySpeedAndPower) {
  const runtime::Context ctx = runtime::Context::isolated({.threads = 0});
  Rig rig = make_rig(7, ctx);
  const auto profile = test_profile(rig.proto.nominal_rig_pose);
  core::TpController controller(rig.calib.make_pointing_solver({}, ctx),
                                core::TpConfig{});
  const RunResult run = run_link_simulation(
      rig.proto, controller, profile, runtime::Context::isolated());
  ASSERT_FALSE(run.windows.empty());
  // 5 s / 50 ms windows.
  EXPECT_EQ(run.windows.size(), 100u);
  for (const auto& w : run.windows) {
    EXPECT_GE(w.up_fraction, 0.0);
    EXPECT_LE(w.up_fraction, 1.0);
    EXPECT_GE(w.power_ok_fraction, 0.0);
    EXPECT_LE(w.power_ok_fraction, 1.0);
  }
  EXPECT_GT(run.total_up_fraction, 0.5);
}

TEST(EventSessionTest, ZeroDurationIsSafe) {
  const runtime::Context ctx = runtime::Context::isolated({.threads = 0});
  Rig rig = make_rig(7, ctx);
  const motion::StillMotion profile(rig.proto.nominal_rig_pose, 0.0);
  core::TpController controller(rig.calib.make_pointing_solver({}, ctx),
                                core::TpConfig{});
  const RunResult run = run_link_simulation(
      rig.proto, controller, profile, runtime::Context::isolated());
  EXPECT_TRUE(run.windows.empty());
  EXPECT_DOUBLE_EQ(run.total_up_fraction, 0.0);
  EXPECT_EQ(run.events, 0u);
  EXPECT_EQ(run.slots, 0u);
}

}  // namespace
}  // namespace cyclops::link
