// Closed-loop event engine vs the legacy fixed-step simulator.  The two
// are not bit-identical by design (reports fire at exact capture times
// instead of the next physics step), but on the same rig and motion they
// must tell the same story — and the event path must report exact-time
// realignment events through the SessionLog.
#include <gtest/gtest.h>

#include <cmath>

#include "core/calibration.hpp"
#include "link/event_session.hpp"
#include "link/fso_link.hpp"
#include "link/multi_tx.hpp"
#include "link/session_log.hpp"
#include "motion/profile.hpp"
#include "util/units.hpp"

namespace cyclops::link {
namespace {

struct Rig {
  sim::Prototype proto;
  core::CalibrationResult calib;
};

Rig make_rig(std::uint64_t seed) {
  sim::Prototype proto = sim::make_prototype(seed, sim::prototype_10g_config());
  util::Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  core::CalibrationResult calib =
      core::calibrate_prototype(proto, core::CalibrationConfig{}, rng);
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
  // Two identically-seeded rigs: the legacy loop and the event engine
  // both consume tracker randomness, so they cannot share one prototype.
  Rig legacy_rig = make_rig(42);
  Rig event_rig = make_rig(42);
  const auto profile = test_profile(legacy_rig.proto.nominal_rig_pose);

  core::TpController legacy_ctl(legacy_rig.calib.make_pointing_solver(),
                                core::TpConfig{});
  const RunResult legacy =
      run_link_simulation(legacy_rig.proto, legacy_ctl, profile);

  core::TpController event_ctl(event_rig.calib.make_pointing_solver(),
                               core::TpConfig{});
  SessionLog log;
  EventSessionStats stats;
  const RunResult event = run_link_session_events(
      event_rig.proto, event_ctl, profile, runtime::Context::isolated(),
      SimOptions{}, &log, &stats);

  EXPECT_NEAR(event.total_up_fraction, legacy.total_up_fraction, 0.05);
  EXPECT_EQ(event.windows.size(), legacy.windows.size());
  // Report cadence is the same 12-13 ms, so realignment counts are close
  // (the event path also counts commands still pending at session end).
  EXPECT_NEAR(event.realignments, legacy.realignments,
              0.1 * legacy.realignments + 5.0);
  EXPECT_GT(stats.events, 0u);
  EXPECT_EQ(stats.events, stats.scheduled);

  // Every realignment the log saw landed at its exact apply instant; with
  // a ~1.85 ms pointing latency over jittered capture times these do not
  // sit on the 0.5 ms physics grid.
  const int logged = log.count(SessionEventKind::kRealignment);
  EXPECT_GT(logged, 0);
  EXPECT_LE(logged, event.realignments);
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

TEST(EventSessionTest, WindowsCarrySpeedAndPower) {
  Rig rig = make_rig(7);
  const auto profile = test_profile(rig.proto.nominal_rig_pose);
  core::TpController controller(rig.calib.make_pointing_solver(),
                                core::TpConfig{});
  const RunResult run = run_link_session_events(
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
  Rig rig = make_rig(7);
  const motion::StillMotion profile(rig.proto.nominal_rig_pose, 0.0);
  core::TpController controller(rig.calib.make_pointing_solver(),
                                core::TpConfig{});
  EventSessionStats stats;
  const RunResult run =
      run_link_session_events(rig.proto, controller, profile,
                              runtime::Context::isolated(), SimOptions{},
                              nullptr, &stats);
  EXPECT_TRUE(run.windows.empty());
  EXPECT_DOUBLE_EQ(run.total_up_fraction, 0.0);
  EXPECT_EQ(stats.events, 0u);
}

}  // namespace
}  // namespace cyclops::link
