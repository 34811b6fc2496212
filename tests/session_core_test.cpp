// The closed loop's load-bearing guarantee: run_link_simulation (a slot
// process over phy::FsoChannel and the session core's WindowTally and
// steering step) produces per-window output EXACTLY equal to the
// fixed-step oracle in tests/oracle — every WindowSample field, bit for
// bit, across linear, angular, and mixed-random motion, and on the
// fleet's `link` workload.  Plus smoke coverage for
// run_channel_session (a non-FSO phy::Channel on the session core) and
// run_hetero_session (FSO + mmWave fallback in one scheduler), and the
// slot grid and shared report cadence every driver builds on.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "core/calibration.hpp"
#include "fixed_step.hpp"
#include "link/fso_link.hpp"
#include "link/handover.hpp"
#include "link/hetero_session.hpp"
#include "link/session_core.hpp"
#include "link/session_log.hpp"
#include "motion/profile.hpp"
#include "motion/trace_generator.hpp"
#include "obs/registry.hpp"
#include "phy/mmwave_channel.hpp"
#include "phy/wdm_channel.hpp"
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

/// EXPECT_EQ compares doubles with ==, which is exactly what "bit-exact
/// oracle" means here (and -inf == -inf holds for the empty-window power
/// fields).
void expect_identical(const RunResult& loop, const RunResult& oracle,
                      const char* what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(loop.realignments, oracle.realignments);
  EXPECT_EQ(loop.tp_failures, oracle.tp_failures);
  EXPECT_EQ(loop.total_up_fraction, oracle.total_up_fraction);
  EXPECT_EQ(loop.avg_rate_gbps, oracle.avg_rate_gbps);
  EXPECT_EQ(loop.avg_pointing_iterations, oracle.avg_pointing_iterations);
  ASSERT_EQ(loop.windows.size(), oracle.windows.size());
  for (std::size_t i = 0; i < loop.windows.size(); ++i) {
    SCOPED_TRACE(i);
    const WindowSample& a = loop.windows[i];
    const WindowSample& b = oracle.windows[i];
    EXPECT_EQ(a.t_s, b.t_s);
    EXPECT_EQ(a.throughput_gbps, b.throughput_gbps);
    EXPECT_EQ(a.avg_power_dbm, b.avg_power_dbm);
    EXPECT_EQ(a.min_power_dbm, b.min_power_dbm);
    EXPECT_EQ(a.min_power_all_dbm, b.min_power_all_dbm);
    EXPECT_EQ(a.power_ok_fraction, b.power_ok_fraction);
    EXPECT_EQ(a.linear_speed_mps, b.linear_speed_mps);
    EXPECT_EQ(a.angular_speed_rps, b.angular_speed_rps);
    EXPECT_EQ(a.up_fraction, b.up_fraction);
  }
}

/// Runs the same profile on the production loop and the oracle — each on
/// its own identically seeded rig, since both consume tracker randomness
/// — and demands bit-equality.  The rigs are reused across profiles:
/// staying in lockstep *requires* the two to draw identical randomness,
/// which is itself part of the equivalence claim.
class SessionCoreEquivalence : public ::testing::Test {
 protected:
  void run_and_compare(const motion::MotionProfile& profile,
                       const char* what) {
    core::TpController loop_ctl(loop_rig_.calib.make_pointing_solver({}, ctx_),
                                core::TpConfig{});
    const RunResult loop =
        run_link_simulation(loop_rig_.proto, loop_ctl, profile, ctx_);

    core::TpController oracle_ctl(
        oracle_rig_.calib.make_pointing_solver({}, ctx_), core::TpConfig{});
    const RunResult oracle = oracle::run_link_simulation_fixed_step(
        oracle_rig_.proto, oracle_ctl, profile, ctx_);

    ASSERT_GT(oracle.windows.size(), 10u) << what;
    expect_identical(loop, oracle, what);
  }

  const runtime::Context ctx_ = runtime::Context::isolated({.threads = 0});
  Rig loop_rig_ = make_rig(42, ctx_);
  Rig oracle_rig_ = make_rig(42, ctx_);
};

TEST_F(SessionCoreEquivalence, AllThreeMotionProfilesBitExact) {
  const geom::Pose base = loop_rig_.proto.nominal_rig_pose;

  run_and_compare(
      motion::LinearStrokeMotion(base, {1.0, 0.0, 0.0}, 0.10, {0.2, 0.3}),
      "linear strokes 0.2-0.3 m/s");

  run_and_compare(
      motion::AngularStrokeMotion(base, {0.0, 1.0, 0.0},
                                  util::deg_to_rad(15.0),
                                  {util::deg_to_rad(20.0)}),
      "angular strokes 20 deg/s");

  motion::MixedRandomMotion::Config mixed;
  mixed.duration_s = 5.0;
  mixed.max_linear_speed = 0.15;
  mixed.max_angular_speed = util::deg_to_rad(20.0);
  run_and_compare(motion::MixedRandomMotion(base, mixed, util::Rng(99)),
                  "mixed random 5 s");
}

// The fleet's `link` sessions (session/catalog's LinkRunner): a 25G
// prototype steered by its truth calibration over a synthetic viewing
// trace in 1 ms slots.
TEST(FleetLinkEquivalence, ViewingTraceOnTruthSolverBitExact) {
  const runtime::Context ctx = runtime::Context::isolated({.threads = 0});
  sim::Prototype loop_proto =
      sim::make_prototype(101, sim::prototype_25g_config());
  sim::Prototype oracle_proto =
      sim::make_prototype(101, sim::prototype_25g_config());
  motion::TraceGeneratorConfig trace_config;
  trace_config.duration_s = 2.0;
  util::Rng trace_rng(11);
  const motion::Trace trace = motion::generate_viewing_trace(
      loop_proto.nominal_rig_pose, trace_config, trace_rng);
  const motion::TraceMotion profile(trace);
  SimOptions options;
  options.step = 1000;

  core::TpController loop_ctl(
      core::truth_calibration(loop_proto).make_pointing_solver({}, ctx),
      core::TpConfig{});
  const RunResult loop =
      run_link_simulation(loop_proto, loop_ctl, profile, ctx, options);
  core::TpController oracle_ctl(
      core::truth_calibration(oracle_proto).make_pointing_solver({}, ctx),
      core::TpConfig{});
  const RunResult oracle = oracle::run_link_simulation_fixed_step(
      oracle_proto, oracle_ctl, profile, ctx, options);

  ASSERT_EQ(oracle.windows.size(), 40u);
  EXPECT_GT(oracle.realignments, 100);
  expect_identical(loop, oracle, "viewing trace, truth solver, 1 ms slots");
}

// ---- run_channel_session: a non-FSO channel on the same core ----

TEST(ChannelSessionTest, MmWaveStillSessionDeliversPeakRate) {
  const runtime::Context ctx = runtime::Context::isolated();
  phy::MmWaveChannelConfig config;  // AP at (0, 2.2, 0)
  phy::MmWaveChannel channel(config, ctx);

  // A still headset ~1 m under the AP: no rotation, no retrain, top MCS.
  const motion::StillMotion profile(
      geom::Pose{geom::Mat3::identity(), {0.0, 1.2, 0.0}}, 1.0);
  SimOptions options;
  options.step = 1000;
  const RunResult result = run_channel_session(channel, profile, ctx, options);

  EXPECT_DOUBLE_EQ(result.total_up_fraction, 1.0);
  // NEAR, not EQ: avg_rate is an O(slots) float accumulation.
  EXPECT_NEAR(result.avg_rate_gbps, channel.info().peak_rate_gbps, 1e-9);
  EXPECT_EQ(result.windows.size(), 20u);  // 1 s / 50 ms
  for (const WindowSample& w : result.windows) {
    EXPECT_DOUBLE_EQ(w.up_fraction, 1.0);
    // Rate-adaptive channel: throughput is the mean delivered rate.
    EXPECT_NEAR(w.throughput_gbps, channel.info().peak_rate_gbps, 1e-9);
  }
  EXPECT_EQ(result.slots, 1000u);
  EXPECT_EQ(result.events, result.slots);
  EXPECT_EQ(ctx.registry()
                .counter("channel_session_slots_total",
                         {{"channel", "mmwave-60ghz"}})
                .value(),
            1000u);
}

TEST(ChannelSessionTest, WdmLaneDropoutShowsInWindows) {
  // Shared loss ramps 0 -> 16 dB over 2 s — through the lane thresholds
  // (-10.5 / -12.3 dB margin for QSFP28 + commodity collimator) — so
  // lanes drop out and per-window throughput is monotonically
  // non-increasing, ending at zero.
  phy::WdmChannel channel(
      optics::qsfp28_lr4(), optics::commodity_collimator(),
      [](const geom::Pose&, util::SimTimeUs t) {
        return 16.0 * util::us_to_s(t) / 2.0;
      });
  const motion::StillMotion profile(geom::Pose{}, 2.0);
  SimOptions options;
  options.step = 1000;
  const RunResult result = run_channel_session(
      channel, profile, runtime::Context::isolated(), options);

  ASSERT_EQ(result.windows.size(), 40u);
  EXPECT_NEAR(result.windows.front().throughput_gbps,
              channel.info().peak_rate_gbps, 1e-9);
  for (std::size_t i = 1; i < result.windows.size(); ++i) {
    EXPECT_LE(result.windows[i].throughput_gbps,
              result.windows[i - 1].throughput_gbps);
  }
  EXPECT_LT(result.windows.back().throughput_gbps,
            channel.info().peak_rate_gbps);
  EXPECT_GT(result.avg_rate_gbps, 0.0);
  EXPECT_LT(result.avg_rate_gbps, channel.info().peak_rate_gbps);
}

// ---- run_hetero_session: FSO + mmWave fallback in one scheduler ----

TEST(HeteroSessionTest, OcclusionFailsOverToMmWaveAndBack) {
  const runtime::Context ctx = runtime::Context::isolated({.threads = 0});
  Rig rig = make_rig(42, ctx);
  core::TpController controller(rig.calib.make_pointing_solver({}, ctx),
                                core::TpConfig{});
  phy::MmWaveChannelConfig mm_config;
  mm_config.ap_position =
      rig.proto.nominal_rig_pose.translation() + geom::Vec3{0.0, 1.0, 0.0};
  phy::MmWaveChannel fallback(mm_config, ctx);

  const motion::StillMotion profile(rig.proto.nominal_rig_pose, 4.0);
  HeteroConfig config;
  // Block the FSO LOS for one second mid-session.
  config.fso_occlusion = [](util::SimTimeUs t) {
    return t >= util::us_from_s(1.0) && t < util::us_from_s(2.0);
  };
  SessionLog log;
  const HeteroResult result = run_hetero_session(
      rig.proto, controller, fallback, profile, ctx, config, &log);

  ASSERT_EQ(result.channels.size(), 2u);
  EXPECT_EQ(result.channels[1].name, "mmwave-60ghz");
  // FSO served before and after the blockage, mmWave during it.
  EXPECT_GE(result.switches, 2);
  EXPECT_GT(result.channels[0].serving_fraction, 0.5);
  EXPECT_GT(result.channels[1].serving_fraction, 0.1);
  // The fallback radio is usable throughout; FSO loses ~1 s of 4.
  EXPECT_DOUBLE_EQ(result.channels[1].usable_fraction, 1.0);
  EXPECT_LT(result.channels[0].usable_fraction, 0.80);
  EXPECT_GT(result.channels[0].usable_fraction, 0.60);
  // Traffic kept flowing through the blockage, minus the switch delays.
  EXPECT_GT(result.served_fraction, 0.85);
  EXPECT_GT(result.avg_rate_gbps, 1.0);
  EXPECT_GT(result.events, 0u);
  EXPECT_FALSE(log.events().empty());
}

TEST(HeteroSessionTest, CleanRunStaysOnFso) {
  const runtime::Context ctx = runtime::Context::isolated({.threads = 0});
  Rig rig = make_rig(43, ctx);
  core::TpController controller(rig.calib.make_pointing_solver({}, ctx),
                                core::TpConfig{});
  phy::MmWaveChannel fallback(phy::MmWaveChannelConfig{}, ctx);

  const motion::StillMotion profile(rig.proto.nominal_rig_pose, 1.0);
  const HeteroResult result =
      run_hetero_session(rig.proto, controller, fallback, profile, ctx);

  EXPECT_EQ(result.switches, 0);
  EXPECT_DOUBLE_EQ(result.channels[0].serving_fraction, 1.0);
  EXPECT_DOUBLE_EQ(result.channels[1].serving_fraction, 0.0);
  EXPECT_GT(result.served_fraction, 0.99);
  // FSO at 9.4 Gbps beats the mmWave ceiling the whole way.
  EXPECT_GT(result.avg_rate_gbps, 9.0);
}

// ---- detail::run_slot_grid: the grid all four drivers run on ----

TEST(SlotGridTest, RunsCeilDurationOverStepSlots) {
  event::Scheduler sched;
  std::vector<util::SimTimeUs> times;
  const auto body = [&](util::SimTimeUs now) { times.push_back(now); };
  // 1000 us at a 300 us step: slots at 0, 300, 600 and 900.
  EXPECT_EQ(detail::run_slot_grid(sched, 300, 1000, body), 4u);
  EXPECT_EQ(times, (std::vector<util::SimTimeUs>{0, 300, 600, 900}));
  EXPECT_EQ(sched.dispatched(), 4u);

  event::Scheduler empty;
  EXPECT_EQ(detail::run_slot_grid(empty, 300, 0, body), 0u);
  EXPECT_EQ(times.size(), 4u);
  EXPECT_EQ(empty.dispatched(), 0u);
}

TEST(SlotGridTest, NonPositiveStepThrows) {
  event::Scheduler sched;
  const auto body = [](util::SimTimeUs) { FAIL() << "slot ran"; };
  EXPECT_THROW(detail::run_slot_grid(sched, 0, 1000, body),
               std::invalid_argument);
  EXPECT_THROW(detail::run_slot_grid(sched, -1000, 1000, body),
               std::invalid_argument);
}

// The grid schedules each slot after the previous body ran, so a switch
// timer armed by an earlier slot commits before the slot at its instant.
TEST(SlotGridTest, SwitchTimerCommitsBeforeTheSlotAtItsInstant) {
  event::Scheduler sched;
  HandoverConfig config;
  config.switch_delay_s = 0.002;  // two 1 ms slots
  const runtime::Context ctx = runtime::Context::isolated();
  HandoverProcess handover(2, config, sched, ctx);
  std::vector<int> serving;
  // TX0 drops at 1 ms; the switch to TX1 commits at 3 ms.
  detail::run_slot_grid(sched, 1000, 5000, [&](util::SimTimeUs now) {
    const double tx0 = now >= 1000 ? -40.0 : -10.0;
    serving.push_back(handover.on_powers(std::vector<double>{tx0, -20.0}));
  });
  EXPECT_EQ(serving, (std::vector<int>{0, -1, -1, 1, 1}));
  EXPECT_EQ(handover.switches(), 1);
}

// ---- detail::SteeringPlane: chains that share one report cadence ----

TEST(SteeringPlaneTest, FollowerQueuesOnTheLeadersSlots) {
  const runtime::Context ctx = runtime::Context::isolated({.threads = 0});
  sim::Prototype lead_proto =
      sim::make_prototype(42, sim::prototype_10g_config());
  sim::Prototype follow_proto =
      sim::make_prototype(43, sim::prototype_10g_config());
  core::TpController lead_ctl(
      core::truth_calibration(lead_proto).make_pointing_solver({}, ctx),
      core::TpConfig{});
  core::TpController follow_ctl(
      core::truth_calibration(follow_proto).make_pointing_solver({}, ctx),
      core::TpConfig{});
  phy::FsoChannel lead_channel(lead_proto.scene);
  phy::FsoChannel follow_channel(follow_proto.scene);
  const motion::StillMotion profile(lead_proto.nominal_rig_pose, 0.2);
  detail::pointed_start(lead_proto, lead_ctl, profile, lead_channel);
  detail::pointed_start(follow_proto, follow_ctl, profile, follow_channel);
  detail::SteeringPlane lead(lead_proto, lead_ctl, lead_channel, profile,
                             nullptr);
  detail::SteeringPlane follow(follow_proto, follow_ctl, follow_channel,
                               profile, nullptr);

  std::vector<util::SimTimeUs> lead_slots, follow_slots;
  int own_cadence_differs = 0;
  for (util::SimTimeUs now = 0; now < 200000; now += 1000) {
    const geom::Pose pose = profile.pose_at(now);
    const bool report = lead.report_due(now);
    if (follow.report_due(now) != report) ++own_cadence_differs;
    if (lead.step(now, pose, report).queued) lead_slots.push_back(now);
    if (follow.step(now, pose, report).queued) follow_slots.push_back(now);
  }
  // About one report per 13 one-ms slots, the follower on every one of
  // them, though its own tracker would have picked other slots.
  EXPECT_GE(lead_slots.size(), 14u);
  EXPECT_EQ(follow_slots, lead_slots);
  EXPECT_GT(own_cadence_differs, 0);
}

}  // namespace
}  // namespace cyclops::link
