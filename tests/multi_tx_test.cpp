// Tests for the multi-TX rig and the session log.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "event/scheduler.hpp"
#include "link/handover.hpp"
#include "link/multi_tx.hpp"
#include "link/session_log.hpp"
#include "motion/profile.hpp"
#include "util/units.hpp"

namespace cyclops::link {
namespace {

class MultiTxFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // The chains' solvers tally into ctx_'s registry, so it outlives them.
    ctx_ = new runtime::Context(runtime::Context::isolated({.threads = 0}));
    chains_ = new std::vector<TxChain>();
    chains_->push_back(make_tx_chain(42, {0.0, 2.2, 0.0},
                                     sim::prototype_10g_config(), *ctx_));
    chains_->push_back(make_tx_chain(43, {0.5, 2.2, 0.25},
                                     sim::prototype_10g_config(), *ctx_));
  }
  static void TearDownTestSuite() {
    delete chains_;
    delete ctx_;
    chains_ = nullptr;
    ctx_ = nullptr;
  }
  static runtime::Context* ctx_;
  static std::vector<TxChain>* chains_;
};

runtime::Context* MultiTxFixture::ctx_ = nullptr;
std::vector<TxChain>* MultiTxFixture::chains_ = nullptr;

TEST_F(MultiTxFixture, BothChainsUsableWithoutOcclusion) {
  const motion::StillMotion profile(
      (*chains_)[0].proto.nominal_rig_pose, 3.0);
  const MultiTxResult result = run_multi_tx_session(
      *chains_, profile, MultiTxConfig{}, nullptr,
      runtime::Context::isolated());
  ASSERT_EQ(result.per_tx_usable_fraction.size(), 2u);
  EXPECT_GT(result.per_tx_usable_fraction[0], 0.95);
  EXPECT_GT(result.per_tx_usable_fraction[1], 0.95);
  EXPECT_GT(result.served_fraction, 0.95);
  EXPECT_EQ(result.switches, 0);
}

TEST_F(MultiTxFixture, HandoverBeatsBestSingleTxUnderOcclusion) {
  const motion::StillMotion profile(
      (*chains_)[0].proto.nominal_rig_pose, 12.0);
  // TX0 blocked during [1, 5) s and [8, 11) s; TX1 blocked during [5, 7):
  // no single TX sees more than ~10/12 of the session unobstructed.
  const auto occlusion = [](util::SimTimeUs now, std::size_t tx) {
    const double t = util::us_to_s(now);
    if (tx == 0) return (t >= 1.0 && t < 5.0) || (t >= 8.0 && t < 11.0);
    return t >= 5.0 && t < 7.0;
  };
  MultiTxConfig config;
  config.handover.switch_delay_s = 0.1;
  const MultiTxResult result =
      run_multi_tx_session(*chains_, profile, config, occlusion,
                           runtime::Context::isolated());
  EXPECT_GT(result.served_fraction, result.best_single_tx_fraction + 0.08);
  EXPECT_GT(result.served_fraction, 0.9);
  EXPECT_GE(result.switches, 2);
}

TEST_F(MultiTxFixture, EmptyChainListIsSafe) {
  std::vector<TxChain> none;
  const motion::StillMotion profile(geom::Pose::identity(), 1.0);
  const MultiTxResult result =
      run_multi_tx_session(none, profile, MultiTxConfig{}, nullptr,
                           runtime::Context::isolated());
  EXPECT_DOUBLE_EQ(result.served_fraction, 0.0);
}

TEST_F(MultiTxFixture, OnSlotTapMirrorsSessionAccounting) {
  const motion::StillMotion profile(
      (*chains_)[0].proto.nominal_rig_pose, 12.0);
  const auto occlusion = [](util::SimTimeUs now, std::size_t tx) {
    const double t = util::us_to_s(now);
    if (tx == 0) return (t >= 1.0 && t < 5.0) || (t >= 8.0 && t < 11.0);
    return t >= 5.0 && t < 7.0;
  };
  MultiTxConfig config;
  config.handover.switch_delay_s = 0.1;

  struct Tap {
    util::SimTimeUs time;
    int serving;
    bool usable;
    double power_dbm;
  };
  std::vector<Tap> taps;
  config.on_slot = [&](util::SimTimeUs t, int serving, bool usable,
                       double power) {
    taps.push_back({t, serving, usable, power});
  };
  const MultiTxResult result =
      run_multi_tx_session(*chains_, profile, config, occlusion,
                           runtime::Context::isolated());

  ASSERT_FALSE(taps.empty());
  std::size_t usable_taps = 0, mid_switch_taps = 0;
  for (std::size_t i = 0; i < taps.size(); ++i) {
    if (i > 0) {
      EXPECT_EQ(taps[i].time, taps[i - 1].time + config.step);
    }
    if (taps[i].usable) {
      ++usable_taps;
      EXPECT_GE(taps[i].serving, 0);  // usable implies a serving TX
    }
    if (taps[i].serving < 0) ++mid_switch_taps;
    EXPECT_TRUE(std::isfinite(taps[i].power_dbm));
  }
  // The tap sees exactly the slots the result counts.
  EXPECT_NEAR(static_cast<double>(usable_taps) /
                  static_cast<double>(taps.size()),
              result.served_fraction, 1e-12);
  // Two occlusion-triggered switches at 0.1 s delay each: the tap must
  // report serving == -1 while they are in flight.
  EXPECT_GE(result.switches, 2);
  EXPECT_GT(mid_switch_taps, 0u);
}

// ---- HandoverProcess: reacquisition exactly at the switch deadline ----
//
// The boundary the arena's migration accounting leans on: when the old TX
// recovers at the *exact* instant the switch-done timer fires, the timer
// wins (it was scheduled first — FIFO at equal times), the switch
// commits, and nothing is counted as cancelled.

TEST(HandoverDeadlineTest, ReacquisitionAtExactDeadlineDoesNotCancel) {
  event::Scheduler sched;
  link::HandoverConfig config;
  config.hysteresis_db = 3.0;
  config.drop_threshold_dbm = -25.0;
  config.switch_delay_s = 0.1;
  config.cancel_on_reacquire = true;
  link::SessionLog log;
  const runtime::Context ctx = runtime::Context::isolated();
  link::HandoverProcess handover(2, config, sched, ctx, &log);

  EXPECT_EQ(handover.on_powers(std::vector<double>{-10.0, -20.0}), 0);

  // t = 1 ms: TX0 drops; a drop-triggered switch starts, deadline 101 ms.
  sched.run_until(1000);
  EXPECT_EQ(handover.on_powers(std::vector<double>{-40.0, -20.0}), -1);
  EXPECT_TRUE(handover.switching());

  // One tick before the deadline the old TX is still down.
  sched.run_until(100999);
  EXPECT_EQ(handover.on_powers(std::vector<double>{-40.0, -20.0}), -1);
  EXPECT_TRUE(handover.switching());

  // run_until(101000) dispatches the switch-done timer (commit), so the
  // reacquisition powers fed at the same instant arrive too late.
  sched.run_until(101000);
  EXPECT_FALSE(handover.switching());
  EXPECT_EQ(handover.active(), 1);
  EXPECT_EQ(handover.on_powers(std::vector<double>{-12.0, -11.0}), 1);

  EXPECT_EQ(handover.started(), 1);
  EXPECT_EQ(handover.cancelled_switches(), 0);
  EXPECT_EQ(handover.switches(), 1);
  ASSERT_EQ(log.count(link::SessionEventKind::kHandover), 1);
  EXPECT_EQ(log.events().front().time, 101000);
  EXPECT_EQ(log.count(link::SessionEventKind::kReacquisition), 0);
}

TEST(HandoverDeadlineTest, ReacquisitionOneTickEarlierCancels) {
  event::Scheduler sched;
  link::HandoverConfig config;
  config.hysteresis_db = 3.0;
  config.drop_threshold_dbm = -25.0;
  config.switch_delay_s = 0.1;
  config.cancel_on_reacquire = true;
  link::SessionLog log;
  const runtime::Context ctx = runtime::Context::isolated();
  link::HandoverProcess handover(2, config, sched, ctx, &log);

  EXPECT_EQ(handover.on_powers(std::vector<double>{-10.0, -20.0}), 0);
  sched.run_until(1000);
  EXPECT_EQ(handover.on_powers(std::vector<double>{-40.0, -20.0}), -1);

  // Reacquire one microsecond before the deadline: switch abandoned.
  sched.run_until(100999);
  EXPECT_EQ(handover.on_powers(std::vector<double>{-12.0, -20.0}), 0);
  EXPECT_FALSE(handover.switching());
  EXPECT_EQ(handover.cancelled_switches(), 1);
  EXPECT_EQ(handover.switches(), 0);

  sched.run();  // the cancelled timer must never commit
  EXPECT_EQ(handover.active(), 0);
  EXPECT_EQ(log.count(link::SessionEventKind::kHandover), 0);
  ASSERT_EQ(log.count(link::SessionEventKind::kReacquisition), 1);
  EXPECT_EQ(log.events().front().time, 100999);
}

// ---- SessionLog ----

TEST(SessionLogTest, RecordsTransitions) {
  SessionLog log;
  log.on_slot(0, true, -10.0);
  log.on_slot(1000, true, -10.0);
  log.on_slot(2000, false, -40.0);
  log.on_slot(3000, false, -40.0);
  log.on_slot(4000, true, -10.0);
  EXPECT_EQ(log.count(SessionEventKind::kLinkUp), 2);  // initial + recovery
  EXPECT_EQ(log.count(SessionEventKind::kLinkDown), 1);
}

TEST(SessionLogTest, LongestOutage) {
  SessionLog log;
  log.on_slot(0, true, -10.0);
  log.on_slot(util::us_from_s(1.0), false, -40.0);
  log.on_slot(util::us_from_s(3.5), true, -10.0);
  log.on_slot(util::us_from_s(4.0), false, -40.0);
  log.on_slot(util::us_from_s(4.5), true, -10.0);
  EXPECT_NEAR(log.longest_outage_s(), 2.5, 1e-9);
}

TEST(SessionLogTest, OpenEndedOutageCounts) {
  SessionLog log;
  log.on_slot(0, true, -10.0);
  log.on_slot(util::us_from_s(1.0), false, -40.0);
  log.on_slot(util::us_from_s(4.0), false, -40.0);
  EXPECT_NEAR(log.longest_outage_s(), 3.0, 1e-9);
}

}  // namespace
}  // namespace cyclops::link
