// Tests for the multi-TX rig and the session log.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "link/handover.hpp"
#include "link/multi_tx.hpp"
#include "link/session_log.hpp"
#include "motion/profile.hpp"
#include "obs/registry.hpp"
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

TEST_F(MultiTxFixture, LogHoldsOnlyHandoverTraffic) {
  const motion::StillMotion profile(
      (*chains_)[0].proto.nominal_rig_pose, 4.0);
  const auto occlusion = [](util::SimTimeUs now, std::size_t tx) {
    const double t = util::us_to_s(now);
    return tx == 0 && t >= 1.0 && t < 3.0;
  };
  MultiTxConfig config;
  config.handover.switch_delay_s = 0.1;
  SessionLog log;
  const MultiTxResult result = run_multi_tx_session(
      *chains_, profile, config, occlusion, runtime::Context::isolated(),
      &log);
  ASSERT_GE(result.switches, 1);
  EXPECT_EQ(log.count(SessionEventKind::kHandover), result.switches);
  // The chains' steering planes log nothing: no realignments, no slots.
  for (const SessionEvent& entry : log.events()) {
    EXPECT_TRUE(entry.kind == SessionEventKind::kHandover ||
                entry.kind == SessionEventKind::kReacquisition)
        << static_cast<int>(entry.kind);
  }
}

/// The fixture's two TX positions, on their true calibrations (no fit).
std::vector<TxChain> truth_chains(const runtime::Context& ctx) {
  std::vector<TxChain> chains;
  for (const geom::Vec3 tx :
       {geom::Vec3{0.0, 2.2, 0.0}, geom::Vec3{0.5, 2.2, 0.25}}) {
    sim::PrototypeConfig config = sim::prototype_10g_config();
    config.tx_position = tx;
    chains.push_back(TxChain::from_truth(
        sim::make_prototype(42 + chains.size(), config), ctx));
  }
  return chains;
}

// Every chain starts pointed at the headset (P's answer for the ideal
// report at t = 0), so a still, unoccluded session serves its first slot.
TEST(MultiTxStartTest, StillSessionServesItsFirstSlot) {
  const runtime::Context ctx = runtime::Context::isolated({.threads = 0});
  std::vector<TxChain> chains = truth_chains(ctx);
  const motion::StillMotion profile(chains[0].proto.nominal_rig_pose, 0.2);
  MultiTxConfig config;
  std::vector<bool> usable;
  config.on_slot = [&](util::SimTimeUs, int, bool ok, double) {
    usable.push_back(ok);
  };
  const MultiTxResult result =
      run_multi_tx_session(chains, profile, config, nullptr, ctx);
  ASSERT_EQ(result.slots, 200u);
  ASSERT_FALSE(usable.empty());
  EXPECT_TRUE(usable.front());
  EXPECT_EQ(result.served_fraction, 1.0);
  // Every chain reads at or above sensitivity from t = 0 on.
  for (const double fraction : result.per_tx_usable_fraction) {
    EXPECT_EQ(fraction, 1.0);
  }
  EXPECT_EQ(result.events, result.slots);  // one event per slot
}

// A switch still pending when the slot grid ends never commits: nothing
// is logged or counted past the session's last slot.
TEST(MultiTxEndTest, SwitchPendingAtTheEndNeverCommits) {
  const runtime::Context ctx = runtime::Context::isolated({.threads = 0});
  std::vector<TxChain> chains = truth_chains(ctx);
  const motion::StillMotion profile(chains[0].proto.nominal_rig_pose, 0.2);
  // TX0 blocked from 150 ms on: the switch to TX1 it triggers would
  // commit at 250 ms, after the 200 ms session.
  const auto occlusion = [](util::SimTimeUs now, std::size_t tx) {
    return tx == 0 && now >= 150000;
  };
  MultiTxConfig config;
  config.handover.switch_delay_s = 0.1;
  SessionLog log;
  const MultiTxResult result =
      run_multi_tx_session(chains, profile, config, occlusion, ctx, &log);
  ASSERT_EQ(result.slots, 200u);
  EXPECT_EQ(result.switches, 0);  // started, never cancelled, never committed
  EXPECT_EQ(result.events, result.slots);
  EXPECT_EQ(log.count(SessionEventKind::kHandover), 0);
  for (const SessionEvent& entry : log.events()) {
    EXPECT_LT(entry.time, 200000);
  }
  EXPECT_EQ(ctx.registry().counter("handover_started_total").value(), 1u);
  EXPECT_EQ(ctx.registry().counter("handover_switches_total").value(), 0u);
}

// ---- Handover: reacquisition exactly at the switch deadline ----
//
// The boundary the arena's migration accounting leans on: when the old TX
// recovers at the *exact* switch instant, the commit wins (each slot
// calls advance(now) before on_powers), and nothing is counted as
// cancelled.

/// One slot of a handover: the commit check, then the decision.
int poll(Handover& handover, util::SimTimeUs now,
         const std::vector<double>& powers) {
  handover.advance(now);
  return handover.on_powers(now, powers);
}

HandoverConfig deadline_config() {
  HandoverConfig config;
  config.hysteresis_db = 3.0;
  config.drop_threshold_dbm = -25.0;
  config.switch_delay_s = 0.1;
  config.cancel_on_reacquire = true;
  return config;
}

TEST(HandoverDeadlineTest, ReacquisitionAtExactDeadlineDoesNotCancel) {
  SessionLog log;
  const runtime::Context ctx = runtime::Context::isolated();
  Handover handover(2, deadline_config(), ctx, &log);

  EXPECT_EQ(poll(handover, 0, {-10.0, -20.0}), 0);

  // t = 1 ms: TX0 drops; a drop-triggered switch starts, deadline 101 ms.
  EXPECT_EQ(poll(handover, 1000, {-40.0, -20.0}), -1);
  EXPECT_TRUE(handover.switching());

  // One microsecond before the deadline the old TX is still down.
  EXPECT_EQ(poll(handover, 100999, {-40.0, -20.0}), -1);
  EXPECT_TRUE(handover.switching());

  // At the deadline the commit comes first, so the reacquisition powers
  // fed at the same instant arrive too late.
  EXPECT_EQ(poll(handover, 101000, {-12.0, -11.0}), 1);
  EXPECT_FALSE(handover.switching());

  EXPECT_EQ(handover.started(), 1);
  EXPECT_EQ(handover.cancelled_switches(), 0);
  EXPECT_EQ(handover.switches(), 1);
  ASSERT_EQ(log.count(SessionEventKind::kHandover), 1);
  EXPECT_EQ(log.events().front().time, 101000);
  EXPECT_EQ(log.count(SessionEventKind::kReacquisition), 0);
}

TEST(HandoverDeadlineTest, ReacquisitionOneTickEarlierCancels) {
  SessionLog log;
  const runtime::Context ctx = runtime::Context::isolated();
  Handover handover(2, deadline_config(), ctx, &log);

  EXPECT_EQ(poll(handover, 0, {-10.0, -20.0}), 0);
  EXPECT_EQ(poll(handover, 1000, {-40.0, -20.0}), -1);

  // Reacquire one microsecond before the deadline: switch abandoned.
  EXPECT_EQ(poll(handover, 100999, {-12.0, -20.0}), 0);
  EXPECT_FALSE(handover.switching());
  EXPECT_EQ(handover.cancelled_switches(), 1);
  EXPECT_EQ(handover.switches(), 0);

  handover.advance(101000);  // the cancelled switch must never commit
  EXPECT_EQ(handover.active(), 0);
  EXPECT_EQ(log.count(SessionEventKind::kHandover), 0);
  ASSERT_EQ(log.count(SessionEventKind::kReacquisition), 1);
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
