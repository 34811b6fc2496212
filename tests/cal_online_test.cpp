// DriftMonitor boundary semantics (the recalibration trigger) and the
// online recalibration plane end-to-end (cal/online.hpp): under injected
// drift the frozen twin loses link margin, the online twin refits the
// Stage-2 mapping in flight, recovers >= 90 % of the loss, and never has
// a down slot while a refit is active.
#include <cmath>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "cal/online.hpp"
#include "core/calibration.hpp"
#include "core/drift_monitor.hpp"
#include "sim/prototype.hpp"

using namespace cyclops;

namespace {

// A constant input makes the EMA exact: the first sample sets it, later
// identical samples leave it unchanged — so threshold boundaries can be
// probed without tolerance games.
core::DriftMonitorConfig boundary_config() {
  core::DriftMonitorConfig config;
  config.healthy_power_dbm = -10.0;
  config.drift_threshold_db = 2.0;
  config.window_samples = 8;
  config.min_samples = 4;
  return config;
}

TEST(DriftMonitorBoundaryTest, ExactThresholdDoesNotFlag) {
  core::DriftMonitor monitor(boundary_config());
  // EMA pinned exactly AT healthy - threshold: strictly-below contract
  // says no flag, ever.
  for (int i = 0; i < 100; ++i) monitor.on_post_realignment_power(-12.0);
  EXPECT_EQ(monitor.smoothed_power_dbm(), -12.0);
  EXPECT_FALSE(monitor.recalibration_needed());
}

TEST(DriftMonitorBoundaryTest, JustBelowThresholdFlagsAtMinSamples) {
  core::DriftMonitor monitor(boundary_config());
  const double below = std::nextafter(-12.0, -13.0);
  for (int i = 0; i < 3; ++i) {
    monitor.on_post_realignment_power(below);
    EXPECT_FALSE(monitor.recalibration_needed())
        << "flagged on sample " << i + 1 << " before min_samples";
  }
  monitor.on_post_realignment_power(below);  // Sample 4 == min_samples.
  EXPECT_TRUE(monitor.recalibration_needed());
}

TEST(DriftMonitorBoundaryTest, LatchHoldsThroughRecovery) {
  core::DriftMonitor monitor(boundary_config());
  for (int i = 0; i < 8; ++i) monitor.on_post_realignment_power(-15.0);
  ASSERT_TRUE(monitor.recalibration_needed());
  // The EMA wobbling back over the line must NOT cancel an in-flight
  // refit: the flag latches until reset().
  for (int i = 0; i < 200; ++i) monitor.on_post_realignment_power(-10.0);
  EXPECT_GT(monitor.smoothed_power_dbm(), -12.0);
  EXPECT_TRUE(monitor.recalibration_needed());
}

TEST(DriftMonitorBoundaryTest, ResetIsTheHysteresisRelease) {
  core::DriftMonitor monitor(boundary_config());
  for (int i = 0; i < 8; ++i) monitor.on_post_realignment_power(-15.0);
  ASSERT_TRUE(monitor.recalibration_needed());
  monitor.reset();
  EXPECT_FALSE(monitor.recalibration_needed());
  EXPECT_EQ(monitor.samples(), 0);
  // Fresh evidence is required from scratch after a refit.
  for (int i = 0; i < 3; ++i) monitor.on_post_realignment_power(-15.0);
  EXPECT_FALSE(monitor.recalibration_needed());
  monitor.on_post_realignment_power(-15.0);
  EXPECT_TRUE(monitor.recalibration_needed());
}

TEST(DriftMonitorBoundaryTest, BlackoutsDoNotMoveTheBoundary) {
  core::DriftMonitor monitor(boundary_config());
  const double below = std::nextafter(-12.0, -13.0);
  for (int i = 0; i < 3; ++i) monitor.on_post_realignment_power(below);
  // -inf (occlusion) must neither flag nor count as the 4th sample.
  monitor.on_post_realignment_power(-std::numeric_limits<double>::infinity());
  EXPECT_EQ(monitor.samples(), 3);
  EXPECT_FALSE(monitor.recalibration_needed());
  monitor.on_post_realignment_power(below);
  EXPECT_TRUE(monitor.recalibration_needed());
}

// ---- The online recalibration scenario (ROADMAP item 3) ----

cal::OnlineRecalResult run_scenario(bool online) {
  sim::Prototype proto = sim::make_prototype(211, sim::prototype_25g_config());
  const core::CalibrationResult calibration = core::truth_calibration(proto);
  cal::OnlineRecalConfig config;
  config.duration_s = 1.0;
  config.online = online;
  config.seed = 7;
  return cal::run_online_recal_session(proto, calibration, config,
                                       runtime::Context::isolated());
}

class OnlineRecalScenarioTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    frozen_ = new cal::OnlineRecalResult(run_scenario(/*online=*/false));
    online_ = new cal::OnlineRecalResult(run_scenario(/*online=*/true));
  }
  static void TearDownTestSuite() {
    delete online_;
    delete frozen_;
    online_ = nullptr;
    frozen_ = nullptr;
  }
  static cal::OnlineRecalResult* frozen_;
  static cal::OnlineRecalResult* online_;
};

cal::OnlineRecalResult* OnlineRecalScenarioTest::frozen_ = nullptr;
cal::OnlineRecalResult* OnlineRecalScenarioTest::online_ = nullptr;

TEST_F(OnlineRecalScenarioTest, FrozenCalibrationDiesOffUnderDrift) {
  EXPECT_EQ(frozen_->refits, 0);
  EXPECT_GT(frozen_->early_margin_db, 2.0);
  EXPECT_LT(frozen_->tail_margin_db, -5.0);
  EXPECT_LT(frozen_->up_fraction, 0.8);
}

TEST_F(OnlineRecalScenarioTest, OnlineRefitTriggersViaDriftMonitor) {
  EXPECT_GE(online_->refits, 1);
  EXPECT_GE(online_->refit_windows, 1u);
}

TEST_F(OnlineRecalScenarioTest, RefitsCauseNoOutage) {
  EXPECT_EQ(online_->refit_down_windows, 0u);
  EXPECT_GT(online_->up_fraction, 0.99);
}

TEST_F(OnlineRecalScenarioTest, OnlineRecoversAtLeast90PercentOfLostMargin) {
  const double lost = frozen_->early_margin_db - frozen_->tail_margin_db;
  ASSERT_GT(lost, 3.0) << "drift injection is not biting";
  const double recovered =
      (online_->tail_margin_db - frozen_->tail_margin_db) / lost;
  EXPECT_GE(recovered, 0.9);
}

TEST_F(OnlineRecalScenarioTest, TwinsAreIdenticalBeforeTheFirstRefit) {
  // The frozen baseline sees the identical slot stream: window margins
  // must match BITWISE until the first refit swaps the mapping.
  ASSERT_EQ(frozen_->window_stats.size(), online_->window_stats.size());
  std::size_t first_refit = online_->window_stats.size();
  for (std::size_t i = 0; i < online_->window_stats.size(); ++i) {
    if (online_->window_stats[i].refit_active) {
      first_refit = i;
      break;
    }
  }
  ASSERT_GT(first_refit, 0u);
  ASSERT_LT(first_refit, online_->window_stats.size());
  for (std::size_t i = 0; i < first_refit; ++i) {
    EXPECT_EQ(frozen_->window_stats[i].avg_margin_db,
              online_->window_stats[i].avg_margin_db)
        << "window " << i;
    EXPECT_EQ(frozen_->window_stats[i].up_fraction,
              online_->window_stats[i].up_fraction);
  }
}

TEST_F(OnlineRecalScenarioTest, ScenarioIsDeterministic) {
  const cal::OnlineRecalResult again = run_scenario(/*online=*/true);
  EXPECT_EQ(again.refits, online_->refits);
  EXPECT_EQ(again.slots, online_->slots);
  EXPECT_EQ(again.events, online_->events);
  EXPECT_EQ(again.avg_margin_db, online_->avg_margin_db);
  EXPECT_EQ(again.tail_margin_db, online_->tail_margin_db);
}

TEST(OnlineRecalibratorTest, RefitPendingNeedsLatchAndSamples) {
  sim::Prototype proto = sim::make_prototype(31, sim::prototype_10g_config());
  core::DriftMonitorConfig monitor = boundary_config();
  cal::OnlineRefitOptions options;
  options.min_samples = 3;
  const runtime::Context ctx = runtime::Context::isolated();
  cal::OnlineRecalibrator recal(
      core::GmaModel(proto.tx_galvo_truth).transformed(proto.k_from_tx_gma),
      core::GmaModel(proto.rx_galvo_truth).transformed(proto.k_from_rx_gma),
      proto.true_map_tx, proto.true_map_rx, monitor, options, ctx);
  recal.arm(-10.0);

  // Latched but empty buffer: not pending.
  for (int i = 0; i < 8; ++i) recal.on_power(-15.0);
  ASSERT_TRUE(recal.monitor().recalibration_needed());
  EXPECT_FALSE(recal.refit_pending());

  // Buffer filled but (after reset) not latched: not pending either.
  const core::AlignedSample sample{{0.1, 0.2, 0.3, 0.4},
                                   proto.nominal_rig_pose};
  for (int i = 0; i < 3; ++i) recal.admit(sample);
  EXPECT_TRUE(recal.refit_pending());
  recal.monitor().reset();
  EXPECT_FALSE(recal.refit_pending());
}

}  // namespace
