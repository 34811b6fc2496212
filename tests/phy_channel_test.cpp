// The unified phy::Channel contract: rate/sensitivity boundaries for the
// FSO SFP tables (10G ZR, 25G SFP28), the WDM lane ladder under both
// collimators, and the mmWave MCS ladder + beam-retraining state — all
// probed through the adapter interface the session core consumes.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "baseline/mmwave.hpp"
#include "core/exhaustive_aligner.hpp"
#include "geom/mat3.hpp"
#include "obs/registry.hpp"
#include "optics/sfp.hpp"
#include "optics/wdm.hpp"
#include "phy/fso_channel.hpp"
#include "phy/mmwave_channel.hpp"
#include "phy/wdm_channel.hpp"
#include "sim/prototype.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

namespace cyclops::phy {
namespace {

constexpr double kEps = 1e-9;

// ---- SFP rate/sensitivity tables through make_sfp_info ----

TEST(PhySfpInfoTest, TenGigZrTable) {
  const ChannelInfo info = make_sfp_info(optics::sfp_10g_zr());
  EXPECT_EQ(info.name, "SFP-10G-ZR");
  EXPECT_DOUBLE_EQ(info.peak_rate_gbps, 9.4);
  EXPECT_DOUBLE_EQ(info.sensitivity, -25.0);
  EXPECT_FALSE(info.rate_adaptive);
}

TEST(PhySfpInfoTest, TwentyFiveGigTable) {
  const ChannelInfo info = make_sfp_info(optics::sfp28_lr());
  EXPECT_DOUBLE_EQ(info.peak_rate_gbps, 23.5);
  EXPECT_DOUBLE_EQ(info.sensitivity, -14.0);
  EXPECT_FALSE(info.rate_adaptive);
}

// ---- FsoChannel: all-or-nothing rate at the sensitivity boundary ----

class FsoChannelTest : public ::testing::Test {
 protected:
  static double boundary_rate(const sim::PrototypeConfig& config) {
    sim::Prototype proto = sim::make_prototype(7, config);
    FsoChannel channel(proto.scene);
    const ChannelInfo& info = channel.info();
    EXPECT_DOUBLE_EQ(channel.rate_for(info.sensitivity),
                     info.peak_rate_gbps);
    EXPECT_DOUBLE_EQ(channel.rate_for(info.sensitivity - kEps), 0.0);
    EXPECT_DOUBLE_EQ(channel.rate_for(info.sensitivity + 10.0),
                     info.peak_rate_gbps);
    EXPECT_DOUBLE_EQ(
        channel.rate_for(-std::numeric_limits<double>::infinity()), 0.0);
    return channel.rate_for(info.sensitivity);
  }
};

TEST_F(FsoChannelTest, TenGigBoundary) {
  EXPECT_DOUBLE_EQ(boundary_rate(sim::prototype_10g_config()), 9.4);
}

TEST_F(FsoChannelTest, TwentyFiveGigBoundary) {
  // Whatever SFP the 25G prototype carries, its goodput is the SFP28 line.
  EXPECT_DOUBLE_EQ(boundary_rate(sim::prototype_25g_config()), 23.5);
}

TEST_F(FsoChannelTest, PowerFollowsVoltagesAndTxMount) {
  // power_at holds the TX beam between set_voltages calls; it must still
  // equal a full scene trace after new voltages and after the scene's TX
  // mount moves (the Table-1 sweep's set_tx_mount).
  sim::Prototype proto = sim::make_prototype(7, sim::prototype_10g_config());
  FsoChannel channel(proto.scene);
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  const geom::Pose rig = proto.nominal_rig_pose;
  const geom::Pose shifted{rig.rotation(),
                           rig.translation() + geom::Vec3{0.01, 0.0, 0.0}};
  const auto expect_traced = [&](const geom::Pose& pose) {
    const double got = channel.power_at(pose, 0);
    EXPECT_EQ(bits(got), bits(proto.scene.received_power_dbm(channel.voltages())));
    return got;
  };
  util::ThreadPool pool(2);
  const sim::Voltages aligned =
      core::ExhaustiveAligner({}, pool).align(proto.scene, {}).voltages;
  const sim::Voltages nudged{aligned.tx1 + 0.01, aligned.tx2, aligned.rx1,
                             aligned.rx2 - 0.01};
  for (const sim::Voltages& v :
       {aligned, nudged, sim::Voltages{0.3, -0.2, 0.1, 0.4}}) {
    channel.set_voltages(v);
    expect_traced(rig);
    expect_traced(shifted);
  }
  channel.set_voltages(aligned);
  const double before = expect_traced(rig);
  ASSERT_TRUE(std::isfinite(before));
  const geom::Pose tx_mount = proto.scene.tx().mount();
  proto.scene.set_tx_mount(
      {geom::Mat3::rotation({1.0, 0.0, 0.0}, 1e-3) * tx_mount.rotation(),
       tx_mount.translation()});
  const double tilted = expect_traced(rig);
  EXPECT_NE(bits(tilted), bits(before));  // the beam really was re-emitted
  proto.scene.set_tx_mount(tx_mount);
  EXPECT_EQ(bits(expect_traced(rig)), bits(before));
}

TEST_F(FsoChannelTest, ReacquisitionDelayThroughAdapter) {
  sim::Prototype proto = sim::make_prototype(7, sim::prototype_10g_config());
  FsoChannel channel(proto.scene);
  const double good = channel.info().sensitivity + 3.0;
  const double bad = channel.info().sensitivity - 3.0;
  channel.force_up();
  EXPECT_TRUE(channel.step(0, good));
  EXPECT_FALSE(channel.step(1000, bad));  // drop is instant
  // Re-acquisition takes the SFP's link_up_delay (2 s for both specs).
  const util::SimTimeUs delay =
      util::us_from_s(proto.scene.config().sfp.link_up_delay_s);
  EXPECT_FALSE(channel.step(2000, good));
  EXPECT_FALSE(channel.step(2000 + delay - 1, good));
  EXPECT_TRUE(channel.step(2000 + delay, good));
}

// ---- WdmChannel: per-lane thresholds and the 5-step rate ladder ----

double expected_rate_at(const WdmChannel& channel, double margin_db) {
  const optics::WdmTransceiver& t = channel.transceiver();
  double rate = 0.0;
  for (std::size_t i = 0; i < t.lanes.size(); ++i) {
    if (margin_db >= channel.lane_threshold(i)) rate += t.lanes[i].rate_gbps;
  }
  return rate;
}

void check_wdm_ladder(const optics::WdmTransceiver& transceiver,
                      const optics::CollimatorChromatics& collimator) {
  WdmChannel channel(transceiver, collimator,
                     [](const geom::Pose&, util::SimTimeUs) { return 0.0; });
  const ChannelInfo& info = channel.info();
  EXPECT_TRUE(info.rate_adaptive);
  EXPECT_DOUBLE_EQ(info.peak_rate_gbps, transceiver.total_rate_gbps());

  // sensitivity is the best lane's threshold — the first lane to light.
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < transceiver.lanes.size(); ++i) {
    best = std::min(best, channel.lane_threshold(i));
  }
  EXPECT_DOUBLE_EQ(info.sensitivity, best);
  EXPECT_DOUBLE_EQ(channel.rate_for(info.sensitivity - kEps), 0.0);

  // At and just below each lane's threshold the aggregate rate must match
  // the lane-sum ladder exactly (the boundary lane flips, nothing else).
  for (std::size_t i = 0; i < transceiver.lanes.size(); ++i) {
    const double at = channel.lane_threshold(i);
    EXPECT_DOUBLE_EQ(channel.rate_for(at), expected_rate_at(channel, at))
        << transceiver.name << " lane " << i;
    EXPECT_DOUBLE_EQ(channel.rate_for(at - kEps),
                     expected_rate_at(channel, at - kEps))
        << transceiver.name << " lane " << i;
    EXPECT_LT(channel.rate_for(at - kEps), channel.rate_for(at));
  }
  // Zero shared loss lights every lane on both transceivers.
  EXPECT_DOUBLE_EQ(channel.rate_for(0.0), info.peak_rate_gbps);
}

TEST(WdmChannelTest, TenGigLadderCommodityCollimator) {
  check_wdm_ladder(optics::qsfp_lr4(), optics::commodity_collimator());
}

TEST(WdmChannelTest, TwentyFiveGigLadderCommodityCollimator) {
  check_wdm_ladder(optics::qsfp28_lr4(), optics::commodity_collimator());
}

TEST(WdmChannelTest, TwentyFiveGigLadderAchromaticCollimator) {
  check_wdm_ladder(optics::qsfp28_lr4(), optics::custom_achromatic_collimator());
}

TEST(WdmChannelTest, AchromaticCollimatorTightensThresholdSpread) {
  WdmChannel commodity(optics::qsfp28_lr4(), optics::commodity_collimator(),
                       [](const geom::Pose&, util::SimTimeUs) { return 0.0; });
  WdmChannel custom(optics::qsfp28_lr4(),
                    optics::custom_achromatic_collimator(),
                    [](const geom::Pose&, util::SimTimeUs) { return 0.0; });
  const auto spread = [](const WdmChannel& c) {
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < c.transceiver().lanes.size(); ++i) {
      lo = std::min(lo, c.lane_threshold(i));
      hi = std::max(hi, c.lane_threshold(i));
    }
    return hi - lo;
  };
  EXPECT_LT(spread(custom), 0.1 * spread(commodity));
}

TEST(WdmChannelTest, PowerAtIsNegatedSharedLoss) {
  WdmChannel channel(
      optics::qsfp28_lr4(), optics::commodity_collimator(),
      [](const geom::Pose&, util::SimTimeUs t) { return 0.001 * t; });
  const geom::Pose pose;
  EXPECT_DOUBLE_EQ(channel.power_at(pose, 0), 0.0);
  EXPECT_DOUBLE_EQ(channel.power_at(pose, 3000), -3.0);
}

// ---- MmWaveChannel: MCS ladder boundaries and beam retraining ----

TEST(MmWaveChannelTest, McsIndexBoundaries) {
  const auto& table = baseline::mcs_table();
  EXPECT_EQ(baseline::mcs_index_for(table.front().min_snr_db - kEps), 0);
  for (std::size_t i = 0; i < table.size(); ++i) {
    EXPECT_EQ(baseline::mcs_index_for(table[i].min_snr_db),
              static_cast<int>(i) + 1);
    EXPECT_EQ(baseline::mcs_index_for(table[i].min_snr_db - kEps),
              static_cast<int>(i));
  }
}

TEST(MmWaveChannelTest, InfoMatchesLadderCeiling) {
  const runtime::Context ctx = runtime::Context::isolated();
  MmWaveChannel channel(MmWaveChannelConfig{}, ctx);
  const ChannelInfo& info = channel.info();
  const auto& table = baseline::mcs_table();
  EXPECT_EQ(info.name, "mmwave-60ghz");
  EXPECT_TRUE(info.rate_adaptive);
  EXPECT_DOUBLE_EQ(info.peak_rate_gbps, table.back().phy_rate_gbps * 0.65);
  EXPECT_DOUBLE_EQ(info.sensitivity, table.front().min_snr_db);
  // rate_for walks the same ladder, scaled by MAC efficiency.
  EXPECT_DOUBLE_EQ(channel.rate_for(table.back().min_snr_db),
                   info.peak_rate_gbps);
  EXPECT_DOUBLE_EQ(channel.rate_for(table.front().min_snr_db),
                   table.front().phy_rate_gbps * 0.65);
  EXPECT_DOUBLE_EQ(channel.rate_for(table.front().min_snr_db - kEps), 0.0);
}

TEST(MmWaveChannelTest, RotationTriggersRetrainOutage) {
  const runtime::Context ctx = runtime::Context::isolated();
  obs::Registry& registry = ctx.registry();
  MmWaveChannelConfig config;  // 12 deg beam, 10 ms retrain
  MmWaveChannel channel(config, ctx);
  const geom::Pose base{geom::Mat3::identity(), {0.0, 1.2, 0.0}};

  double snr = channel.power_at(base, 0);
  EXPECT_GT(snr, channel.info().sensitivity);  // ~1 m from the AP
  EXPECT_TRUE(channel.step(0, snr));
  EXPECT_EQ(channel.retrains(), 0);

  // Rotate past half the beamwidth: the next slot must retrain and the
  // outage must last retrain_time_ms.
  const geom::Pose turned{
      geom::Mat3::rotation({0.0, 1.0, 0.0}, util::deg_to_rad(10.0)),
      base.translation()};
  snr = channel.power_at(turned, 1000);
  EXPECT_FALSE(channel.step(1000, snr));
  EXPECT_EQ(channel.retrains(), 1);
  snr = channel.power_at(turned, 5000);
  EXPECT_FALSE(channel.step(5000, snr));  // still inside the 10 ms sweep
  snr = channel.power_at(turned, 12000);
  EXPECT_TRUE(channel.step(12000, snr));  // sweep done, link back

  channel.finish(20000);
  EXPECT_EQ(registry.counter("mmwave_retrains_total").value(), 1u);
  EXPECT_GE(registry.counter("mmwave_retrain_slots_total").value(), 2u);
  EXPECT_EQ(registry.counter("mmwave_blocked_slots_total").value(), 0u);
}

TEST(MmWaveChannelTest, BlockageCostsSnrAndIsCounted) {
  const runtime::Context ctx = runtime::Context::isolated();
  obs::Registry& registry = ctx.registry();
  MmWaveChannelConfig config;
  config.blockage = [](util::SimTimeUs t) { return t >= 1000 && t < 3000; };
  MmWaveChannel channel(config, ctx);
  const geom::Pose base{geom::Mat3::identity(), {0.0, 1.2, 0.0}};

  const double clear = channel.power_at(base, 0);
  channel.step(0, clear);
  const double blocked = channel.power_at(base, 1000);
  channel.step(1000, blocked);
  EXPECT_NEAR(clear - blocked, config.radio.blockage_loss_db, 1e-12);
  const double after = channel.power_at(base, 3000);
  channel.step(3000, after);
  EXPECT_DOUBLE_EQ(after, clear);

  channel.finish(4000);
  EXPECT_EQ(registry.counter("mmwave_blocked_slots_total").value(), 1u);
}

}  // namespace
}  // namespace cyclops::phy
