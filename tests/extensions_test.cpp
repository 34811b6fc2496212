// Tests for the extension modules: calibration persistence, eye safety,
// the mmWave and probe-TP baselines, and the multi-TX coverage planner.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>

#include "baseline/mmwave.hpp"
#include "core/persistence.hpp"
#include "core/probe_tracker.hpp"
#include "link/coverage.hpp"
#include "optics/eye_safety.hpp"
#include "util/units.hpp"

namespace cyclops {
namespace {

// ---- persistence ----

class PersistenceFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    proto_ = new sim::Prototype(
        sim::make_prototype(55, sim::prototype_10g_config()));
    util::Rng rng(3);
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

sim::Prototype* PersistenceFixture::proto_ = nullptr;
core::CalibrationResult* PersistenceFixture::calib_ = nullptr;

TEST_F(PersistenceFixture, RoundTripPreservesModels) {
  const auto path = std::filesystem::temp_directory_path() /
                    "cyclops_calib_test.txt";
  core::save_calibration(path, *calib_);
  const core::CalibrationResult loaded = core::load_calibration(path);
  std::filesystem::remove(path);

  // Model parameters survive bit-for-bit (within text round-trip).
  const auto a = calib_->tx_stage1.model.params().pack();
  const auto b = loaded.tx_stage1.model.params().pack();
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], b[i], 1e-12);

  EXPECT_NEAR(geom::translation_distance(loaded.mapping.map_rx,
                                         calib_->mapping.map_rx),
              0.0, 1e-12);
  EXPECT_NEAR(loaded.mapping.avg_coincidence_m,
              calib_->mapping.avg_coincidence_m, 1e-15);
}

TEST_F(PersistenceFixture, LoadedCalibrationPointsIdentically) {
  const runtime::Context ctx = runtime::Context::isolated();
  const auto path = std::filesystem::temp_directory_path() /
                    "cyclops_calib_test2.txt";
  core::save_calibration(path, *calib_);
  const core::CalibrationResult loaded = core::load_calibration(path);
  std::filesystem::remove(path);

  const core::PointingSolver original = calib_->make_pointing_solver({}, ctx);
  const core::PointingSolver restored = loaded.make_pointing_solver({}, ctx);
  const geom::Pose psi =
      proto_->tracker.ideal_report(proto_->nominal_rig_pose);
  const auto a = original.solve(psi, {});
  const auto b = restored.solve(psi, {});
  ASSERT_TRUE(a.converged && b.converged);
  EXPECT_NEAR(a.voltages.tx1, b.voltages.tx1, 1e-9);
  EXPECT_NEAR(a.voltages.rx2, b.voltages.rx2, 1e-9);
}

TEST(PersistenceErrors, MissingFileThrows) {
  EXPECT_THROW(core::load_calibration("/nonexistent/calib.txt"),
               std::runtime_error);
}

TEST(PersistenceErrors, WrongMagicThrows) {
  const auto path =
      std::filesystem::temp_directory_path() / "cyclops_bad_calib.txt";
  {
    std::ofstream out(path);
    out << "something else\n";
  }
  EXPECT_THROW(core::load_calibration(path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(PersistenceErrors, TruncatedFileThrows) {
  const auto path =
      std::filesystem::temp_directory_path() / "cyclops_trunc_calib.txt";
  {
    std::ofstream out(path);
    out << "cyclops-calibration v1\n";
    out << "tx_model 1 2 3\n";  // wrong arity
  }
  EXPECT_THROW(core::load_calibration(path), std::runtime_error);
  std::filesystem::remove(path);
}

// ---- eye safety ----

TEST(EyeSafetyTest, BareSfpIsClass1) {
  // §2.2: "SFPs are Class 1 safe" — 0-4 dBm at 1550 nm vs 10 mW AEL.
  const optics::EyeSafetyReport report = optics::evaluate_eye_safety(
      optics::sfp_10g_zr(), optics::Edfa{.gain_db = 0.0},
      optics::BeamSpec::diverging_for(20e-3, 1.5), 0.5);
  EXPECT_TRUE(report.class1_at_aperture);
  EXPECT_TRUE(report.class1_at_access);
}

TEST(EyeSafetyTest, AmplifiedLaunchNeedsStandoff) {
  // +17 dB EDFA -> 50 mW launch: not Class 1 at the lens, safe beyond a
  // standoff the ceiling mount provides.
  const optics::EyeSafetyReport report = optics::evaluate_eye_safety(
      optics::sfp_10g_zr(), optics::Edfa{.gain_db = 17.0},
      optics::BeamSpec::diverging_for(20e-3, 1.5), 0.5);
  EXPECT_NEAR(report.launch_power_mw, 50.0, 1.0);
  EXPECT_FALSE(report.class1_at_aperture);
  EXPECT_GT(report.safe_standoff_m, 0.0);
  EXPECT_LT(report.safe_standoff_m, 2.0);
}

TEST(EyeSafetyTest, DivergenceCreatesSafety) {
  // The same amplified power stays unsafe much further out if collimated.
  const optics::EyeSafetyReport diverging = optics::evaluate_eye_safety(
      optics::sfp_10g_zr(), optics::Edfa{.gain_db = 17.0},
      optics::BeamSpec::diverging_for(20e-3, 1.5), 0.5);
  const optics::EyeSafetyReport collimated = optics::evaluate_eye_safety(
      optics::sfp_10g_zr(), optics::Edfa{.gain_db = 17.0},
      optics::BeamSpec::collimated(5e-3), 0.5);
  EXPECT_GT(collimated.safe_standoff_m, diverging.safe_standoff_m * 5.0);
}

TEST(EyeSafetyTest, RetinaSafeBandHasHigherLimit) {
  EXPECT_GT(optics::class1_ael_mw(1550.0), optics::class1_ael_mw(1310.0));
  EXPECT_GT(optics::class1_ael_mw(1310.0), optics::class1_ael_mw(850.0));
}

TEST(EyeSafetyTest, PupilPowerDropsWithDistance) {
  const optics::BeamSpec beam = optics::BeamSpec::diverging_for(20e-3, 1.5);
  const double near = optics::pupil_power_mw(17.0, beam, 0.1);
  const double far = optics::pupil_power_mw(17.0, beam, 2.0);
  EXPECT_GT(near, far);
  EXPECT_GT(far, 0.0);
}

// ---- mmWave baseline ----

TEST(MmWaveTest, ShortRangeReachesTopMcs) {
  const baseline::MmWaveLink link{baseline::MmWaveConfig{}};
  const double snr = link.snr_db(2.0, false);
  EXPECT_GT(snr, 17.5);  // top MCS threshold
  EXPECT_NEAR(link.phy_rate_gbps(snr), 6.7565, 1e-6);
}

TEST(MmWaveTest, GoodputCapsAtAFewGbps) {
  // The paper's headline point: even ideal 802.11ad stays under ~4.5 Gbps
  // goodput — an order of magnitude below the raw-video requirement.
  const baseline::MmWaveLink link{baseline::MmWaveConfig{}};
  EXPECT_LT(link.goodput_gbps(1.5, false, false), 5.0);
  EXPECT_GT(link.goodput_gbps(1.5, false, false), 3.0);
}

TEST(MmWaveTest, BlockageDegradesRate) {
  const baseline::MmWaveLink link{baseline::MmWaveConfig{}};
  EXPECT_LT(link.goodput_gbps(2.0, true, false),
            link.goodput_gbps(2.0, false, false));
}

TEST(MmWaveTest, RateMonotoneInRange) {
  const baseline::MmWaveLink link{baseline::MmWaveConfig{}};
  double prev = 1e9;
  for (double d = 1.0; d < 30.0; d *= 1.6) {
    const double rate = link.goodput_gbps(d, false, false);
    EXPECT_LE(rate, prev);
    prev = rate;
  }
  EXPECT_EQ(link.phy_rate_gbps(link.snr_db(500.0, false)), 0.0);
}

TEST(MmWaveTest, BeamTrainingTriggersOnRotation) {
  baseline::BeamTrainingState state{baseline::MmWaveConfig{}};
  EXPECT_FALSE(state.step(0, 0.0));
  // Rotate past half the 12-degree beamwidth.
  EXPECT_TRUE(state.step(1000, util::deg_to_rad(10.0)));
  EXPECT_EQ(state.retrains(), 1);
  // Still retraining for 10 ms.
  EXPECT_TRUE(state.step(5000, util::deg_to_rad(10.0)));
  // Done afterwards.
  EXPECT_FALSE(state.step(12000, util::deg_to_rad(10.0)));
}

// ---- probe-TP baseline ----

TEST(ProbeTrackerTest, ClimbsTowardAlignmentOnStaticRig) {
  const runtime::Context ctx = runtime::Context::isolated();
  sim::Prototype proto =
      sim::make_prototype(42, sim::prototype_10g_config());
  const core::ExhaustiveAligner aligner({}, ctx.pool());
  const core::AlignResult optimal = aligner.align(proto.scene, {});

  // Start slightly misaligned; static rig; the dither-climber must
  // recover most of the power over a few rounds.
  sim::Voltages v = optimal.voltages;
  v.tx1 += 0.15;
  v.rx2 -= 0.15;
  const double start_power = proto.scene.received_power_dbm(v);

  const core::ProbeTracker tracker{core::ProbeTpConfig{}};
  const auto observe = [&](const sim::Voltages& probe) {
    return proto.scene.received_power_dbm(probe);
  };
  for (int round = 0; round < 60; ++round) v = tracker.round(v, observe);
  const double end_power = proto.scene.received_power_dbm(v);
  EXPECT_GT(end_power, start_power + 3.0);
  EXPECT_GT(end_power, optimal.power_dbm - 3.0);
}

TEST(ProbeTrackerTest, RoundCostReflectsDaqLatency) {
  const core::ProbeTracker tracker{core::ProbeTpConfig{}};
  // 8 probes x 1.8 ms: slower than one VRH-T period — the §3 argument.
  EXPECT_GE(tracker.round_duration(), util::us_from_ms(12.0));
}

// ---- coverage planner ----

TEST(CoverageTest, TxCoversDirectlyBelow) {
  link::RoomConfig room;
  EXPECT_TRUE(link::tx_covers({2.0, 2.6, 2.0}, {2.0, 1.5, 2.0}, room));
}

TEST(CoverageTest, ConeBoundsRespected) {
  link::RoomConfig room;
  // ~20 deg cone, 1.1 m below: lateral reach ~0.4 m.
  EXPECT_TRUE(link::tx_covers({2.0, 2.6, 2.0}, {2.3, 1.5, 2.0}, room));
  EXPECT_FALSE(link::tx_covers({2.0, 2.6, 2.0}, {3.2, 1.5, 2.0}, room));
}

TEST(CoverageTest, RangeLimitRespected) {
  link::RoomConfig room;
  room.max_range = 1.0;
  EXPECT_FALSE(link::tx_covers({2.0, 2.6, 2.0}, {2.0, 1.0, 2.0}, room));
}

TEST(CoverageTest, PlanAchievesFullCoverage) {
  link::RoomConfig room;
  const link::CoveragePlan plan = link::plan_coverage(room);
  EXPECT_GT(plan.tx_positions.size(), 1u);
  // The GVS102's +/-20 deg cone covers only a ~0.3 m radius at standing
  // head height: a 4x4 m room honestly needs dozens of TXs — exactly the
  // "limited field-of-view coverage of the GMs" challenge §3 raises.
  EXPECT_LT(plan.tx_positions.size(), 150u);
  EXPECT_DOUBLE_EQ(plan.covered_fraction, 1.0);
}

TEST(CoverageTest, RedundancyNeedsMoreTx) {
  link::RoomConfig room;
  const auto single = link::plan_coverage(room);
  room.min_coverage = 2;
  const auto redundant = link::plan_coverage(room);
  EXPECT_GT(redundant.tx_positions.size(), single.tx_positions.size());
  EXPECT_DOUBLE_EQ(redundant.covered_fraction, 1.0);
}

TEST(CoverageTest, BiggerRoomNeedsMoreTx) {
  link::RoomConfig small;
  small.width = 3.0;
  small.depth = 3.0;
  link::RoomConfig big;
  big.width = 6.0;
  big.depth = 6.0;
  EXPECT_GE(link::plan_coverage(big).tx_positions.size(),
            link::plan_coverage(small).tx_positions.size());
}

TEST(CoverageTest, WiderConeNeedsFewerTx) {
  link::RoomConfig narrow;
  narrow.tx_cone_half_angle = 0.25;
  link::RoomConfig wide;
  wide.tx_cone_half_angle = 0.6;
  wide.max_range = 3.5;
  EXPECT_LE(link::plan_coverage(wide).tx_positions.size(),
            link::plan_coverage(narrow).tx_positions.size());
}

}  // namespace
}  // namespace cyclops
