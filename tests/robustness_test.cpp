// Failure injection and cross-seed property sweeps: control-channel loss,
// mid-stream occlusion with re-acquisition, voltage saturation outside
// the coverage cone, WDM chromatic penalties, and stage-1/Lemma-1
// properties across manufactured units.
#include <gtest/gtest.h>

#include <cmath>

#include "core/calibration.hpp"
#include "link/fso_link.hpp"
#include "motion/profile.hpp"
#include "optics/wdm.hpp"
#include "util/units.hpp"

namespace cyclops {
namespace {

core::CalibrationResult calibrate(sim::Prototype& proto, std::uint64_t seed,
                                  const runtime::Context& ctx) {
  util::Rng rng(seed);
  return core::calibrate_prototype(proto, core::CalibrationConfig{}, rng, ctx);
}

// ---- control-channel loss ----

TEST(ControlChannelLoss, ModerateLossSurvivesSlowMotion) {
  const runtime::Context ctx = runtime::Context::isolated({.threads = 0});
  sim::PrototypeConfig config = sim::prototype_10g_config();
  config.tracker.report_loss_prob = 0.3;
  sim::Prototype proto = sim::make_prototype(42, config);
  const core::CalibrationResult calib = calibrate(proto, 7, ctx);
  core::TpController controller(calib.make_pointing_solver({}, ctx),
                                core::TpConfig{});
  const motion::LinearStrokeMotion profile(proto.nominal_rig_pose, {1, 0, 0},
                                           0.12, {0.08});
  const link::RunResult run =
      link::run_link_simulation(proto, controller, profile, ctx);
  EXPECT_GT(run.total_up_fraction, 0.99);
}

TEST(ControlChannelLoss, LossReducesRealignments) {
  const runtime::Context ctx = runtime::Context::isolated({.threads = 0});
  sim::PrototypeConfig lossy_config = sim::prototype_10g_config();
  lossy_config.tracker.report_loss_prob = 0.5;
  sim::Prototype lossy = sim::make_prototype(42, lossy_config);
  sim::Prototype clean = sim::make_prototype(42, sim::prototype_10g_config());

  const core::CalibrationResult calib_lossy = calibrate(lossy, 7, ctx);
  const core::CalibrationResult calib_clean = calibrate(clean, 7, ctx);

  const motion::LinearStrokeMotion profile(clean.nominal_rig_pose, {1, 0, 0},
                                           0.12, {0.10});
  core::TpController c1(calib_lossy.make_pointing_solver({}, ctx), {});
  core::TpController c2(calib_clean.make_pointing_solver({}, ctx), {});
  const link::RunResult lossy_run =
      link::run_link_simulation(lossy, c1, profile, ctx);
  const link::RunResult clean_run =
      link::run_link_simulation(clean, c2, profile, ctx);
  EXPECT_LT(lossy_run.realignments, clean_run.realignments * 0.75);
}

TEST(ControlChannelLoss, HeavyLossBreaksFastMotion) {
  const runtime::Context ctx = runtime::Context::isolated({.threads = 0});
  sim::PrototypeConfig config = sim::prototype_10g_config();
  config.tracker.report_loss_prob = 0.85;
  sim::Prototype proto = sim::make_prototype(42, config);
  const core::CalibrationResult calib = calibrate(proto, 7, ctx);
  core::TpController controller(calib.make_pointing_solver({}, ctx),
                                core::TpConfig{});
  // 25 cm/s is fine with a healthy channel but not when ~6 of 7 reports
  // vanish (effective update period ~85 ms).
  const motion::LinearStrokeMotion profile(proto.nominal_rig_pose, {1, 0, 0},
                                           0.12, {0.25});
  const link::RunResult run =
      link::run_link_simulation(proto, controller, profile, ctx);
  EXPECT_LT(run.total_up_fraction, 0.9);
}

// ---- occlusion / re-acquisition ----

TEST(OcclusionRecovery, LinkReacquiresAfterBlockerLeaves) {
  const runtime::Context ctx = runtime::Context::isolated({.threads = 0});
  sim::Prototype proto = sim::make_prototype(42, sim::prototype_10g_config());
  const core::CalibrationResult calib = calibrate(proto, 7, ctx);
  core::TpController controller(calib.make_pointing_solver({}, ctx),
                                core::TpConfig{});

  // Occlude the path between t = 2 s and t = 3 s via the slot callback.
  const geom::Vec3 mid = (proto.scene.tx().mount().translation() +
                          proto.nominal_rig_pose.translation()) *
                         0.5;
  link::SimOptions options;
  bool occluded = false;
  options.on_slot = [&](util::SimTimeUs now, bool, double) {
    const bool should_block =
        now > util::us_from_s(2.0) && now < util::us_from_s(3.0);
    if (should_block && !occluded) {
      proto.scene.add_occluder({mid, 0.2});
      occluded = true;
    } else if (!should_block && occluded) {
      proto.scene.clear_occluders();
      occluded = false;
    }
  };

  const motion::StillMotion profile(proto.nominal_rig_pose, 8.0);
  const link::RunResult run =
      link::run_link_simulation(proto, controller, profile, ctx, options);

  // Down for the 1 s occlusion + ~2 s SFP re-acquisition out of 8 s.
  EXPECT_LT(run.total_up_fraction, 0.8);
  EXPECT_GT(run.total_up_fraction, 0.5);
  // The tail windows must be back at full throughput.
  const auto& last = run.windows.back();
  EXPECT_GT(last.up_fraction, 0.99);
}

// ---- saturation / out-of-coverage ----

TEST(Saturation, PoseOutsideConeFailsGracefully) {
  const runtime::Context ctx = runtime::Context::isolated({.threads = 0});
  sim::Prototype proto = sim::make_prototype(42, sim::prototype_10g_config());
  const core::CalibrationResult calib = calibrate(proto, 7, ctx);
  const core::PointingSolver solver = calib.make_pointing_solver({}, ctx);

  // Rotate the rig 60 degrees away: far beyond the RX GM's cone.
  const geom::Pose away{
      geom::Mat3::rotation({0, 1, 0}, util::deg_to_rad(60.0)) *
          proto.nominal_rig_pose.rotation(),
      proto.nominal_rig_pose.translation()};
  proto.scene.set_rig_pose(away);
  const geom::Pose psi = proto.tracker.report(0, away).pose;
  const core::PointingResult r = solver.solve(psi, {});
  // The solver may "converge" to an extrapolated solution; the physical
  // link must simply be down, with no crash or NaN voltages.
  EXPECT_TRUE(std::isfinite(r.voltages.rx1));
  EXPECT_LT(proto.scene.received_power_dbm(r.voltages),
            proto.scene.config().sfp.rx_sensitivity_dbm);
}

TEST(Saturation, ControllerCountsFailuresNotCrashes) {
  const runtime::Context ctx = runtime::Context::isolated({.threads = 0});
  sim::Prototype proto = sim::make_prototype(42, sim::prototype_10g_config());
  const core::CalibrationResult calib = calibrate(proto, 7, ctx);
  core::TpController controller(calib.make_pointing_solver({}, ctx),
                                core::TpConfig{});
  tracking::PoseReport report;
  // A nonsense report (VR-space origin): P must either converge to
  // something finite or count a failure — never throw.
  report.pose = geom::Pose::identity();
  const auto cmd = controller.on_report(report);
  if (cmd) {
    EXPECT_TRUE(std::isfinite(cmd->voltages.tx1));
  } else {
    EXPECT_EQ(controller.failures(), 1);
  }
}

// ---- WDM ----

TEST(WdmTest, PenaltySymmetricAroundDesignWavelength) {
  const optics::CollimatorChromatics c = optics::commodity_collimator();
  EXPECT_NEAR(c.penalty_db(c.design_wavelength_nm), 0.0, 1e-12);
  EXPECT_NEAR(c.penalty_db(c.design_wavelength_nm + 30.0),
              c.penalty_db(c.design_wavelength_nm - 30.0), 1e-12);
  EXPECT_GT(c.penalty_db(c.design_wavelength_nm + 60.0),
            c.penalty_db(c.design_wavelength_nm + 30.0));
}

TEST(WdmTest, TransceiverRates) {
  EXPECT_NEAR(optics::qsfp_lr4().total_rate_gbps(), 41.2, 1e-9);
  EXPECT_NEAR(optics::qsfp28_lr4().total_rate_gbps(), 103.2, 1e-9);
}

TEST(WdmTest, AchromatNeverWorseThanCommodity) {
  for (double loss = 5.0; loss <= 20.0; loss += 1.0) {
    const auto commodity = optics::evaluate_wdm_link(
        optics::qsfp28_lr4(), optics::commodity_collimator(), loss);
    const auto custom = optics::evaluate_wdm_link(
        optics::qsfp28_lr4(), optics::custom_achromatic_collimator(), loss);
    EXPECT_GE(custom.aggregate_rate_gbps, commodity.aggregate_rate_gbps);
  }
}

TEST(WdmTest, OuterLanesDieFirst) {
  // Find a loss where the commodity link is partially up: outer lanes
  // (1271/1331) must be the dead ones.
  for (double loss = 5.0; loss <= 20.0; loss += 0.25) {
    const auto r = optics::evaluate_wdm_link(
        optics::qsfp28_lr4(), optics::commodity_collimator(), loss);
    if (r.lanes_up > 0 && r.lanes_up < 4) {
      EXPECT_FALSE(r.lanes.front().up);
      EXPECT_FALSE(r.lanes.back().up);
      EXPECT_TRUE(r.lanes[1].up);
      return;
    }
  }
  FAIL() << "no partial-up operating point found";
}

// ---- cross-seed properties ----

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweep, Stage1RecoversManufacturedUnit) {
  const runtime::Context ctx = runtime::Context::isolated({.threads = 0});
  sim::Prototype proto =
      sim::make_prototype(GetParam(), sim::prototype_10g_config());
  util::Rng rng(GetParam() + 1);
  const galvo::GalvoMirror gm(proto.tx_galvo_truth, galvo::gvs102_spec());
  const auto samples = core::collect_board_samples(
      gm, proto.k_from_tx_gma, core::BoardConfig{}, rng, ctx);
  const auto fit = core::fit_kspace_model(
      samples, core::nominal_kspace_guess(proto.config.board_distance), {},
      ctx);
  EXPECT_LT(fit.avg_error_m, 2.5e-3);
}

TEST_P(SeedSweep, TruthModelPointingNearExhaustiveOptimum) {
  const runtime::Context ctx = runtime::Context::isolated();
  sim::PrototypeConfig config = sim::prototype_10g_config();
  config.tracker.position_noise_m = 0.0;
  config.tracker.orientation_noise_rad = 0.0;
  sim::Prototype proto = sim::make_prototype(GetParam(), config);
  const core::PointingSolver solver(
      core::GmaModel(proto.tx_galvo_truth).transformed(proto.k_from_tx_gma),
      core::GmaModel(proto.rx_galvo_truth).transformed(proto.k_from_rx_gma),
      proto.true_map_tx, proto.true_map_rx, {}, ctx);
  const core::PointingResult r = solver.solve(
      proto.tracker.ideal_report(proto.nominal_rig_pose), {});
  ASSERT_TRUE(r.converged);
  const core::ExhaustiveAligner aligner({}, ctx.pool());
  const core::AlignResult optimal = aligner.align(proto.scene, r.voltages);
  EXPECT_GT(proto.scene.received_power_dbm(r.voltages),
            optimal.power_dbm - 0.5);
}

INSTANTIATE_TEST_SUITE_P(Units, SeedSweep,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

}  // namespace
}  // namespace cyclops
