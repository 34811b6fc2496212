#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "core/calibration.hpp"
#include "core/evaluation.hpp"
#include "core/exhaustive_aligner.hpp"
#include "core/pointing.hpp"
#include "core/tp_controller.hpp"
#include "galvo/factory.hpp"
#include "pointing_reference.hpp"
#include "util/units.hpp"

namespace cyclops::core {
namespace {

/// A pointing solver built from ground truth (no learning noise): isolates
/// the P algorithm itself from calibration quality.
PointingSolver truth_solver(const sim::Prototype& proto,
                            const runtime::Context& ctx) {
  return truth_calibration(proto).make_pointing_solver({}, ctx);
}

class PointingFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::PrototypeConfig config = sim::prototype_10g_config();
    // Noise-free tracker isolates the algorithmic properties.
    config.tracker.position_noise_m = 0.0;
    config.tracker.orientation_noise_rad = 0.0;
    config.rig_flex_position_sigma = 0.0;
    config.rig_flex_angle_sigma = 0.0;
    proto_ = new sim::Prototype(sim::make_prototype(42, config));
    ctx_ = new runtime::Context(runtime::Context::isolated());
    solver_ = new PointingSolver(truth_solver(*proto_, *ctx_));
  }
  static void TearDownTestSuite() {
    delete solver_;
    delete ctx_;
    delete proto_;
    solver_ = nullptr;
    ctx_ = nullptr;
    proto_ = nullptr;
  }
  static sim::Prototype* proto_;
  static runtime::Context* ctx_;
  static PointingSolver* solver_;
};

sim::Prototype* PointingFixture::proto_ = nullptr;
runtime::Context* PointingFixture::ctx_ = nullptr;
PointingSolver* PointingFixture::solver_ = nullptr;

TEST_F(PointingFixture, ConvergesInTwoToFiveIterations) {
  // §4.3: "the above converged in 2-5 iterations".
  util::Rng rng(1);
  for (int i = 0; i < 30; ++i) {
    const geom::Pose pose =
        random_rig_pose(proto_->nominal_rig_pose, 0.15, 0.1, rng);
    proto_->scene.set_rig_pose(pose);
    const geom::Pose psi = proto_->tracker.ideal_report(pose);
    const PointingResult r = solver_->solve(psi, {});
    ASSERT_TRUE(r.converged);
    EXPECT_GE(r.iterations, 1);
    EXPECT_LE(r.iterations, 6);
  }
}

TEST_F(PointingFixture, TruthModelsReachNearPeakPower) {
  // With perfect models and tracking, P must align essentially optimally.
  util::Rng rng(2);
  util::ThreadPool pool(2);
  const ExhaustiveAligner aligner({}, pool);
  for (int i = 0; i < 8; ++i) {
    const geom::Pose pose =
        random_rig_pose(proto_->nominal_rig_pose, 0.12, 0.08, rng);
    proto_->scene.set_rig_pose(pose);
    const PointingResult r =
        solver_->solve(proto_->tracker.ideal_report(pose), {});
    ASSERT_TRUE(r.converged);
    const double tp_power = proto_->scene.received_power_dbm(r.voltages);
    const AlignResult optimal = aligner.align(proto_->scene, r.voltages);
    EXPECT_GT(tp_power, optimal.power_dbm - 1.0);
  }
  proto_->scene.set_rig_pose(proto_->nominal_rig_pose);
}

TEST_F(PointingFixture, LemmaOneFixedPointMaximizesPower) {
  // Lemma 1 as a property: perturbing any single voltage away from the
  // P fixed point can only lose power.
  proto_->scene.set_rig_pose(proto_->nominal_rig_pose);
  const PointingResult r = solver_->solve(
      proto_->tracker.ideal_report(proto_->nominal_rig_pose), {});
  ASSERT_TRUE(r.converged);
  const double at_fixed_point =
      proto_->scene.received_power_dbm(r.voltages);

  for (const double delta : {-0.1, 0.1}) {
    for (int axis = 0; axis < 4; ++axis) {
      sim::Voltages v = r.voltages;
      (axis == 0   ? v.tx1
       : axis == 1 ? v.tx2
       : axis == 2 ? v.rx1
                   : v.rx2) += delta;
      EXPECT_LT(proto_->scene.received_power_dbm(v), at_fixed_point + 0.05);
    }
  }
}

TEST_F(PointingFixture, ModelResidualTinyWithTruthModels) {
  const PointingResult r = solver_->solve(
      proto_->tracker.ideal_report(proto_->nominal_rig_pose), {});
  ASSERT_TRUE(r.converged);
  EXPECT_LT(r.model_residual_m, 1e-4);
}

TEST_F(PointingFixture, WarmStartSpeedsConvergence) {
  const geom::Pose psi =
      proto_->tracker.ideal_report(proto_->nominal_rig_pose);
  const PointingResult cold = solver_->solve(psi, {});
  const PointingResult warm = solver_->solve(psi, cold.voltages);
  ASSERT_TRUE(warm.converged);
  EXPECT_LE(warm.iterations, cold.iterations);
}

TEST_F(PointingFixture, TracksSmallPoseChanges) {
  // Small rig motion -> small voltage updates (continuity of P).
  const geom::Pose a = proto_->nominal_rig_pose;
  const geom::Pose b{
      geom::Mat3::rotation({1, 0, 0}, 2e-3) * a.rotation(),
      a.translation() + geom::Vec3{1e-3, 0, 0}};
  const PointingResult ra = solver_->solve(proto_->tracker.ideal_report(a), {});
  const PointingResult rb =
      solver_->solve(proto_->tracker.ideal_report(b), ra.voltages);
  ASSERT_TRUE(ra.converged && rb.converged);
  EXPECT_LT(std::abs(ra.voltages.tx1 - rb.voltages.tx1), 0.3);
  EXPECT_LT(std::abs(ra.voltages.rx1 - rb.voltages.rx1), 0.3);
}

TEST_F(PointingFixture, MatchesReferenceLoopBitwise) {
  // The solver hands each G' the trace it already holds and takes back
  // G''s trace at the answer; the reference traces both sides afresh every
  // iteration.  Truth and perturbed models, cold and warm starts, and
  // solves that converge, hit the iteration limit, or halt on an
  // unconverged G'.
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  util::Rng rng(37);
  int converged = 0, at_limit = 0, halted = 0;
  for (int i = 0; i < 220; ++i) {
    PointingOptions options;
    options.max_iterations = 1 + static_cast<int>(rng.uniform_index(3)) * 4;
    options.gprime.max_iterations = i % 5 == 0 ? 1 : 12;
    galvo::GalvoParams tx = proto_->tx_galvo_truth;
    galvo::GalvoParams rx = proto_->rx_galvo_truth;
    if (i % 2 == 1) {
      tx = galvo::perturbed_params(tx, {}, rng);
      rx = galvo::perturbed_params(rx, {}, rng);
    }
    const PointingSolver solver(
        GmaModel(tx).transformed(proto_->k_from_tx_gma),
        GmaModel(rx).transformed(proto_->k_from_rx_gma), proto_->true_map_tx,
        proto_->true_map_rx, options, *ctx_);
    const geom::Pose psi = proto_->tracker.ideal_report(
        random_rig_pose(proto_->nominal_rig_pose, 0.3, 0.2, rng));
    const sim::Voltages hint =
        i % 3 == 0 ? sim::Voltages{}
                   : sim::Voltages{rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0),
                                   rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)};

    const PointingResult got = solver.solve(psi, hint);
    const PointingResult want =
        reference_pointing(solver.tx_vr(), solver.rx_vr(psi), hint, options);
    EXPECT_EQ(bits(got.voltages.tx1), bits(want.voltages.tx1)) << "case " << i;
    EXPECT_EQ(bits(got.voltages.tx2), bits(want.voltages.tx2)) << "case " << i;
    EXPECT_EQ(bits(got.voltages.rx1), bits(want.voltages.rx1)) << "case " << i;
    EXPECT_EQ(bits(got.voltages.rx2), bits(want.voltages.rx2)) << "case " << i;
    EXPECT_EQ(got.iterations, want.iterations) << "case " << i;
    EXPECT_EQ(got.converged, want.converged) << "case " << i;
    EXPECT_EQ(bits(got.model_residual_m), bits(want.model_residual_m))
        << "case " << i;

    if (want.converged) {
      ++converged;
    } else if (want.iterations == options.max_iterations) {
      ++at_limit;
    } else {
      ++halted;
    }
  }
  EXPECT_GT(converged, 0);
  EXPECT_GT(at_limit, 0);
  EXPECT_GT(halted, 0);
}

// ---- TpController ----

TEST_F(PointingFixture, ControllerSchedulesWithLatency) {
  TpConfig config;
  TpController controller(*solver_, config);
  tracking::PoseReport report;
  report.capture_time = 100000;
  report.delivery_time = 100500;
  report.pose = proto_->tracker.ideal_report(proto_->nominal_rig_pose);
  const auto cmd = controller.on_report(report);
  ASSERT_TRUE(cmd.has_value());
  // Applied after delivery + DAQ latency + settle + compute: ~1.85 ms.
  const double latency_ms = util::us_to_ms(cmd->apply_time - 100500);
  EXPECT_GT(latency_ms, 1.0);
  EXPECT_LT(latency_ms, 2.5);
}

TEST_F(PointingFixture, ControllerQuantizesVoltages) {
  TpConfig config;
  TpController controller(*solver_, config);
  tracking::PoseReport report;
  report.pose = proto_->tracker.ideal_report(proto_->nominal_rig_pose);
  const auto cmd = controller.on_report(report);
  ASSERT_TRUE(cmd.has_value());
  const double step = config.daq.quantization_step;
  EXPECT_NEAR(std::fmod(std::abs(cmd->voltages.tx1), step), 0.0, 1e-9);
  EXPECT_NEAR(std::fmod(std::abs(cmd->voltages.rx2), step), 0.0, 1e-9);
}

TEST_F(PointingFixture, ControllerCountsReportsAndIterations) {
  TpController controller(*solver_, TpConfig{});
  tracking::PoseReport report;
  report.pose = proto_->tracker.ideal_report(proto_->nominal_rig_pose);
  for (int i = 0; i < 5; ++i) controller.on_report(report);
  EXPECT_EQ(controller.reports_handled(), 5);
  EXPECT_EQ(controller.failures(), 0);
  EXPECT_GT(controller.avg_pointing_iterations(), 0.9);
  EXPECT_LT(controller.avg_pointing_iterations(), 6.0);
}

TEST(TpConfigTest, PointingLatencyInPaperBand) {
  // §5.2: pointing latency ~1-2 ms, dominated by the DAQ.
  const TpConfig config;
  EXPECT_GT(config.pointing_latency_s(), 1e-3);
  EXPECT_LT(config.pointing_latency_s(), 2.5e-3);
}

// ---- learned-pipeline pointing accuracy (§5.2 lock tests) ----

TEST(LockTest, LearnedPipelineAchievesOptimalThroughputPower) {
  // The §5.2 experiment: 10 random lock tests; TP must restore optimal
  // throughput with power a few dB below the exhaustive optimum.
  sim::Prototype proto = sim::make_prototype(42, sim::prototype_10g_config());
  util::Rng rng(7);
  const runtime::Context ctx = runtime::Context::isolated({.threads = 0});
  const CalibrationResult calib =
      calibrate_prototype(proto, CalibrationConfig{}, rng, ctx);
  const PointingSolver solver = calib.make_pointing_solver({}, ctx);

  const auto samples =
      run_lock_tests(proto, solver, 10, 0.12, 0.08, rng, ctx.pool());
  ASSERT_EQ(samples.size(), 10u);
  int up = 0;
  for (const auto& s : samples) {
    if (s.link_up) ++up;
    // Power within a few dB of optimal (the paper saw -13/-14 vs -10).
    EXPECT_GT(s.power_dbm, s.optimal_power_dbm - 8.0);
  }
  EXPECT_EQ(up, 10);  // all 10 tests restore the link
}

}  // namespace
}  // namespace cyclops::core
