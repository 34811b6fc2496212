#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <vector>

#include "core/calibration.hpp"
#include "core/evaluation.hpp"
#include "core/kspace_calibration.hpp"
#include "galvo/factory.hpp"
#include "opt/levmar.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

namespace cyclops::core {
namespace {

// Shared fixture: calibrating is expensive, do it once per suite.
class CalibrationFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    proto_ = new sim::Prototype(
        sim::make_prototype(42, sim::prototype_10g_config()));
    util::Rng rng(7);
    const runtime::Context ctx = runtime::Context::isolated({.threads = 0});
    calib_ = new CalibrationResult(
        calibrate_prototype(*proto_, CalibrationConfig{}, rng, ctx));
  }
  static void TearDownTestSuite() {
    delete calib_;
    delete proto_;
    calib_ = nullptr;
    proto_ = nullptr;
  }

  static sim::Prototype* proto_;
  static CalibrationResult* calib_;
};

sim::Prototype* CalibrationFixture::proto_ = nullptr;
CalibrationResult* CalibrationFixture::calib_ = nullptr;

// ---- Stage 1 ----

TEST(BoardSamplingTest, CollectsInteriorGridPoints) {
  util::Rng rng(1);
  sim::Prototype proto = sim::make_prototype(3, sim::prototype_10g_config());
  const galvo::GalvoMirror gm(proto.tx_galvo_truth, galvo::gvs102_spec());
  const auto samples =
      collect_board_samples(gm, proto.k_from_tx_gma, BoardConfig{}, rng,
                            runtime::Context::isolated());
  // 19 x 14 interior points of the 20 x 15 board (§4.1: ~266).
  EXPECT_EQ(samples.size(), 266u);
}

TEST(BoardSamplingTest, VoltagesActuallyHitRecordedPoints) {
  util::Rng rng(2);
  sim::Prototype proto = sim::make_prototype(5, sim::prototype_10g_config());
  const galvo::GalvoMirror gm(proto.rx_galvo_truth, galvo::gvs102_spec());
  BoardConfig config;
  config.alignment_sigma = 0.0;  // perfect hand alignment for this check
  const auto samples = collect_board_samples(gm, proto.k_from_rx_gma, config,
                                             rng, runtime::Context::isolated());
  const GmaModel truth_in_k =
      GmaModel(gm.params()).transformed(proto.k_from_rx_gma);
  for (std::size_t i = 0; i < samples.size(); i += 37) {
    EXPECT_LT(board_error(truth_in_k, samples[i]), 0.2e-3);
  }
}

TEST_F(CalibrationFixture, Stage1ErrorsMatchTable2Band) {
  // Table 2: first-stage avg 1.24 / 1.90 mm, max 5.30 / 5.41 mm.
  EXPECT_GT(calib_->tx_stage1.avg_error_m, 0.3e-3);
  EXPECT_LT(calib_->tx_stage1.avg_error_m, 2.5e-3);
  EXPECT_LT(calib_->tx_stage1.max_error_m, 8e-3);
  EXPECT_GT(calib_->rx_stage1.avg_error_m, 0.3e-3);
  EXPECT_LT(calib_->rx_stage1.avg_error_m, 2.5e-3);
}

TEST_F(CalibrationFixture, Stage1GeneralizesToHeldOutPoints) {
  // The paper notes the 2-D board samples still pin down a general 3-D
  // model (thanks to the distortion effect).  Check: the learned model
  // predicts the physical beam on a *different* board distance.
  const GmaModel learned = calib_->tx_stage1.model;
  const GmaModel truth =
      GmaModel(proto_->tx_galvo_truth).transformed(proto_->k_from_tx_gma);
  // Compare beam hits on a plane parallel to, but well off, the training
  // board (z = 0.5 m).  Point-at-arclength comparisons would be polluted
  // by the harmless gauge freedom of sliding the origin along the beam.
  const geom::Plane test_plane{{0, 0, 0.5}, {0, 0, 1}};
  util::Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    const double v1 = rng.uniform(-4.0, 4.0);
    const double v2 = rng.uniform(-3.0, 3.0);
    const auto a = learned.trace(v1, v2);
    const auto b = truth.trace(v1, v2);
    ASSERT_TRUE(a && b);
    const auto ta = geom::intersect(*a, test_plane, false);
    const auto tb = geom::intersect(*b, test_plane, false);
    ASSERT_TRUE(ta && tb);
    // Extrapolating a full meter off the training plane costs accuracy:
    // expect sub-centimeter, not the ~1 mm seen on the board itself.
    EXPECT_LT(geom::distance(a->at(*ta), b->at(*tb)), 10e-3);
  }
}

TEST(KSpaceFitTest, RecoversExactModelFromNoiselessData) {
  util::Rng rng(11);
  sim::Prototype proto = sim::make_prototype(9, sim::prototype_10g_config());
  const galvo::GalvoMirror gm(proto.tx_galvo_truth, galvo::gvs102_spec());
  BoardConfig config;
  config.alignment_sigma = 0.0;
  const runtime::Context ctx = runtime::Context::isolated({.threads = 2});
  const auto samples =
      collect_board_samples(gm, proto.k_from_tx_gma, config, rng, ctx);
  const auto report = fit_kspace_model(
      samples, nominal_kspace_guess(proto.config.board_distance), {}, ctx);
  EXPECT_LT(report.avg_error_m, 0.1e-3);
}

TEST(KSpaceFitTest, NominalGuessStartsWorseThanFit) {
  util::Rng rng(13);
  sim::Prototype proto = sim::make_prototype(15, sim::prototype_10g_config());
  const galvo::GalvoMirror gm(proto.tx_galvo_truth, galvo::gvs102_spec());
  const runtime::Context ctx = runtime::Context::isolated({.threads = 2});
  const auto samples =
      collect_board_samples(gm, proto.k_from_tx_gma, BoardConfig{}, rng, ctx);
  const GmaModel guess = nominal_kspace_guess(proto.config.board_distance);

  double guess_error = 0.0;
  for (const auto& s : samples) guess_error += board_error(guess, s);
  guess_error /= samples.size();

  const auto report = fit_kspace_model(samples, guess, {}, ctx);
  EXPECT_LT(report.avg_error_m, guess_error / 2.0);
}

// ---- Stage-1 Jacobian probes ----

/// Table 2's TX board set (prototype 42, collected on the calibration's
/// own rng stream, as bench/table2_gma_errors does) and an unprobed LM
/// over its residual function: the reference the probed path must equal.
class KSpaceProbeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    proto_ = new sim::Prototype(
        sim::make_prototype(42, sim::prototype_10g_config()));
    util::Rng rng(42 ^ 0x9e3779b97f4a7c15ULL);
    const galvo::GalvoMirror gm(proto_->tx_galvo_truth, galvo::gvs102_spec());
    board_ = new std::vector<BoardSample>(
        collect_board_samples(gm, proto_->k_from_tx_gma, BoardConfig{}, rng,
                              runtime::Context::isolated()));
    guess_ = new GmaModel(nominal_kspace_guess(proto_->config.board_distance));
    const runtime::Context ctx = runtime::Context::isolated({.threads = 2});
    const KSpaceFitProblem problem =
        make_kspace_problem(*board_, *guess_, ctx.pool());
    opt::LmStepper stepper(problem.residuals, problem.initial, {}, ctx);
    for (int i = 0; i < 20; ++i) stepper.step();
    at_20_ = new std::vector<double>(stepper.checkpoint().params);
    unprobed_ = new opt::LevMarResult(opt::levenberg_marquardt(
        problem.residuals, problem.initial, {}, ctx));
  }
  static void TearDownTestSuite() {
    delete unprobed_;
    delete at_20_;
    delete guess_;
    delete board_;
    delete proto_;
  }

  static sim::Prototype* proto_;
  static std::vector<BoardSample>* board_;
  static GmaModel* guess_;
  static std::vector<double>* at_20_;
  static opt::LevMarResult* unprobed_;
};

sim::Prototype* KSpaceProbeTest::proto_ = nullptr;
std::vector<BoardSample>* KSpaceProbeTest::board_ = nullptr;
GmaModel* KSpaceProbeTest::guess_ = nullptr;
std::vector<double>* KSpaceProbeTest::at_20_ = nullptr;
opt::LevMarResult* KSpaceProbeTest::unprobed_ = nullptr;

/// A mirror-1 voltage at which `params`' input beam grazes mirror 1, so
/// the first leg's ray/plane intersection is degenerate: bisection on the
/// sign of x0 · n1' (mirror 1 turns edge-on near 45 V at 1 deg/V).
double grazing_v1(const std::vector<double>& params) {
  std::array<double, galvo::GalvoParams::kParamCount> packed{};
  std::copy(params.begin(), params.end(), packed.begin());
  const galvo::GalvoGeometry geometry(galvo::GalvoParams::unpack(packed));
  const auto incidence = [&](double v1) {
    return geometry.input().dir.dot(geometry.mirror1_plane(v1).normal);
  };
  double lo = 0.0, hi = 90.0;
  EXPECT_GT(incidence(lo), 0.0);
  EXPECT_LT(incidence(hi), 0.0);
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    (incidence(mid) > 0.0 ? lo : hi) = mid;
  }
  return lo;
}

bool same_bits(const double* a, const double* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(double)) == 0;
}

bool same_bits(const geom::Vec3& a, const geom::Vec3& b) {
  const double x[3] = {a.x, a.y, a.z}, y[3] = {b.x, b.y, b.z};
  return same_bits(x, y, 3);
}

bool same_ray(const std::optional<geom::Ray>& a,
              const std::optional<geom::Ray>& b) {
  if (a.has_value() != b.has_value()) return false;
  return !a || (same_bits(a->origin, b->origin) && same_bits(a->dir, b->dir));
}

GmaModel unpacked_model(std::span<const double> params) {
  std::array<double, galvo::GalvoParams::kParamCount> packed{};
  std::copy(params.begin(), params.end(), packed.begin());
  return GmaModel(galvo::GalvoParams::unpack(packed));
}

bool bitwise_equal(const opt::Matrix& a, const opt::Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      const double x = a(i, j), y = b(i, j);
      if (std::memcmp(&x, &y, sizeof(double)) != 0) return false;
    }
  }
  return true;
}

TEST_F(KSpaceProbeTest, ProbedJacobianEqualsResidualJacobianBitwise) {
  const double epsilon = opt::LevMarOptions{}.jacobian_epsilon;
  const std::vector<std::vector<double>> points{
      make_kspace_problem(*board_, *guess_, util::ThreadPool::serial()).initial,
      *at_20_, unprobed_->params};
  for (std::size_t k = 0; k < points.size(); ++k) {
    SCOPED_TRACE("base point " + std::to_string(k));
    const std::vector<double>& point = points[k];
    // The board plus a zero-voltage sample (the identity rotations) and a
    // sample whose first leg is degenerate at this point.
    std::vector<BoardSample> samples = *board_;
    samples.push_back({0.01, -0.02, 0.0, 0.0});
    samples.push_back({0.0, 0.0, grazing_v1(point), 0.3});
    const KSpaceFitProblem problem =
        make_kspace_problem(samples, *guess_, util::ThreadPool::serial());
    std::vector<double> residuals;
    problem.residuals(point, residuals);
    ASSERT_EQ(residuals[residuals.size() - 2], 1.0);
    ASSERT_EQ(residuals.back(), 1.0);
    for (const std::size_t threads : {1u, 2u, 8u}) {
      SCOPED_TRACE("pool " + std::to_string(threads));
      util::ThreadPool pool(threads);
      opt::Matrix want, got;
      opt::JacobianScratch want_scratch, got_scratch;
      opt::numeric_jacobian(problem.residuals, point, epsilon,
                            residuals.size(), want, want_scratch, pool);
      opt::numeric_jacobian(problem.probes(point), point, epsilon,
                            residuals.size(), got, got_scratch, pool);
      EXPECT_TRUE(bitwise_equal(got, want));
    }
    // Each column kind's path, sample by sample, at both central-difference
    // probes: probe_trace on the moved model equals that model's whole
    // trace, for the fitted model (whose moved model is the unpacked probe
    // point's) and for its frozen-origin twin (the origin stays frozen, so
    // every path must mount it).
    const GmaModel plain = unpacked_model(point);
    for (const GmaModel& model : {plain, plain.with_frozen_origin()}) {
      SCOPED_TRACE(model.origin_frozen() ? "frozen origin" : "plain");
      for (const BoardSample& sample : samples) {
        BaseTrace base;
        trace_base(model, sample.v1, sample.v2, base);
        ASSERT_TRUE(same_ray(
            model.second_leg(base.first_leg, {model.params().q2, base.n2},
                             base.unit2),
            model.trace(sample.v1, sample.v2)));
        for (std::size_t column = 0; column < point.size(); ++column) {
          for (const double sign : {1.0, -1.0}) {
            std::vector<double> moved = point;
            moved[column] +=
                sign * epsilon * std::max(1.0, std::abs(point[column]));
            const GmaModel probe = model.with_field(column, moved);
            const auto got = dispatch_field(column, [&](auto field) {
              return probe_trace<decltype(field)::value>(probe, base, sample);
            });
            ASSERT_TRUE(same_ray(got, probe.trace(sample.v1, sample.v2)))
                << "column " << column << " at v = (" << sample.v1 << ", "
                << sample.v2 << ")";
            if (!model.origin_frozen()) {
              ASSERT_TRUE(same_ray(
                  got, unpacked_model(moved).trace(sample.v1, sample.v2)))
                  << "column " << column;
            }
          }
        }
      }
    }
  }
}

TEST_F(KSpaceProbeTest, ResidualPassSeedsTheJacobianAtItsPoint) {
  // The residual pass keeps each sample's base trace, so probes taken at
  // the point it traced run no pool job of their own, while probes at
  // another point trace the samples themselves, one job.  Either way, and
  // for probes held across a residual pass at another point, the probed
  // Jacobian equals that of a problem that never ran a residual pass.
  const double epsilon = opt::LevMarOptions{}.jacobian_epsilon;
  std::vector<BoardSample> samples = *board_;
  samples.push_back({0.01, -0.02, 0.0, 0.0});
  samples.push_back({0.0, 0.0, grazing_v1(*at_20_), 0.3});
  const std::vector<double>& other = unprobed_->params;
  const auto jacobian = [&](const opt::ProbeFn& probes,
                            const std::vector<double>& point) {
    opt::Matrix j;
    opt::JacobianScratch scratch;
    opt::numeric_jacobian(probes, point, epsilon, 2 * samples.size(), j,
                          scratch, util::ThreadPool::serial());
    return j;
  };
  const auto unseeded = [&](const std::vector<double>& point) {
    const KSpaceFitProblem problem =
        make_kspace_problem(samples, *guess_, util::ThreadPool::serial());
    return jacobian(problem.probes(point), point);
  };
  const opt::Matrix want_at = unseeded(*at_20_);
  const opt::Matrix want_other = unseeded(other);
  for (const std::size_t threads : {3u, 8u}) {
    SCOPED_TRACE("pool " + std::to_string(threads));
    util::ThreadPool pool(threads);
    const auto jobs = [&] { return pool.stats().parallel_jobs; };
    const KSpaceFitProblem problem =
        make_kspace_problem(samples, *guess_, pool);
    std::vector<double> residuals;
    problem.residuals(*at_20_, residuals);
    std::uint64_t before = jobs();
    const opt::ProbeFn seeded = problem.probes(*at_20_);
    EXPECT_EQ(jobs(), before);
    before = jobs();
    const opt::ProbeFn traced = problem.probes(other);
    EXPECT_EQ(jobs(), before + 1);
    problem.residuals(other, residuals);
    EXPECT_TRUE(bitwise_equal(jacobian(seeded, *at_20_), want_at));
    EXPECT_TRUE(bitwise_equal(jacobian(traced, other), want_other));
    before = jobs();
    EXPECT_TRUE(bitwise_equal(jacobian(problem.probes(other), other),
                              want_other));
    EXPECT_EQ(jobs(), before);
  }
}

TEST_F(KSpaceProbeTest, FitEqualsUnprobedSolve) {
  // fit_kspace_model runs the probed LM; it must return exactly what the
  // unprobed LM over problem.residuals returns.
  const runtime::Context ctx = runtime::Context::isolated({.threads = 2});
  const KSpaceFitProblem problem =
      make_kspace_problem(*board_, *guess_, ctx.pool());
  const opt::LevMarResult probed = opt::levenberg_marquardt(
      problem.residuals, problem.initial, {}, ctx, problem.probes);
  EXPECT_EQ(probed.params, unprobed_->params);
  EXPECT_EQ(probed.initial_cost, unprobed_->initial_cost);
  EXPECT_EQ(probed.final_cost, unprobed_->final_cost);
  EXPECT_EQ(probed.iterations, unprobed_->iterations);
  EXPECT_EQ(probed.converged, unprobed_->converged);

  const KSpaceFitReport fit = fit_kspace_model(*board_, *guess_, {}, ctx);
  const KSpaceFitReport want = finish_kspace_fit(*board_, *unprobed_);
  EXPECT_EQ(fit.model.params().pack(), want.model.params().pack());
  EXPECT_EQ(fit.avg_error_m, want.avg_error_m);
  EXPECT_EQ(fit.max_error_m, want.max_error_m);
  EXPECT_EQ(fit.optimizer_iterations, want.optimizer_iterations);
  EXPECT_EQ(fit.converged, want.converged);
}

TEST_F(KSpaceProbeTest, FannedOutResidualsAndBaseTraceEqualSerialBitwise) {
  // The residual function and the probes' base-point trace fan the board
  // samples out over the problem's pool; each sample writes only its own
  // slot, so both equal the serial problem's to the bit.  The base trace
  // is read back through the probed Jacobian, computed on the serial pool
  // so that only the base trace's pool differs.
  const double epsilon = opt::LevMarOptions{}.jacobian_epsilon;
  std::vector<BoardSample> samples = *board_;
  samples.push_back({0.01, -0.02, 0.0, 0.0});
  samples.push_back({0.0, 0.0, grazing_v1(*at_20_), 0.3});
  const KSpaceFitProblem serial =
      make_kspace_problem(samples, *guess_, util::ThreadPool::serial());
  for (const std::vector<double>* point : {at_20_, &unprobed_->params}) {
    std::vector<double> want_r;
    serial.residuals(*point, want_r);
    opt::Matrix want_j;
    opt::JacobianScratch want_scratch;
    opt::numeric_jacobian(serial.probes(*point), *point, epsilon,
                          want_r.size(), want_j, want_scratch,
                          util::ThreadPool::serial());
    for (const std::size_t threads : {1u, 3u, 8u}) {
      SCOPED_TRACE("pool " + std::to_string(threads));
      util::ThreadPool pool(threads);
      const KSpaceFitProblem fanned =
          make_kspace_problem(samples, *guess_, pool);
      std::vector<double> got_r;
      fanned.residuals(*point, got_r);
      ASSERT_EQ(got_r.size(), want_r.size());
      EXPECT_EQ(std::memcmp(got_r.data(), want_r.data(),
                            want_r.size() * sizeof(double)),
                0);
      opt::Matrix got_j;
      opt::JacobianScratch got_scratch;
      opt::numeric_jacobian(fanned.probes(*point), *point, epsilon,
                            got_r.size(), got_j, got_scratch,
                            util::ThreadPool::serial());
      EXPECT_TRUE(bitwise_equal(got_j, want_j));
    }
  }
}

// ---- Stage 2 ----

TEST_F(CalibrationFixture, Stage2CollectsRequestedSamples) {
  EXPECT_GE(calib_->stage2_samples.size(), 25u);
  EXPECT_LE(calib_->stage2_samples.size(), 30u);
}

TEST_F(CalibrationFixture, Stage2ResidualIsMillimetric) {
  EXPECT_LT(calib_->mapping.avg_coincidence_m, 12e-3);
  EXPECT_GT(calib_->mapping.avg_coincidence_m, 0.1e-3);
}

TEST_F(CalibrationFixture, LearnedMappingNearTruth) {
  // The learned 6-DoF maps should land close to the hidden truth (they
  // absorb tracker noise and rig flex, so a few mm / mrad is expected).
  EXPECT_LT(geom::translation_distance(calib_->mapping.map_tx,
                                       proto_->true_map_tx),
            20e-3);
  EXPECT_LT(geom::rotation_distance(calib_->mapping.map_tx,
                                    proto_->true_map_tx),
            20e-3);
  EXPECT_LT(geom::translation_distance(calib_->mapping.map_rx,
                                       proto_->true_map_rx),
            25e-3);
}

TEST_F(CalibrationFixture, CombinedErrorsMatchTable2Band) {
  // Table 2 combined: TX 2.18 mm avg / 4.07 max; RX 4.54 avg / 6.50 max.
  util::Rng rng(23);
  const CombinedErrors errors =
      evaluate_combined_errors(*proto_, *calib_, 12, 0.15, 0.1, rng);
  ASSERT_GT(errors.tx.samples, 5);
  EXPECT_LT(errors.tx.avg_m, 8e-3);
  // Bound covers cross-seed calibration variance (typical ~2-5 mm, worst
  // draws ~12-15 mm; the paper itself reports 4.54 avg / 6.50 max).
  EXPECT_LT(errors.rx.avg_m, 20e-3);
  EXPECT_GT(errors.tx.avg_m, 0.05e-3);
}

TEST_F(CalibrationFixture, LemmaPointsCoincideAtAlignment) {
  // Lemma 1, evaluated with the learned models on real aligned tuples.
  const GmaModel tx_vr =
      calib_->tx_stage1.model.transformed(calib_->mapping.map_tx);
  for (const auto& sample : calib_->stage2_samples) {
    const GmaModel rx_vr = calib_->rx_stage1.model.transformed(
        sample.psi * calib_->mapping.map_rx);
    const sim::Voltages& v = sample.voltages;
    const LemmaPoints pts = lemma_points(tx_vr.split_trace(v.tx1, v.tx2),
                                         rx_vr.split_trace(v.rx1, v.rx2));
    ASSERT_TRUE(pts.valid);
    EXPECT_LT(pts.coincidence_error(), 25e-3);
  }
}

/// Noise-free Stage-2 data: true K-space models (no Stage-1 noise), no rig
/// flex, a perfect tracker, and 12 tuples from the exhaustive aligner.
struct PerfectStage2Data {
  sim::Prototype proto;
  GmaModel tx_k, rx_k;
  std::vector<AlignedSample> tuples;
  geom::Pose tx_guess, rx_guess;

  static sim::PrototypeConfig noiseless_config() {
    sim::PrototypeConfig config = sim::prototype_10g_config();
    config.rig_flex_position_sigma = 0.0;
    config.rig_flex_angle_sigma = 0.0;
    config.tracker.position_noise_m = 0.0;
    config.tracker.orientation_noise_rad = 0.0;
    return config;
  }

  PerfectStage2Data()
      : proto(sim::make_prototype(31, noiseless_config())),
        tx_k(GmaModel(proto.tx_galvo_truth).transformed(proto.k_from_tx_gma)),
        rx_k(GmaModel(proto.rx_galvo_truth).transformed(proto.k_from_rx_gma)) {
    util::Rng rng(37);
    util::ThreadPool pool(2);
    const ExhaustiveAligner aligner({}, pool);
    sim::Voltages hint{};
    for (int i = 0; i < 12; ++i) {
      const geom::Pose pose =
          random_rig_pose(proto.nominal_rig_pose, 0.15, 0.1, rng);
      proto.scene.set_rig_pose(pose);
      const AlignResult aligned = aligner.align(proto.scene, hint);
      if (!aligned.converged()) continue;
      hint = aligned.voltages;
      tuples.push_back({aligned.voltages, proto.tracker.report(0, pose).pose});
    }
    tx_guess = proto.true_map_tx *
               geom::Pose{geom::Mat3::rotation({0, 0, 1}, 0.02),
                          {0.01, -0.01, 0.02}};
    rx_guess = proto.true_map_rx *
               geom::Pose{geom::Mat3::rotation({1, 0, 0}, -0.02),
                          {-0.01, 0.01, 0.01}};
  }
};

TEST(MappingFitTest, PerfectDataRecoversMapping) {
  // Synthetic check with zero noise anywhere: Stage 2 must recover the
  // exact mapping poses.
  const PerfectStage2Data data;
  ASSERT_EQ(data.tuples.size(), 12u);
  const runtime::Context ctx = runtime::Context::isolated({.threads = 2});
  const MappingFitReport report =
      fit_mapping(data.tx_k, data.rx_k, data.tuples, data.tx_guess,
                  data.rx_guess, {}, ctx);

  EXPECT_LT(report.avg_coincidence_m, 1e-3);
  EXPECT_LT(geom::translation_distance(report.map_tx, data.proto.true_map_tx),
            3e-3);
  EXPECT_LT(geom::rotation_distance(report.map_tx, data.proto.true_map_tx),
            3e-3);
}

// ---- Stage-2 residual oracles ----
//
// Production residuals re-pose a per-fit K-space trace of each sample.
// The references below are the VR-frame formulation they replaced: move
// the K-space models by the candidate maps, then re-trace every sample.

geom::Pose pose_at(std::span<const double> params, std::size_t offset) {
  std::array<double, 6> p{};
  std::copy(params.begin() + offset, params.begin() + offset + 6, p.begin());
  return geom::Pose::from_params(p);
}

void reference_mapping_residuals(const GmaModel& tx_k, const GmaModel& rx_k,
                                 const std::vector<AlignedSample>& samples,
                                 std::span<const double> params,
                                 std::vector<double>& residuals) {
  const geom::Pose map_rx = pose_at(params, 6);
  const GmaModel tx_vr = tx_k.transformed(pose_at(params, 0));
  residuals.resize(samples.size() * 6);
  for (std::size_t s = 0; s < samples.size(); ++s) {
    const GmaModel rx_vr = rx_k.transformed(samples[s].psi * map_rx);
    const sim::Voltages& v = samples[s].voltages;
    const LemmaPoints pts = lemma_points(tx_vr.split_trace(v.tx1, v.tx2),
                                         rx_vr.split_trace(v.rx1, v.rx2));
    double* r = residuals.data() + 6 * s;
    if (!pts.valid) {
      std::fill(r, r + 6, 1.0);
      continue;
    }
    const geom::Vec3 d1 = pts.tau_r - pts.p_t;
    const geom::Vec3 d2 = pts.tau_t - pts.p_r;
    r[0] = d1.x; r[1] = d1.y; r[2] = d1.z;
    r[3] = d2.x; r[4] = d2.y; r[5] = d2.z;
  }
}

void reference_blind_tx_residuals(const GmaModel& tx_k,
                                  const std::vector<AlignedSample>& samples,
                                  std::span<const double> params,
                                  std::vector<double>& residuals) {
  const GmaModel tx_vr = tx_k.transformed(pose_at(params, 0));
  residuals.resize(samples.size());
  for (std::size_t s = 0; s < samples.size(); ++s) {
    const auto ray =
        tx_vr.trace(samples[s].voltages.tx1, samples[s].voltages.tx2);
    residuals[s] =
        ray ? geom::line_point_distance(*ray, samples[s].psi.translation())
            : 2.0;
  }
}

/// The guess plus 20 seeded perturbations of it (5 cm / 50 mrad scale).
std::vector<std::vector<double>> probe_points(const std::vector<double>& guess) {
  std::vector<std::vector<double>> points{guess};
  util::Rng rng(2024);
  for (int i = 0; i < 20; ++i) {
    std::vector<double> p = guess;
    for (double& x : p) x += rng.normal(0.0, 0.05);
    points.push_back(std::move(p));
  }
  return points;
}

/// Asserts component-wise agreement within 1e-12 m at every probe point;
/// returns the largest residual magnitude seen (so callers can check the
/// comparison was not vacuous).
double expect_residuals_match(const opt::ResidualFn& production,
                              const opt::ResidualFn& reference,
                              const std::vector<double>& guess) {
  double largest = 0.0;
  std::vector<double> got, want;
  for (const auto& point : probe_points(guess)) {
    production(point, got);
    reference(point, want);
    EXPECT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
      EXPECT_NEAR(got[i], want[i], 1e-12) << "residual " << i;
      largest = std::max(largest, std::abs(want[i]));
    }
  }
  return largest;
}

TEST(MappingResidualOracleTest, Stage2MatchesVrFrameRetrace) {
  const PerfectStage2Data data;
  ASSERT_EQ(data.tuples.size(), 12u);
  const MappingFitProblem problem = make_mapping_problem(
      data.tx_k, data.rx_k, data.tuples, data.tx_guess, data.rx_guess);
  const opt::ResidualFn reference = [&](std::span<const double> p,
                                        std::vector<double>& r) {
    reference_mapping_residuals(data.tx_k, data.rx_k, data.tuples, p, r);
  };
  EXPECT_GT(expect_residuals_match(problem.residuals, reference,
                                   problem.initial),
            0.05);
}

TEST(MappingResidualOracleTest, BlindPhaseAMatchesVrFrameRetrace) {
  const PerfectStage2Data data;
  ASSERT_EQ(data.tuples.size(), 12u);
  const opt::ResidualFn production =
      make_blind_tx_residuals(data.tx_k, data.tuples);
  const opt::ResidualFn reference = [&](std::span<const double> p,
                                        std::vector<double>& r) {
    reference_blind_tx_residuals(data.tx_k, data.tuples, p, r);
  };
  const auto guess = data.tx_guess.params();
  EXPECT_GT(expect_residuals_match(production, reference,
                                   {guess.begin(), guess.end()}),
            0.05);
}

TEST(MappingResidualOracleTest, FitMatchesSolveOnVrFrameRetrace) {
  const PerfectStage2Data data;
  ASSERT_EQ(data.tuples.size(), 12u);
  const runtime::Context ctx = runtime::Context::isolated({.threads = 2});
  const MappingFitReport report =
      fit_mapping(data.tx_k, data.rx_k, data.tuples, data.tx_guess,
                  data.rx_guess, {}, ctx);
  const opt::ResidualFn reference = [&](std::span<const double> p,
                                        std::vector<double>& r) {
    reference_mapping_residuals(data.tx_k, data.rx_k, data.tuples, p, r);
  };
  const opt::LevMarResult solve = opt::levenberg_marquardt(
      reference,
      make_mapping_problem(data.tx_k, data.rx_k, data.tuples, data.tx_guess,
                           data.rx_guess)
          .initial,
      {}, ctx);
  const geom::Pose ref_tx = pose_at(solve.params, 0);
  const geom::Pose ref_rx = pose_at(solve.params, 6);
  EXPECT_LT(geom::translation_distance(report.map_tx, ref_tx), 1e-6);
  EXPECT_LT(geom::rotation_distance(report.map_tx, ref_tx), 1e-6);
  EXPECT_LT(geom::translation_distance(report.map_rx, ref_rx), 1e-6);
  EXPECT_LT(geom::rotation_distance(report.map_rx, ref_rx), 1e-6);
}

// ---- Stage-2 Jacobian probes ----

/// PerfectStage2Data's tuples plus two degenerate samples, and an unprobed
/// LM over them: the reference the probed path must equal.  One sample has
/// no K-space trace (the TX input beam grazes mirror 1); the other has
/// Lemma-1 points that are invalid at any parameters (a tracker report
/// with a zero rotation collapses the RX beam and mirror-2 normal, so the
/// TX beam cannot hit that plane).
class MappingProbeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_ = new PerfectStage2Data;
    samples_ = new std::vector<AlignedSample>(data_->tuples);
    const auto tx = data_->tx_k.params().pack();
    samples_->push_back(
        {{grazing_v1({tx.begin(), tx.end()}), 0.3, 0.0, 0.0},
         data_->tuples[0].psi});
    samples_->push_back(
        {data_->tuples[1].voltages,
         geom::Pose{geom::Mat3::zero(), data_->tuples[1].psi.translation()}});
    const MappingFitProblem problem = make();
    const runtime::Context ctx = runtime::Context::isolated({.threads = 2});
    opt::LmStepper stepper(problem.residuals, problem.initial, {}, ctx);
    for (int i = 0; i < 3; ++i) stepper.step();
    mid_fit_ = new std::vector<double>(stepper.checkpoint().params);
    unprobed_ = new opt::LevMarResult(opt::levenberg_marquardt(
        problem.residuals, problem.initial, {}, ctx));
  }
  static void TearDownTestSuite() {
    delete unprobed_;
    delete mid_fit_;
    delete samples_;
    delete data_;
  }

  static MappingFitProblem make() {
    return make_mapping_problem(data_->tx_k, data_->rx_k, *samples_,
                                data_->tx_guess, data_->rx_guess);
  }

  static PerfectStage2Data* data_;
  static std::vector<AlignedSample>* samples_;
  static std::vector<double>* mid_fit_;
  static opt::LevMarResult* unprobed_;
};

PerfectStage2Data* MappingProbeTest::data_ = nullptr;
std::vector<AlignedSample>* MappingProbeTest::samples_ = nullptr;
std::vector<double>* MappingProbeTest::mid_fit_ = nullptr;
opt::LevMarResult* MappingProbeTest::unprobed_ = nullptr;

TEST_F(MappingProbeTest, ProbedJacobianEqualsResidualJacobianBitwise) {
  ASSERT_EQ(data_->tuples.size(), 12u);
  ASSERT_GT(unprobed_->iterations, 3);
  const double epsilon = opt::LevMarOptions{}.jacobian_epsilon;
  const MappingFitProblem problem = make();
  const std::vector<std::vector<double>> points{problem.initial, *mid_fit_,
                                                unprobed_->params};
  for (std::size_t k = 0; k < points.size(); ++k) {
    SCOPED_TRACE("base point " + std::to_string(k));
    const std::vector<double>& point = points[k];
    std::vector<double> residuals;
    problem.residuals(point, residuals);
    ASSERT_EQ(residuals.size(), 6 * samples_->size());
    for (std::size_t i = residuals.size() - 12; i < residuals.size(); ++i) {
      ASSERT_EQ(residuals[i], 1.0) << "residual " << i;
    }
    for (const std::size_t threads : {1u, 2u, 8u}) {
      SCOPED_TRACE("pool " + std::to_string(threads));
      util::ThreadPool pool(threads);
      opt::Matrix want, got;
      opt::JacobianScratch want_scratch, got_scratch;
      opt::numeric_jacobian(problem.residuals, point, epsilon,
                            residuals.size(), want, want_scratch, pool);
      opt::numeric_jacobian(problem.probes(point), point, epsilon,
                            residuals.size(), got, got_scratch, pool);
      EXPECT_TRUE(bitwise_equal(got, want));
    }
  }
}

TEST_F(MappingProbeTest, FitEqualsUnprobedSolve) {
  // fit_mapping runs the probed LM; it must return exactly what the
  // unprobed LM over problem.residuals, then finish_mapping_fit, return.
  const runtime::Context ctx = runtime::Context::isolated({.threads = 2});
  const MappingFitProblem problem = make();
  const opt::LevMarResult probed = opt::levenberg_marquardt(
      problem.residuals, problem.initial, {}, ctx, problem.probes);
  EXPECT_EQ(probed.params, unprobed_->params);
  EXPECT_EQ(probed.initial_cost, unprobed_->initial_cost);
  EXPECT_EQ(probed.final_cost, unprobed_->final_cost);
  EXPECT_EQ(probed.iterations, unprobed_->iterations);
  EXPECT_EQ(probed.converged, unprobed_->converged);

  const MappingFitReport fit =
      fit_mapping(data_->tx_k, data_->rx_k, *samples_, data_->tx_guess,
                  data_->rx_guess, {}, ctx);
  const MappingFitReport want =
      finish_mapping_fit(data_->tx_k, data_->rx_k, *samples_, *unprobed_);
  const auto pose_bits = [](const geom::Pose& p) {
    const geom::Mat3& r = p.rotation();
    const geom::Vec3& t = p.translation();
    return std::array<double, 12>{r.m[0][0], r.m[0][1], r.m[0][2], r.m[1][0],
                                  r.m[1][1], r.m[1][2], r.m[2][0], r.m[2][1],
                                  r.m[2][2], t.x,       t.y,       t.z};
  };
  EXPECT_EQ(pose_bits(fit.map_tx), pose_bits(want.map_tx));
  EXPECT_EQ(pose_bits(fit.map_rx), pose_bits(want.map_rx));
  EXPECT_EQ(fit.avg_coincidence_m, want.avg_coincidence_m);
  EXPECT_EQ(fit.max_coincidence_m, want.max_coincidence_m);
  EXPECT_EQ(fit.optimizer_iterations, want.optimizer_iterations);
  EXPECT_EQ(fit.converged, want.converged);
}

}  // namespace
}  // namespace cyclops::core
