// Bit-exactness of the iteration-granular LM stepper (opt::LmStepper)
// against the one-shot levenberg_marquardt adapter, on the two real fit
// problems of the calibration pipeline (the conv_pointing rig, seed 42):
//
//   * Stage-1 K-space fit (25 GalvoParams from board samples);
//   * Stage-2 mapping fit (12 pose parameters from aligned tuples).
//
// The contract under test (cal/engine.hpp's determinism contract):
// interrupting the solve at ANY iteration boundary, checkpointing, and
// resuming in a fresh stepper produces bit-identical parameters, costs,
// and iteration counts — at driver pools of 1, 2, and 8 threads (the
// column-parallel Jacobian is bit-identical at any width).
#include <cstdint>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "cal/checkpoint.hpp"
#include "core/calibration.hpp"
#include "core/kspace_calibration.hpp"
#include "core/mapping_calibration.hpp"
#include "core/pointing.hpp"
#include "galvo/galvo_mirror.hpp"
#include "opt/levmar.hpp"
#include "runtime/context.hpp"
#include "sim/prototype.hpp"
#include "util/rng.hpp"

using namespace cyclops;

namespace {

constexpr std::uint64_t kRigSeed = 42;  // conv_pointing's rig seed.

opt::LevMarOptions tight_options() {
  opt::LevMarOptions options;
  options.max_iterations = 25;  // Bounds the O(iters^2) resume sweep.
  return options;
}

void expect_result_eq(const opt::LevMarResult& a, const opt::LevMarResult& b) {
  ASSERT_EQ(a.params.size(), b.params.size());
  for (std::size_t i = 0; i < a.params.size(); ++i) {
    EXPECT_EQ(a.params[i], b.params[i]) << "param " << i;
  }
  EXPECT_EQ(a.initial_cost, b.initial_cost);
  EXPECT_EQ(a.final_cost, b.final_cost);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.converged, b.converged);
}

/// A small (but real) Stage-1 problem: board collection against the truth
/// TX galvo on a reduced grid.  The samples are owned by the fixture
/// because the problem's residual fn captures them by reference.
struct Stage1Problem {
  std::vector<core::BoardSample> samples;
  core::GmaModel guess;

  explicit Stage1Problem(const sim::Prototype& proto)
      : guess(core::nominal_kspace_guess(proto.config.board_distance)) {
    core::BoardConfig board;
    board.cells_x = 8;
    board.cells_y = 6;
    util::Rng rng(kRigSeed);
    const galvo::GalvoMirror gm(proto.tx_galvo_truth, galvo::gvs102_spec());
    samples = core::collect_board_samples(gm, proto.k_from_tx_gma, board, rng,
                                          runtime::Context::isolated());
  }

  core::KSpaceFitProblem make(util::ThreadPool& pool) const {
    return core::make_kspace_problem(samples, guess, pool);
  }
};

/// A small Stage-2 problem: aligned tuples synthesized from the truth
/// calibration (the pointing solver at a known pose yields the aligned
/// voltages), fit from deliberately-perturbed guesses.
struct Stage2Problem {
  core::GmaModel tx_kspace, rx_kspace;
  std::vector<core::AlignedSample> samples;
  geom::Pose tx_guess, rx_guess;

  explicit Stage2Problem(sim::Prototype& proto)
      : tx_kspace(core::GmaModel(proto.tx_galvo_truth)
                      .transformed(proto.k_from_tx_gma)),
        rx_kspace(core::GmaModel(proto.rx_galvo_truth)
                      .transformed(proto.k_from_rx_gma)) {
    // Perfectly-aligned tuples by construction: P(psi) under the truth
    // models/maps IS the aligned voltage set for report psi — no scene or
    // aligner needed.
    const runtime::Context ctx = runtime::Context::isolated();
    const core::PointingSolver solver(tx_kspace, rx_kspace, proto.true_map_tx,
                                      proto.true_map_rx, {}, ctx);
    util::Rng rng(kRigSeed + 1);
    for (int i = 0; i < 10; ++i) {
      const geom::Pose psi =
          core::random_rig_pose(proto.nominal_rig_pose, 0.15, 0.08, rng);
      const core::PointingResult aligned = solver.solve(psi, {});
      if (!aligned.converged) continue;
      samples.push_back({aligned.voltages, psi});
    }
    tx_guess = core::random_pose_error(rng, 0.03, 0.05) * proto.true_map_tx;
    rx_guess = core::random_pose_error(rng, 0.03, 0.05) * proto.true_map_rx;
  }

  core::MappingFitProblem make() const {
    return core::make_mapping_problem(tx_kspace, rx_kspace, samples, tx_guess,
                                      rx_guess);
  }
};

/// The sweep under test: for every iteration boundary k of the one-shot
/// solve, run a stepper k iterations, checkpoint, resume a FRESH stepper
/// from the checkpoint, finish, and compare bitwise with the reference.
/// `probes` (the problem's own, as the engine passes them) evaluates
/// every Jacobian of all three solves.
void sweep_every_boundary(const opt::ResidualFn& fn,
                          const std::vector<double>& initial,
                          const runtime::Context& ctx,
                          const opt::ProbeFactory& probes = {}) {
  const opt::LevMarOptions options = tight_options();
  const opt::LevMarResult reference =
      opt::levenberg_marquardt(fn, initial, options, ctx, probes);
  ASSERT_GT(reference.iterations, 2) << "problem too easy to exercise resume";

  for (int k = 0; k <= reference.iterations; ++k) {
    SCOPED_TRACE("interrupt after iteration " + std::to_string(k));
    opt::LmStepper first(fn, initial, options, ctx, probes);
    for (int i = 0; i < k; ++i) first.step();
    const opt::LmCheckpoint cp = first.checkpoint();
    EXPECT_EQ(cp.iterations, k);

    opt::LmStepper resumed(fn, cp, options, ctx, probes);
    while (resumed.step()) {
    }
    expect_result_eq(reference, resumed.result());
  }
}

class CalLmResumeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    proto_ = new sim::Prototype(
        sim::make_prototype(kRigSeed, sim::prototype_10g_config()));
    stage1_ = new Stage1Problem(*proto_);
    stage2_ = new Stage2Problem(*proto_);
  }
  static void TearDownTestSuite() {
    delete stage2_;
    delete stage1_;
    delete proto_;
    stage2_ = nullptr;
    stage1_ = nullptr;
    proto_ = nullptr;
  }

  static sim::Prototype* proto_;
  static Stage1Problem* stage1_;
  static Stage2Problem* stage2_;
};

sim::Prototype* CalLmResumeTest::proto_ = nullptr;
Stage1Problem* CalLmResumeTest::stage1_ = nullptr;
Stage2Problem* CalLmResumeTest::stage2_ = nullptr;

TEST_F(CalLmResumeTest, Stage1ResumesBitExactAtEveryBoundary) {
  for (const std::size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("pool " + std::to_string(threads));
    const runtime::Context ctx =
        runtime::Context::isolated({runtime::Context::kDefaultSeed, threads});
    const core::KSpaceFitProblem problem = stage1_->make(ctx.pool());
    sweep_every_boundary(problem.residuals, problem.initial, ctx,
                         problem.probes);
  }
}

TEST_F(CalLmResumeTest, Stage2ResumesBitExactAtEveryBoundary) {
  ASSERT_GE(stage2_->samples.size(), 6u);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("pool " + std::to_string(threads));
    const runtime::Context ctx =
        runtime::Context::isolated({runtime::Context::kDefaultSeed, threads});
    const core::MappingFitProblem problem = stage2_->make();
    sweep_every_boundary(problem.residuals, problem.initial, ctx,
                         problem.probes);
  }
}

TEST_F(CalLmResumeTest, ResultIsPoolWidthInvariant) {
  // Each Jacobian column, normal-matrix tile and board sample writes only
  // its own slot, so the fit is bit-identical at any pool width — 1, 2,
  // and 8 must agree exactly.
  const runtime::Context ctx1 =
      runtime::Context::isolated({runtime::Context::kDefaultSeed, 1});
  const core::KSpaceFitProblem serial = stage1_->make(ctx1.pool());
  const opt::LevMarResult reference =
      opt::levenberg_marquardt(serial.residuals, serial.initial,
                               tight_options(), ctx1);
  for (const std::size_t threads : {2u, 8u}) {
    const runtime::Context ctx =
        runtime::Context::isolated({runtime::Context::kDefaultSeed, threads});
    const core::KSpaceFitProblem problem = stage1_->make(ctx.pool());
    expect_result_eq(reference,
                     opt::levenberg_marquardt(problem.residuals,
                                              problem.initial, tight_options(),
                                              ctx));
  }
}

TEST_F(CalLmResumeTest, CheckpointSurvivesFileRoundTrip) {
  // The LM state rides inside the engine checkpoint file; an interrupted
  // fit must continue bit-exactly from the parsed-back text form.
  const runtime::Context ctx =
      runtime::Context::isolated({runtime::Context::kDefaultSeed, 2});
  const core::KSpaceFitProblem problem = stage1_->make(ctx.pool());
  const opt::LevMarResult reference = opt::levenberg_marquardt(
      problem.residuals, problem.initial, tight_options(), ctx);

  opt::LmStepper first(problem.residuals, problem.initial, tight_options(),
                       ctx);
  for (int i = 0; i < reference.iterations / 2; ++i) first.step();

  cal::EngineCheckpoint carrier;
  carrier.lm = first.checkpoint();
  std::ostringstream out;
  cal::write_engine_checkpoint(out, carrier);
  std::istringstream in(out.str());
  const cal::EngineCheckpoint back = cal::read_engine_checkpoint(in);
  ASSERT_TRUE(back.lm.has_value());

  opt::LmStepper resumed(problem.residuals, *back.lm, tight_options(), ctx);
  while (resumed.step()) {
  }
  expect_result_eq(reference, resumed.result());
}

}  // namespace
