// The resumable calibration engine's equivalence contracts
// (cal/engine.hpp): however the steps are sliced — one-shot adapter,
// direct while(step()), chunked stepping, or a checkpoint/file/restore
// cycle mid-flight — the CalibrationResult and the caller-visible RNG
// stream are bit-identical.  Twin prototypes from the same seed make the runs
// independent while keeping every draw comparable.
#include <cstdint>
#include <sstream>

#include <gtest/gtest.h>

#include "cal/checkpoint.hpp"
#include "cal/engine.hpp"
#include "core/calibration.hpp"
#include "sim/prototype.hpp"
#include "util/rng.hpp"

using namespace cyclops;

namespace {

constexpr std::uint64_t kSeed = 777;

/// Small but complete pipeline: a reduced board grid and Stage-2 sample
/// count keep the full calibration in test-suite time while still
/// crossing every phase boundary.
core::CalibrationConfig small_config() {
  core::CalibrationConfig config;
  config.board.cells_x = 8;
  config.board.cells_y = 6;
  config.stage2_samples = 6;
  // The reduced board rarely reaches the 1e-12 relative-cost tolerance;
  // cap the iteration budget — equivalence, not convergence, is under
  // test, and a bounded budget keeps every twin run fast.
  config.stage1_options.max_iterations = 60;
  return config;
}

sim::Prototype make_proto() {
  return sim::make_prototype(kSeed, sim::prototype_10g_config());
}

void expect_pose_eq(const geom::Pose& a, const geom::Pose& b) {
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      EXPECT_EQ(a.rotation().m[i][j], b.rotation().m[i][j]);
    }
  }
  EXPECT_EQ(a.translation().x, b.translation().x);
  EXPECT_EQ(a.translation().y, b.translation().y);
  EXPECT_EQ(a.translation().z, b.translation().z);
}

void expect_calibration_eq(const core::CalibrationResult& a,
                           const core::CalibrationResult& b) {
  const auto tx_a = a.tx_stage1.model.params().pack();
  const auto tx_b = b.tx_stage1.model.params().pack();
  for (std::size_t i = 0; i < tx_a.size(); ++i) EXPECT_EQ(tx_a[i], tx_b[i]);
  const auto rx_a = a.rx_stage1.model.params().pack();
  const auto rx_b = b.rx_stage1.model.params().pack();
  for (std::size_t i = 0; i < rx_a.size(); ++i) EXPECT_EQ(rx_a[i], rx_b[i]);
  EXPECT_EQ(a.tx_stage1.avg_error_m, b.tx_stage1.avg_error_m);
  EXPECT_EQ(a.rx_stage1.avg_error_m, b.rx_stage1.avg_error_m);
  EXPECT_EQ(a.tx_stage1.optimizer_iterations, b.tx_stage1.optimizer_iterations);
  EXPECT_EQ(a.rx_stage1.optimizer_iterations, b.rx_stage1.optimizer_iterations);

  expect_pose_eq(a.mapping.map_tx, b.mapping.map_tx);
  expect_pose_eq(a.mapping.map_rx, b.mapping.map_rx);
  EXPECT_EQ(a.mapping.avg_coincidence_m, b.mapping.avg_coincidence_m);
  EXPECT_EQ(a.mapping.max_coincidence_m, b.mapping.max_coincidence_m);
  EXPECT_EQ(a.mapping.optimizer_iterations, b.mapping.optimizer_iterations);
  EXPECT_EQ(a.mapping.converged, b.mapping.converged);

  ASSERT_EQ(a.stage2_samples.size(), b.stage2_samples.size());
  for (std::size_t i = 0; i < a.stage2_samples.size(); ++i) {
    EXPECT_EQ(a.stage2_samples[i].voltages.tx1, b.stage2_samples[i].voltages.tx1);
    EXPECT_EQ(a.stage2_samples[i].voltages.rx2, b.stage2_samples[i].voltages.rx2);
    expect_pose_eq(a.stage2_samples[i].psi, b.stage2_samples[i].psi);
  }
}

void expect_rng_eq(const util::RngState& a, const util::RngState& b) {
  for (int i = 0; i < 4; ++i) EXPECT_EQ(a.s[i], b.s[i]);
  EXPECT_EQ(a.cached_normal, b.cached_normal);
  EXPECT_EQ(a.has_cached_normal, b.has_cached_normal);
}

class CalEngineTest : public ::testing::Test {
 protected:
  // One reference one-shot run for the whole suite (the adapter itself is
  // engine-driven, so this doubles as the adapter equivalence baseline).
  static void SetUpTestSuite() {
    proto_ = new sim::Prototype(make_proto());
    util::Rng rng(kSeed);
    reference_ = new core::CalibrationResult(
        core::calibrate_prototype(*proto_, small_config(), rng));
    reference_rng_ = new util::RngState(rng.state());
  }
  static void TearDownTestSuite() {
    delete reference_rng_;
    delete reference_;
    delete proto_;
    reference_rng_ = nullptr;
    reference_ = nullptr;
    proto_ = nullptr;
  }

  static sim::Prototype* proto_;
  static core::CalibrationResult* reference_;
  static util::RngState* reference_rng_;
};

sim::Prototype* CalEngineTest::proto_ = nullptr;
core::CalibrationResult* CalEngineTest::reference_ = nullptr;
util::RngState* CalEngineTest::reference_rng_ = nullptr;

TEST_F(CalEngineTest, ReferenceCalibrationIsUsable) {
  // The capped Stage-1 budget may stop short of the convergence flag;
  // board accuracy is what the pipeline actually needs.
  EXPECT_LT(reference_->tx_stage1.avg_error_m, 2e-3);
  EXPECT_LT(reference_->rx_stage1.avg_error_m, 2e-3);
  EXPECT_TRUE(reference_->mapping.converged);
  EXPECT_LT(reference_->mapping.avg_coincidence_m, 0.02);
  EXPECT_EQ(reference_->stage2_samples.size(), 6u);
}

TEST_F(CalEngineTest, DirectSteppingMatchesOneShotAdapter) {
  sim::Prototype proto = make_proto();
  cal::CalibrationEngine engine(proto, small_config(), util::Rng(kSeed));
  std::uint64_t steps = 0;
  while (engine.step()) ++steps;
  EXPECT_EQ(engine.steps(), steps + 1);
  EXPECT_EQ(engine.phase(), cal::Phase::kDone);
  expect_calibration_eq(*reference_, engine.result());
  expect_rng_eq(*reference_rng_, engine.rng_state());
}

TEST_F(CalEngineTest, ChunkedSteppingMatchesOneShot) {
  // Odd-sized batches land mid-phase constantly — slicing must not matter.
  sim::Prototype proto = make_proto();
  cal::CalibrationEngine engine(proto, small_config(), util::Rng(kSeed));
  while (!engine.done()) {
    for (int i = 0; i < 7 && engine.step(); ++i) {
    }
  }
  expect_calibration_eq(*reference_, engine.result());
  expect_rng_eq(*reference_rng_, engine.rng_state());
}

TEST_F(CalEngineTest, CheckpointFileRestoreContinuesBitExactly) {
  // Run twin A to a mid-Stage-1-fit boundary and checkpoint through the
  // text format — the power-cycle scenario: restore into a COMPLETELY
  // fresh engine (different rng seed, no pre-stepping) on a fresh twin
  // prototype.  Any field the format fails to round-trip diverges the
  // continuation.
  sim::Prototype proto_a = make_proto();
  cal::CalibrationEngine a(proto_a, small_config(), util::Rng(kSeed));
  while (a.phase() != cal::Phase::kStage1TxFit) a.step();
  for (int i = 0; i < 3; ++i) a.step();

  std::ostringstream out;
  cal::write_engine_checkpoint(out, a.checkpoint());
  std::istringstream in(out.str());
  const cal::EngineCheckpoint parsed = cal::read_engine_checkpoint(in);

  sim::Prototype proto_b = make_proto();
  cal::CalibrationEngine b(proto_b, small_config(), util::Rng(kSeed + 99));
  b.restore(parsed);
  EXPECT_EQ(b.phase(), a.phase());
  EXPECT_EQ(b.steps(), a.steps());

  while (b.step()) {
  }
  expect_calibration_eq(*reference_, b.result());
  expect_rng_eq(*reference_rng_, b.rng_state());
}

TEST_F(CalEngineTest, CheckpointAtStage2BoundaryContinues) {
  // Stage-2 collection mutates the rig, so the restore target must be at
  // the same boundary (live rig state is deliberately not engine state).
  sim::Prototype proto_a = make_proto();
  cal::CalibrationEngine a(proto_a, small_config(), util::Rng(kSeed));
  while (a.phase() != cal::Phase::kStage2Collect) a.step();
  for (int i = 0; i < 2; ++i) a.step();

  std::ostringstream out;
  cal::write_engine_checkpoint(out, a.checkpoint());
  std::istringstream in(out.str());

  sim::Prototype proto_b = make_proto();
  cal::CalibrationEngine b(proto_b, small_config(), util::Rng(kSeed));
  while (b.steps() < a.steps()) b.step();
  b.restore(cal::read_engine_checkpoint(in));
  while (b.step()) {
  }
  expect_calibration_eq(*reference_, b.result());
  expect_rng_eq(*reference_rng_, b.rng_state());
}

TEST_F(CalEngineTest, RestoreRejectsOutOfRangePhase) {
  sim::Prototype proto = make_proto();
  cal::CalibrationEngine engine(proto, small_config(), util::Rng(kSeed));
  cal::EngineCheckpoint cp = engine.checkpoint();
  cp.phase = 42;
  EXPECT_THROW(engine.restore(cp), std::runtime_error);
}

}  // namespace
