// Focused tests for the exhaustive-search aligner (§4.2's data-collection
// workhorse) and for the speed-sweep machinery's building blocks.
#include <gtest/gtest.h>

#include <cmath>

#include "core/calibration.hpp"
#include "core/exhaustive_aligner.hpp"
#include "sim/prototype.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

namespace cyclops::core {
namespace {

sim::Prototype make_proto(std::uint64_t seed = 42) {
  return sim::make_prototype(seed, sim::prototype_10g_config());
}

TEST(AlignerTest, ColdStartFindsLink) {
  sim::Prototype proto = make_proto();
  util::ThreadPool pool(2);
  const ExhaustiveAligner aligner({}, pool);
  const AlignResult r = aligner.align(proto.scene, {});
  EXPECT_TRUE(r.converged());
  EXPECT_EQ(r.status, AlignStatus::kConverged);
  EXPECT_GT(r.power_dbm, proto.scene.config().sfp.rx_sensitivity_dbm + 10.0);
}

TEST(AlignerTest, WarmStartUsesFewerEvaluations) {
  sim::Prototype proto = make_proto();
  util::ThreadPool pool(2);
  const ExhaustiveAligner aligner({}, pool);
  const AlignResult cold = aligner.align(proto.scene, {});
  // Small hint-extent options simulate the warm-start configuration the
  // calibration loop uses between nearby poses.
  AlignerOptions narrow;
  narrow.tx_scan_half_extent = 0.5;
  narrow.rx_scan_half_extent = 0.5;
  narrow.tx_scan_step = 0.1;
  narrow.rx_scan_step = 0.1;
  const AlignResult warm =
      ExhaustiveAligner(narrow, pool).align(proto.scene, cold.voltages);
  EXPECT_TRUE(warm.converged());
  EXPECT_LT(warm.evaluations, cold.evaluations);
  EXPECT_NEAR(warm.power_dbm, cold.power_dbm, 1.0);
}

TEST(AlignerTest, ResultWithinGmRange) {
  sim::Prototype proto = make_proto();
  util::ThreadPool pool(2);
  const ExhaustiveAligner aligner({}, pool);
  const AlignResult r = aligner.align(proto.scene, {});
  const double vmax = proto.scene.tx().galvo().spec().max_voltage;
  EXPECT_LE(std::abs(r.voltages.tx1), vmax);
  EXPECT_LE(std::abs(r.voltages.tx2), vmax);
  EXPECT_LE(std::abs(r.voltages.rx1), vmax);
  EXPECT_LE(std::abs(r.voltages.rx2), vmax);
}

TEST(AlignerTest, FailsHonestlyWhenOccluded) {
  sim::Prototype proto = make_proto();
  const geom::Vec3 mid = (proto.scene.tx().mount().translation() +
                          proto.nominal_rig_pose.translation()) *
                         0.5;
  proto.scene.add_occluder({mid, 0.5});
  util::ThreadPool pool(2);
  const ExhaustiveAligner aligner({}, pool);
  const AlignResult r = aligner.align(proto.scene, {});
  EXPECT_FALSE(r.converged());
  // A fully occluded path yields no finite power anywhere: the aligner
  // must name the geometry, not its own search budget.
  EXPECT_EQ(r.status, AlignStatus::kDegenerateGeometry);
  EXPECT_STREQ(to_string(r.status), "degenerate-geometry");
}

TEST(AlignerTest, AlignedVoltagesNearLocalOptimum) {
  sim::Prototype proto = make_proto();
  util::ThreadPool pool(2);
  const ExhaustiveAligner aligner({}, pool);
  const AlignResult r = aligner.align(proto.scene, {});
  // Any single-axis nudge by 50 mV must not improve the power by > 0.2 dB.
  const sim::Voltages& v = r.voltages;
  const double base = proto.scene.received_power_dbm(v);
  for (const double delta : {-0.05, 0.05}) {
    for (int axis = 0; axis < 4; ++axis) {
      sim::Voltages probe = v;
      (axis == 0   ? probe.tx1
       : axis == 1 ? probe.tx2
       : axis == 2 ? probe.rx1
                   : probe.rx2) += delta;
      EXPECT_LT(proto.scene.received_power_dbm(probe), base + 0.2);
    }
  }
}

TEST(AlignerTest, ConsistentAcrossRepeats) {
  sim::Prototype proto = make_proto();
  util::ThreadPool pool(2);
  const ExhaustiveAligner aligner({}, pool);
  const AlignResult a = aligner.align(proto.scene, {});
  const AlignResult b = aligner.align(proto.scene, {});
  // Deterministic procedure on a static scene.
  EXPECT_DOUBLE_EQ(a.power_dbm, b.power_dbm);
  EXPECT_DOUBLE_EQ(a.voltages.tx1, b.voltages.tx1);
}

TEST(AlignerTest, EvaluationBudgetIsBounded) {
  sim::Prototype proto = make_proto();
  util::ThreadPool pool(2);
  const ExhaustiveAligner aligner({}, pool);
  const AlignResult r = aligner.align(proto.scene, {});
  // Two 31x31 rasters + polish, plus slack for the fallback path.
  EXPECT_LT(r.evaluations, 20000);
}

// Across rig poses in the stage-2 box, alignment succeeds from warm hints.
class AlignerPoseSweep : public ::testing::TestWithParam<int> {};

TEST_P(AlignerPoseSweep, AlignsAtExcursion) {
  sim::Prototype proto = make_proto();
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  const geom::Pose pose = random_rig_pose(proto.nominal_rig_pose, 0.18,
                                          0.10, rng);
  proto.scene.set_rig_pose(pose);
  util::ThreadPool pool(2);
  const ExhaustiveAligner aligner({}, pool);
  const AlignResult r = aligner.align(proto.scene, {});
  EXPECT_TRUE(r.converged()) << to_string(r.status);
}

INSTANTIATE_TEST_SUITE_P(Poses, AlignerPoseSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace cyclops::core
