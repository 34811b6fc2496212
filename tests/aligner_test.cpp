// Focused tests for the exhaustive-search aligner (§4.2's data-collection
// workhorse) and for the speed-sweep machinery's building blocks.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "core/calibration.hpp"
#include "core/exhaustive_aligner.hpp"
#include "per_point_reference.hpp"
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

/// Same voltages and power to the bit, same evaluation count and status.
::testing::AssertionResult same_alignment(const AlignResult& a,
                                          const AlignResult& b) {
  const double x[] = {a.voltages.tx1, a.voltages.tx2, a.voltages.rx1,
                      a.voltages.rx2, a.power_dbm};
  const double y[] = {b.voltages.tx1, b.voltages.tx2, b.voltages.rx1,
                      b.voltages.rx2, b.power_dbm};
  if (std::memcmp(x, y, sizeof x) != 0 || a.evaluations != b.evaluations ||
      a.status != b.status) {
    return ::testing::AssertionFailure()
           << a.power_dbm << " dBm after " << a.evaluations << " vs "
           << b.power_dbm << " dBm after " << b.evaluations;
  }
  return ::testing::AssertionSuccess();
}

TEST(AlignerOracleTest, RastersEqualPerPointTracesBitwise) {
  // The rasters share each row's first leg and each column's mirror-2
  // plane; the per-point reference traces every point whole.  Cold and
  // hinted at the eight AlignerPoseSweep poses, in an occluded scene, and
  // from a hint whose narrow search fails into the wide retry, on pools
  // of 1, 2 and 8.
  AlignerOptions narrow;
  narrow.tx_scan_half_extent = 0.5;
  narrow.rx_scan_half_extent = 0.5;
  narrow.tx_scan_step = 0.1;
  narrow.rx_scan_step = 0.1;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("pool " + std::to_string(threads));
    util::ThreadPool pool(threads);
    const auto expect_same = [&](const sim::Scene& scene,
                                 const sim::Voltages& hint,
                                 const AlignerOptions& options) {
      const AlignResult got =
          ExhaustiveAligner(options, pool).align(scene, hint);
      EXPECT_TRUE(
          same_alignment(got, reference_align(scene, hint, options, pool)));
      return got;
    };
    sim::Prototype proto = make_proto();
    const sim::Voltages nominal = expect_same(proto.scene, {}, {}).voltages;
    for (int seed = 1; seed <= 8; ++seed) {
      SCOPED_TRACE("pose " + std::to_string(seed));
      util::Rng rng(static_cast<std::uint64_t>(seed));
      proto.scene.set_rig_pose(
          random_rig_pose(proto.nominal_rig_pose, 0.18, 0.10, rng));
      expect_same(proto.scene, {}, {});
      expect_same(proto.scene, nominal, {});
    }
    // Out of range, so the narrow search traces nothing.
    const AlignResult retried =
        expect_same(proto.scene, {12.0, -12.0, 12.0, -12.0}, narrow);
    EXPECT_GT(retried.evaluations, 2 * 61 * 61);  // the wide rasters ran
    EXPECT_TRUE(retried.converged());
    const geom::Vec3 mid = (proto.scene.tx().mount().translation() +
                            proto.scene.rig_pose().translation()) *
                           0.5;
    proto.scene.add_occluder({mid, 0.5});
    EXPECT_EQ(expect_same(proto.scene, nominal, {}).status,
              AlignStatus::kDegenerateGeometry);
  }
}

}  // namespace
}  // namespace cyclops::core
