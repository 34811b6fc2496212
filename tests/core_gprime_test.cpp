#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "core/gma_model.hpp"
#include "core/gprime.hpp"
#include "galvo/factory.hpp"
#include "geom/mat3.hpp"
#include "pointing_reference.hpp"
#include "util/rng.hpp"

namespace cyclops::core {
namespace {

GmaModel nominal_model() { return GmaModel(galvo::nominal_params()); }

GmaModel perturbed_model(std::uint64_t seed) {
  util::Rng rng(seed);
  return GmaModel(
      galvo::perturbed_params(galvo::nominal_params(), {}, rng));
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_bitwise(const geom::Vec3& a, const geom::Vec3& b) {
  EXPECT_EQ(bits(a.x), bits(b.x));
  EXPECT_EQ(bits(a.y), bits(b.y));
  EXPECT_EQ(bits(a.z), bits(b.z));
}

void expect_bitwise(const std::optional<geom::Ray>& a,
                    const std::optional<geom::Ray>& b) {
  ASSERT_EQ(a.has_value(), b.has_value());
  if (!a) return;
  expect_bitwise(a->origin, b->origin);
  expect_bitwise(a->dir, b->dir);
}

TEST(GmaModelTest, TraceMatchesIdeal) {
  const GmaModel model = nominal_model();
  const auto a = model.trace(1.5, -2.0);
  const auto b = galvo::trace_ideal(galvo::nominal_params(), 1.5, -2.0);
  ASSERT_TRUE(a && b);
  EXPECT_NEAR(geom::distance(a->origin, b->origin), 0.0, 1e-15);
}

TEST(GmaModelTest, TransformedModelTracesTransformedBeam) {
  const GmaModel model = nominal_model();
  const geom::Pose map{geom::Mat3::rotation({0, 1, 0}, 0.8), {1, -2, 3}};
  const GmaModel moved = model.transformed(map);
  const auto local = model.trace(2.0, 1.0);
  const auto world = moved.trace(2.0, 1.0);
  ASSERT_TRUE(local && world);
  EXPECT_NEAR(geom::distance(world->origin, map.apply(local->origin)), 0.0,
              1e-12);
  // angle_between via acos loses precision near 0; 1e-7 rad is numerically
  // zero here.
  EXPECT_NEAR(geom::angle_between(world->dir, map.apply_dir(local->dir)), 0.0,
              1e-7);
}

TEST(GmaModelTest, TransformComposes) {
  const GmaModel model = nominal_model();
  const geom::Pose a{geom::Mat3::rotation({1, 0, 0}, 0.3), {0.1, 0, 0}};
  const geom::Pose b{geom::Mat3::rotation({0, 0, 1}, -0.6), {0, 2, 1}};
  const auto via_two = model.transformed(a).transformed(b).trace(1.0, 1.0);
  const auto via_one = model.transformed(b * a).trace(1.0, 1.0);
  ASSERT_TRUE(via_two && via_one);
  EXPECT_NEAR(geom::distance(via_two->origin, via_one->origin), 0.0, 1e-12);
}

TEST(GmaModelTest, Mirror2PlaneContainsOrigin) {
  const GmaModel model = perturbed_model(3);
  for (double v2 : {-4.0, -1.0, 0.0, 2.0, 5.0}) {
    const auto ray = model.trace(1.0, v2);
    ASSERT_TRUE(ray.has_value());
    EXPECT_NEAR(model.mirror2_plane(v2).signed_distance(ray->origin), 0.0,
                1e-10);
  }
}

TEST(GmaModelTest, SplitTraceIsTraceBitwise) {
  // Plain, transformed and frozen-origin models: either half held fixed
  // while the other moves gives exactly the whole trace.
  const geom::Pose map{geom::Mat3::rotation({0.3, 1.0, -0.2}, 1.1),
                       {0.4, -1.0, 2.0}};
  const GmaModel models[] = {perturbed_model(21),
                             perturbed_model(22).transformed(map),
                             perturbed_model(23).with_frozen_origin(),
                             perturbed_model(24).with_frozen_origin().transformed(map)};
  util::Rng rng(29);
  for (const GmaModel& model : models) {
    const galvo::GalvoParams& p = model.params();
    for (int i = 0; i < 100; ++i) {
      const double v1 = rng.uniform(-8.0, 8.0);
      const double v2 = rng.uniform(-8.0, 8.0);
      const double w = rng.uniform(-8.0, 8.0);
      const auto whole = model.trace(v1, v2);
      ASSERT_TRUE(whole.has_value());
      const SplitTrace at = model.split_trace(v1, v2);
      expect_bitwise(at.ray, whole);
      expect_bitwise(model.second_leg(at.first_leg, model.mirror2_plane(w)),
                     model.trace(v1, w));
      expect_bitwise(model.second_leg(model.first_leg(w), at.mirror2),
                     model.trace(w, v2));
      // The once-normalised axis rotates exactly as a per-call Rodrigues
      // matrix on the raw parameters does.
      expect_bitwise(at.mirror2.normal,
                     geom::Mat3::rotation(p.r2, p.theta1 * v2) * p.n2);
    }
  }
}

TEST(GPrimeTest, HitsTargetOnBoresight) {
  const runtime::Context ctx = runtime::Context::isolated();
  const GmaModel model = nominal_model();
  const geom::Vec3 target{0.0, 0.0, -1.5};
  const GPrimeSolver solver({}, ctx);
  const GPrimeResult r = solver.solve(model, target);
  ASSERT_TRUE(r.converged);
  EXPECT_LT(r.miss_distance, 1e-4);
  EXPECT_NEAR(r.v1, 0.0, 0.05);
  EXPECT_NEAR(r.v2, 0.0, 0.05);
}

TEST(GPrimeTest, ConvergesInTwoToFourIterations) {
  const runtime::Context ctx = runtime::Context::isolated();
  // §4.3: "the above converged in 2-4 iterations".
  const GmaModel model = perturbed_model(7);
  util::Rng rng(11);
  int worst = 0;
  for (int i = 0; i < 200; ++i) {
    const geom::Vec3 target{rng.uniform(-0.4, 0.4), rng.uniform(-0.3, 0.3),
                            rng.uniform(-2.0, -1.2)};
    const GPrimeResult r = GPrimeSolver({}, ctx).solve(model, target);
    ASSERT_TRUE(r.converged);
    worst = std::max(worst, r.iterations);
    EXPECT_LT(r.miss_distance, 1e-3);
  }
  EXPECT_LE(worst, 5);
}

TEST(GPrimeTest, WarmStartConvergesFaster) {
  const runtime::Context ctx = runtime::Context::isolated();
  const GmaModel model = perturbed_model(9);
  const geom::Vec3 target{0.2, 0.1, -1.6};
  const GPrimeResult cold = GPrimeSolver({}, ctx).solve(model, target);
  const GPrimeResult warm =
      GPrimeSolver({}, ctx).solve(model, target, cold.v1, cold.v2);
  ASSERT_TRUE(warm.converged);
  EXPECT_LE(warm.iterations, cold.iterations);
  EXPECT_EQ(warm.iterations, 1);
}

TEST(GPrimeTest, BeamActuallyPassesThroughTarget) {
  const runtime::Context ctx = runtime::Context::isolated();
  const GmaModel model = perturbed_model(13);
  const geom::Vec3 target{-0.25, 0.15, -1.8};
  const GPrimeResult r = GPrimeSolver({}, ctx).solve(model, target);
  ASSERT_TRUE(r.converged);
  const auto ray = model.trace(r.v1, r.v2);
  ASSERT_TRUE(ray.has_value());
  EXPECT_LT(geom::line_point_distance(*ray, target), 0.3e-3);
}

TEST(GPrimeTest, ToleranceControlsPrecision) {
  const runtime::Context ctx = runtime::Context::isolated();
  const GmaModel model = perturbed_model(17);
  const geom::Vec3 target{0.3, -0.2, -1.5};
  GPrimeOptions tight;
  tight.tolerance_volts = 1e-5;
  tight.max_iterations = 30;
  const GPrimeResult r = GPrimeSolver(tight, ctx).solve(model, target);
  ASSERT_TRUE(r.converged);
  EXPECT_LT(r.miss_distance, 1e-5);
}

TEST(GPrimeTest, TransformedModelStillInvertible) {
  const runtime::Context ctx = runtime::Context::isolated();
  const geom::Pose map{geom::Mat3::rotation({0, 1, 0}, 2.5), {0.5, 2.0, -1.0}};
  const GmaModel model = perturbed_model(19).transformed(map);
  // Target roughly along the transformed boresight.
  const auto boresight = model.trace(0.0, 0.0);
  ASSERT_TRUE(boresight.has_value());
  const geom::Vec3 target = boresight->at(1.7) + geom::Vec3{0.05, -0.08, 0.02};
  const GPrimeResult r = GPrimeSolver({}, ctx).solve(model, target);
  ASSERT_TRUE(r.converged);
  EXPECT_LT(r.miss_distance, 1e-3);
}

TEST(GPrimeTest, MatchesThreeTraceReferenceBitwise) {
  // GPrimeSolver shares half-traces between its probes; the reference
  // traces three whole beams per iteration.  Cases cover converged solves,
  // the iteration limit, and halts on degenerate geometry.
  const runtime::Context ctx = runtime::Context::isolated();
  galvo::GalvoParams frozen_mirrors = galvo::nominal_params();
  frozen_mirrors.theta1 = 0.0;  // singular 2x2 system: halts
  galvo::GalvoParams grazing = galvo::nominal_params();
  grazing.x0 = grazing.r1;  // input parallel to mirror 1 at every voltage
  const geom::Pose map{geom::Mat3::rotation({0.0, 1.0, 0.0}, 2.5),
                       {0.5, 2.0, -1.0}};
  util::Rng rng(31);
  int converged = 0, at_limit = 0, halted = 0;
  for (int i = 0; i < 240; ++i) {
    GmaModel model = perturbed_model(100 + i);
    if (i % 6 == 1) model = model.transformed(map);
    if (i % 6 == 2) model = model.with_frozen_origin();
    if (i % 12 == 3) model = GmaModel(frozen_mirrors);
    if (i % 24 == 5) model = GmaModel(grazing);
    GPrimeOptions options;
    options.max_iterations = 1 + static_cast<int>(rng.uniform_index(4)) * 4;
    if (i % 3 == 0) options.tolerance_volts = 1e-7;
    const auto boresight = model.trace(0.0, 0.0);
    const geom::Vec3 target =
        (boresight ? boresight->at(rng.uniform(1.2, 2.0))
                   : geom::Vec3{0.0, 0.0, -1.5}) +
        geom::Vec3{rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4),
                   rng.uniform(-0.2, 0.2)};
    const double v1 = i % 4 == 0 ? 0.0 : rng.uniform(-3.0, 3.0);
    const double v2 = i % 4 == 0 ? 0.0 : rng.uniform(-3.0, 3.0);

    const GPrimeResult want = reference_gprime(model, target, v1, v2, options);
    SplitTrace at = model.split_trace(v1, v2);
    const GPrimeResult got =
        GPrimeSolver(options, ctx).solve(model, target, v1, v2, at);
    EXPECT_EQ(bits(got.v1), bits(want.v1)) << "case " << i;
    EXPECT_EQ(bits(got.v2), bits(want.v2)) << "case " << i;
    EXPECT_EQ(got.iterations, want.iterations) << "case " << i;
    EXPECT_EQ(got.converged, want.converged) << "case " << i;
    EXPECT_EQ(bits(got.miss_distance), bits(want.miss_distance)) << "case " << i;
    // The trace handed back is the one at the answer.
    expect_bitwise(at.ray, model.trace(got.v1, got.v2));
    const GPrimeResult plain = GPrimeSolver(options, ctx).solve(model, target, v1, v2);
    EXPECT_EQ(bits(plain.v1), bits(want.v1)) << "case " << i;
    EXPECT_EQ(bits(plain.miss_distance), bits(want.miss_distance)) << "case " << i;

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

// Parameterized sweep over target positions (a grid within the coverage
// cone) — the G' iteration must converge everywhere.
class GPrimeTargetSweep
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(GPrimeTargetSweep, Converges) {
  const runtime::Context ctx = runtime::Context::isolated();
  const auto [x, y] = GetParam();
  const GmaModel model = perturbed_model(23);
  const GPrimeResult r = GPrimeSolver({}, ctx).solve(model, {x, y, -1.5});
  ASSERT_TRUE(r.converged);
  EXPECT_LE(r.iterations, 6);
  EXPECT_LT(r.miss_distance, 1e-3);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, GPrimeTargetSweep,
    ::testing::Values(std::pair{0.0, 0.0}, std::pair{0.3, 0.0},
                      std::pair{-0.3, 0.0}, std::pair{0.0, 0.25},
                      std::pair{0.0, -0.25}, std::pair{0.35, 0.25},
                      std::pair{-0.35, -0.25}, std::pair{0.2, -0.3},
                      std::pair{-0.15, 0.3}));

}  // namespace
}  // namespace cyclops::core
