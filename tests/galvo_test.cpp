#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "galvo/factory.hpp"
#include "galvo/galvo_mirror.hpp"
#include "galvo/gma.hpp"
#include "optics/beam.hpp"
#include "per_point_reference.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace cyclops::galvo {
namespace {

GalvoMirror nominal_galvo() { return {nominal_params(), gvs102_spec()}; }

// ---- GalvoParams ----

TEST(GalvoParamsTest, PackUnpackRoundTrip) {
  const GalvoParams p = nominal_params();
  const GalvoParams q = GalvoParams::unpack(p.pack());
  EXPECT_NEAR(geom::distance(p.p0, q.p0), 0.0, 1e-12);
  EXPECT_NEAR(geom::distance(p.q2, q.q2), 0.0, 1e-12);
  EXPECT_NEAR(geom::angle_between(p.n1, q.n1), 0.0, 1e-9);
  EXPECT_DOUBLE_EQ(p.theta1, q.theta1);
}

TEST(GalvoParamsTest, UnpackNormalizesDirections) {
  auto packed = nominal_params().pack();
  packed[3] *= 7.0;  // scale x0
  packed[4] *= 7.0;
  packed[5] *= 7.0;
  const GalvoParams p = GalvoParams::unpack(packed);
  EXPECT_NEAR(p.x0.norm(), 1.0, 1e-12);
}

// ---- nominal geometry ----

TEST(GalvoMirrorTest, ZeroVoltageBoresight) {
  const auto out = nominal_galvo().trace(0.0, 0.0);
  ASSERT_TRUE(out.has_value());
  // Nominal design: output from the local origin along -z.
  EXPECT_NEAR(geom::distance(out->origin, {0, 0, 0}), 0.0, 1e-9);
  EXPECT_NEAR(geom::angle_between(out->dir, {0, 0, -1}), 0.0, 1e-9);
}

TEST(GalvoMirrorTest, Mirror1ScansX) {
  const GalvoMirror gm = nominal_galvo();
  const auto out = gm.trace(1.0, 0.0);
  ASSERT_TRUE(out.has_value());
  // 1 V = 1 deg mirror = 2 deg beam.
  const double expected = util::deg_to_rad(2.0);
  EXPECT_NEAR(geom::angle_between(out->dir, {0, 0, -1}), expected, 1e-6);
  EXPECT_GT(std::abs(out->dir.x), std::abs(out->dir.y));
}

TEST(GalvoMirrorTest, Mirror2ScansY) {
  const GalvoMirror gm = nominal_galvo();
  const auto out = gm.trace(0.0, 1.0);
  ASSERT_TRUE(out.has_value());
  EXPECT_NEAR(geom::angle_between(out->dir, {0, 0, -1}),
              util::deg_to_rad(2.0), 1e-6);
  EXPECT_GT(std::abs(out->dir.y), std::abs(out->dir.x));
}

TEST(GalvoMirrorTest, BeamAngleLinearInVoltage) {
  const GalvoMirror gm = nominal_galvo();
  const auto base = gm.trace(0.0, 0.0);
  std::vector<double> angles;
  for (double v : {0.5, 1.0, 2.0, 4.0}) {
    const auto out = gm.trace(v, 0.0);
    ASSERT_TRUE(out.has_value());
    angles.push_back(geom::angle_between(out->dir, base->dir));
  }
  EXPECT_NEAR(angles[1] / angles[0], 2.0, 1e-3);
  EXPECT_NEAR(angles[2] / angles[1], 2.0, 1e-3);
  EXPECT_NEAR(angles[3] / angles[2], 2.0, 1e-3);
}

TEST(GalvoMirrorTest, OutputOriginMovesWithVoltage) {
  // The distortion effect: p depends on the voltages (the paper's reason
  // for not assuming a constant origin).
  const GalvoMirror gm = nominal_galvo();
  const auto a = gm.trace(0.0, 0.0);
  const auto b = gm.trace(3.0, 3.0);
  ASSERT_TRUE(a && b);
  EXPECT_GT(geom::distance(a->origin, b->origin), 0.5e-3);
}

TEST(GalvoMirrorTest, VoltageOutOfRangeRejected) {
  const GalvoMirror gm = nominal_galvo();
  EXPECT_FALSE(gm.trace(10.5, 0.0).has_value());
  EXPECT_FALSE(gm.trace(0.0, -11.0).has_value());
  EXPECT_TRUE(gm.trace(9.9, 9.9).has_value());
}

TEST(GalvoMirrorTest, ClipsOnMirrorEdge) {
  GalvoSpec tiny = gvs102_spec();
  tiny.mirror_radius = 0.5e-3;  // pathologically small mirror
  const GalvoMirror gm(nominal_params(), tiny);
  // At high deflection the hit point on mirror 2 walks off a 0.5 mm mirror.
  EXPECT_FALSE(gm.trace(8.0, 8.0).has_value());
}

TEST(GalvoMirrorTest, TraceIdealMatchesDeviceWithinAperture) {
  const GalvoMirror gm = nominal_galvo();
  for (double v1 : {-4.0, 0.0, 4.0}) {
    for (double v2 : {-3.0, 0.0, 3.0}) {
      const auto dev = gm.trace(v1, v2);
      const auto ideal = trace_ideal(gm.params(), v1, v2);
      ASSERT_TRUE(dev && ideal);
      EXPECT_NEAR(geom::distance(dev->origin, ideal->origin), 0.0, 1e-12);
      EXPECT_NEAR(geom::angle_between(dev->dir, ideal->dir), 0.0, 1e-12);
    }
  }
}

TEST(GalvoMirrorTest, MirrorPlanesRotateWithVoltage) {
  const GalvoMirror gm = nominal_galvo();
  const geom::Plane p0 = gm.mirror1_plane(0.0);
  const geom::Plane p1 = gm.mirror1_plane(2.0);
  EXPECT_NEAR(geom::angle_between(p0.normal, p1.normal),
              util::deg_to_rad(2.0), 1e-9);
  // The anchor point q is on the rotation axis, so it does not move.
  EXPECT_NEAR(geom::distance(p0.point, p1.point), 0.0, 1e-12);
}

/// Both absent, or both present with every coordinate equal to the bit.
bool same_ray(const std::optional<geom::Ray>& a,
              const std::optional<geom::Ray>& b) {
  if (a.has_value() != b.has_value()) return false;
  if (!a) return true;
  const double x[] = {a->origin.x, a->origin.y, a->origin.z,
                      a->dir.x,    a->dir.y,    a->dir.z};
  const double y[] = {b->origin.x, b->origin.y, b->origin.z,
                      b->dir.x,    b->dir.y,    b->dir.z};
  return std::memcmp(x, y, sizeof x) == 0;
}

TEST(GalvoMirrorTest, SplitTraceEqualsWholeTraceBitwise) {
  // The input beam 2 mm off mirror 1's rotation axis, so its hit point
  // walks with v1, and 3 mm mirrors: the grid below clips at mirror 1, at
  // mirror 2, and steps out of range on each axis.
  GalvoParams params = nominal_params();
  params.p0.y += 2e-3;
  GalvoSpec spec = gvs102_spec();
  spec.mirror_radius = 3e-3;
  const GalvoMirror gm(params, spec);
  int v1_out = 0, clip1 = 0, v2_out = 0, clip2 = 0, traced = 0;
  for (double v1 = -11.0; v1 <= 11.0; v1 += 0.5) {
    const auto first = gm.first_leg(v1);
    for (double v2 = -11.0; v2 <= 11.0; v2 += 0.5) {
      const auto split = gm.second_leg(first, v2, gm.mirror2_plane(v2));
      const auto whole = gm.trace(v1, v2);
      EXPECT_TRUE(same_ray(split, whole)) << v1 << ", " << v2;
      EXPECT_TRUE(same_ray(whole, reference_trace(gm, v1, v2)))
          << v1 << ", " << v2;
      if (!gm.voltage_in_range(v1)) {
        ++v1_out;
      } else if (!first) {
        ++clip1;
      } else if (!gm.voltage_in_range(v2)) {
        ++v2_out;
      } else if (!split) {
        ++clip2;
      } else {
        ++traced;
      }
    }
  }
  EXPECT_GT(v1_out, 0);
  EXPECT_GT(clip1, 0);
  EXPECT_GT(v2_out, 0);
  EXPECT_GT(clip2, 0);
  EXPECT_GT(traced, 0);
}

// ---- DAQ ----

TEST(DaqTest, QuantizesToStep) {
  const Daq daq;
  const double q = daq.quantize(1.23456);
  EXPECT_NEAR(q, 1.23456, daq.quantization_step);
  EXPECT_NEAR(std::fmod(q, daq.quantization_step), 0.0, 1e-9);
}

TEST(DaqTest, QuantizationErrorBounded) {
  const Daq daq;
  util::Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const double v = rng.uniform(-10.0, 10.0);
    EXPECT_LE(std::abs(daq.quantize(v) - v), daq.quantization_step / 2 + 1e-12);
  }
}

TEST(DaqTest, SixteenBitStepIsSubMillivolt) {
  const Daq daq;
  EXPECT_LT(daq.quantization_step, 1e-3);
}

// ---- factory ----

TEST(FactoryTest, PerturbationIsSmallButNonzero) {
  util::Rng rng(3);
  const GalvoParams nominal = nominal_params();
  const GalvoParams made = perturbed_params(nominal, {}, rng);
  const double dp = geom::distance(nominal.q2, made.q2);
  EXPECT_GT(dp, 0.0);
  EXPECT_LT(dp, 10e-3);
  const double dn = geom::angle_between(nominal.n2, made.n2);
  EXPECT_GT(dn, 0.0);
  EXPECT_LT(dn, util::deg_to_rad(5.0));
  EXPECT_NE(made.theta1, nominal.theta1);
  EXPECT_NEAR(made.theta1, nominal.theta1, 0.1 * nominal.theta1);
}

TEST(FactoryTest, PerturbedUnitStillTraces) {
  util::Rng rng(4);
  for (int i = 0; i < 20; ++i) {
    const GalvoMirror gm(perturbed_params(nominal_params(), {}, rng),
                         gvs102_spec());
    EXPECT_TRUE(gm.trace(0.0, 0.0).has_value());
    EXPECT_TRUE(gm.trace(4.0, -4.0).has_value());
  }
}

TEST(FactoryTest, DistinctUnitsDiffer) {
  util::Rng rng(5);
  const GalvoParams a = perturbed_params(nominal_params(), {}, rng);
  const GalvoParams b = perturbed_params(nominal_params(), {}, rng);
  EXPECT_GT(geom::distance(a.p0, b.p0), 0.0);
}

// ---- GMA ----

TEST(GmaTest, MountTransformsOutput) {
  const geom::Pose mount{geom::Mat3::rotation({0, 1, 0}, util::kPi),
                         {1.0, 2.0, 3.0}};
  const GmaPhysical gma(nominal_galvo(), mount);
  const auto out = gma.trace_parent(0.0, 0.0);
  ASSERT_TRUE(out.has_value());
  EXPECT_NEAR(geom::distance(out->origin, {1, 2, 3}), 0.0, 1e-9);
  // Local -z rotated by pi about y becomes +z.
  EXPECT_NEAR(geom::angle_between(out->dir, {0, 0, 1}), 0.0, 1e-9);
}

TEST(GmaTest, EmitCarriesBeamSpec) {
  const GmaPhysical gma(nominal_galvo(), geom::Pose::identity());
  const auto beam =
      gma.emit(0.0, 0.0, optics::BeamSpec::diverging_for(20e-3, 1.5));
  ASSERT_TRUE(beam.has_value());
  EXPECT_EQ(beam->spec.kind, optics::BeamKind::kDiverging);
  EXPECT_NEAR(beam->envelope_diameter_at(beam->chief.at(1.5)), 20e-3, 1e-3);
}

TEST(GmaTest, Mirror2PlaneContainsBeamOrigin) {
  const GmaPhysical gma(nominal_galvo(), geom::Pose::identity());
  for (double v2 : {-3.0, 0.0, 3.0}) {
    const auto out = gma.trace_parent(1.0, v2);
    const geom::Plane plane = gma.mirror2_plane_parent(v2);
    ASSERT_TRUE(out.has_value());
    EXPECT_NEAR(std::abs(plane.signed_distance(out->origin)), 0.0, 1e-9);
  }
}

TEST(GmaTest, CaptureRayEqualsTraceParent) {
  const GmaPhysical gma(nominal_galvo(), geom::Pose::identity());
  const auto a = gma.trace_parent(2.0, -1.0);
  const auto b = gma.capture_ray(2.0, -1.0);
  ASSERT_TRUE(a && b);
  EXPECT_NEAR(geom::distance(a->origin, b->origin), 0.0, 1e-15);
}

// Parameterized coverage sweep: every voltage in the working cone
// produces a valid beam whose deflection matches 2 * theta1 * |v|.
class CoverageSweep
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(CoverageSweep, DeflectionMatchesModel) {
  const auto [v1, v2] = GetParam();
  const GalvoMirror gm = nominal_galvo();
  const auto out = gm.trace(v1, v2);
  ASSERT_TRUE(out.has_value());
  const auto base = gm.trace(0.0, 0.0);
  const double angle = geom::angle_between(out->dir, base->dir);
  // Small-angle composition: beam deflection ~ 2*theta1*sqrt(v1^2+v2^2).
  const double expected =
      2.0 * gm.params().theta1 * std::sqrt(v1 * v1 + v2 * v2);
  EXPECT_NEAR(angle, expected, expected * 0.05 + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Voltages, CoverageSweep,
    ::testing::Values(std::pair{1.0, 0.0}, std::pair{0.0, 1.0},
                      std::pair{2.0, 2.0}, std::pair{-3.0, 1.0},
                      std::pair{4.0, -4.0}, std::pair{-5.0, -5.0},
                      std::pair{6.0, 2.0}, std::pair{0.5, -0.5}));

}  // namespace
}  // namespace cyclops::galvo
