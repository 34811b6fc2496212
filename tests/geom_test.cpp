#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "geom/mat3.hpp"
#include "geom/pose.hpp"
#include "geom/quat.hpp"
#include "geom/ray.hpp"
#include "geom/reflect.hpp"
#include "geom/vec3.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace cyclops::geom {
namespace {

constexpr double kTol = 1e-10;

void expect_near(const Vec3& a, const Vec3& b, double tol = kTol) {
  EXPECT_NEAR(a.x, b.x, tol);
  EXPECT_NEAR(a.y, b.y, tol);
  EXPECT_NEAR(a.z, b.z, tol);
}

Vec3 random_unit(util::Rng& rng) {
  return Vec3{rng.normal(), rng.normal(), rng.normal()}.normalized();
}

Vec3 random_vec(util::Rng& rng, double scale = 1.0) {
  return {rng.normal(0.0, scale), rng.normal(0.0, scale),
          rng.normal(0.0, scale)};
}

// ---- Vec3 ----

TEST(Vec3Test, Arithmetic) {
  const Vec3 a{1, 2, 3}, b{4, 5, 6};
  expect_near(a + b, {5, 7, 9});
  expect_near(b - a, {3, 3, 3});
  expect_near(a * 2.0, {2, 4, 6});
  expect_near(2.0 * a, {2, 4, 6});
  expect_near(a / 2.0, {0.5, 1, 1.5});
  expect_near(-a, {-1, -2, -3});
}

TEST(Vec3Test, DotCrossNorm) {
  const Vec3 a{1, 0, 0}, b{0, 1, 0};
  EXPECT_DOUBLE_EQ(a.dot(b), 0.0);
  expect_near(a.cross(b), {0, 0, 1});
  EXPECT_DOUBLE_EQ(Vec3(3, 4, 0).norm(), 5.0);
  EXPECT_DOUBLE_EQ(Vec3(3, 4, 0).norm2(), 25.0);
}

TEST(Vec3Test, NormalizedIsUnit) {
  util::Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    const Vec3 v = random_vec(rng, 10.0);
    if (v.norm() < 1e-9) continue;
    EXPECT_NEAR(v.normalized().norm(), 1.0, kTol);
  }
}

TEST(Vec3Test, AngleBetween) {
  EXPECT_NEAR(angle_between({1, 0, 0}, {0, 1, 0}), util::kPi / 2, kTol);
  EXPECT_NEAR(angle_between({1, 0, 0}, {1, 0, 0}), 0.0, kTol);
  EXPECT_NEAR(angle_between({1, 0, 0}, {-1, 0, 0}), util::kPi, kTol);
  EXPECT_NEAR(angle_between({1, 1, 0}, {1, 0, 0}), util::kPi / 4, kTol);
}

TEST(Vec3Test, AnyOrthogonalIsOrthogonal) {
  util::Rng rng(2);
  for (int i = 0; i < 50; ++i) {
    const Vec3 v = random_unit(rng);
    const Vec3 o = any_orthogonal(v);
    EXPECT_NEAR(v.dot(o), 0.0, kTol);
    EXPECT_NEAR(o.norm(), 1.0, kTol);
  }
}

// ---- Mat3 / rotations ----

TEST(Mat3Test, IdentityActsTrivially) {
  const Vec3 v{1.5, -2.0, 0.3};
  expect_near(Mat3::identity() * v, v);
}

TEST(Mat3Test, RotationAboutZ) {
  const Mat3 r = Mat3::rotation({0, 0, 1}, util::kPi / 2);
  expect_near(r * Vec3{1, 0, 0}, {0, 1, 0});
  expect_near(r * Vec3{0, 1, 0}, {-1, 0, 0});
}

TEST(Mat3Test, RotationPreservesNormAndAngles) {
  util::Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    const Mat3 r = Mat3::rotation(random_unit(rng), rng.uniform(-3.0, 3.0));
    const Vec3 a = random_vec(rng), b = random_vec(rng);
    EXPECT_NEAR((r * a).norm(), a.norm(), 1e-9);
    EXPECT_NEAR((r * a).dot(r * b), a.dot(b), 1e-9);
  }
}

TEST(Mat3Test, RotationComposesWithAngleSum) {
  const Vec3 axis{0.3, -0.5, 0.81};
  const Mat3 a = Mat3::rotation(axis, 0.4);
  const Mat3 b = Mat3::rotation(axis, 0.7);
  const Mat3 ab = a * b;
  const Mat3 direct = Mat3::rotation(axis, 1.1);
  const Vec3 v{1, 2, 3};
  expect_near(ab * v, direct * v, 1e-9);
}

TEST(Mat3Test, RotateIsRotationTimesVectorBitwise) {
  // The Rodrigues matrix about a once-normalised axis by an angle whose
  // cos and sin were taken once, times v, must be Mat3::rotation * v to
  // the bit (how the galvo models rotate their mirror normals): unit and
  // non-unit axes, the zero axis and a zero angle (the identity branch,
  // where -0.0 components meet + 0.0 * y sums).
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  const auto check = [&](const Vec3& axis, double angle, const Vec3& v) {
    const Vec3 got = rodrigues(UnitAxis(axis), AngleTrig(angle)) * v;
    const Vec3 want = Mat3::rotation(axis, angle) * v;
    EXPECT_EQ(bits(got.x), bits(want.x));
    EXPECT_EQ(bits(got.y), bits(want.y));
    EXPECT_EQ(bits(got.z), bits(want.z));
  };
  const Vec3 signed_zeros[] = {{-0.0, 1.0, 2.0}, {0.5, -0.0, -0.0},
                               {-0.0, -0.0, -0.0}};
  util::Rng rng(23);
  for (int i = 0; i < 300; ++i) {
    const Vec3 axis = i % 2 == 0 ? random_unit(rng) : random_vec(rng, 3.0);
    const double angle = i % 10 == 0 ? 0.0 : rng.uniform(-4.0, 4.0);
    const Vec3& zeros = signed_zeros[i % 3];
    for (const Vec3& a : {axis, Vec3{0.0, 0.0, 0.0}}) {
      check(a, angle, random_vec(rng));
      check(a, angle, zeros);
      check(a, 0.0, zeros);
    }
  }
}

TEST(Mat3Test, TransposeIsInverseForRotations) {
  util::Rng rng(4);
  for (int i = 0; i < 50; ++i) {
    const Mat3 r = Mat3::rotation(random_unit(rng), rng.uniform(-3.0, 3.0));
    const Vec3 v = random_vec(rng);
    expect_near(r.transposed() * (r * v), v, 1e-9);
  }
}

TEST(Mat3Test, RotationBetweenMapsFromToTo) {
  util::Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    const Vec3 from = random_unit(rng);
    const Vec3 to = random_unit(rng);
    expect_near(Mat3::rotation_between(from, to) * from, to, 1e-9);
  }
}

TEST(Mat3Test, RotationBetweenAntiparallel) {
  const Vec3 v{0.0, 0.0, 1.0};
  expect_near(Mat3::rotation_between(v, -v) * v, -v, 1e-9);
}

TEST(Mat3Test, RotationVectorRoundTrip) {
  util::Rng rng(6);
  for (int i = 0; i < 100; ++i) {
    const Vec3 axis = random_unit(rng);
    const double angle = rng.uniform(0.01, 3.1);
    const Mat3 r = Mat3::rotation(axis, angle);
    const Vec3 rv = rotation_vector(r);
    EXPECT_NEAR(rv.norm(), angle, 1e-8);
    expect_near(rv.normalized(), axis, 1e-7);
  }
}

TEST(Mat3Test, RotationVectorNearPi) {
  const Vec3 axis = Vec3{1, 2, -1}.normalized();
  const Mat3 r = Mat3::rotation(axis, util::kPi - 1e-4);
  const Vec3 rv = rotation_vector(r);
  EXPECT_NEAR(rv.norm(), util::kPi - 1e-4, 1e-6);
}

TEST(Mat3Test, RotationVectorIdentityIsZero) {
  expect_near(rotation_vector(Mat3::identity()), {0, 0, 0});
}

// ---- Quat ----

/// Angle of the rotation taking orientation a to orientation b.
double angle_between(const Quat& a, const Quat& b) {
  return rotation_vector(a.to_matrix().transposed() * b.to_matrix()).norm();
}

TEST(QuatTest, AxisAngleRotationMatchesMatrix) {
  util::Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    const Vec3 axis = random_unit(rng);
    const double angle = rng.uniform(-3.0, 3.0);
    const Quat q = Quat::from_axis_angle(axis, angle);
    const Mat3 m = Mat3::rotation(axis, angle);
    const Vec3 v = random_vec(rng);
    expect_near(q.to_matrix() * v, m * v, 1e-9);
  }
}

TEST(QuatTest, MatrixRoundTrip) {
  util::Rng rng(8);
  for (int i = 0; i < 100; ++i) {
    const Quat q = Quat::from_axis_angle(random_unit(rng),
                                         rng.uniform(-3.1, 3.1));
    const Quat q2 = Quat::from_matrix(q.to_matrix());
    // q and -q represent the same rotation.
    const Vec3 v = random_vec(rng);
    expect_near(q.to_matrix() * v, q2.to_matrix() * v, 1e-9);
  }
}

TEST(QuatTest, CompositionMatchesMatrixProduct) {
  util::Rng rng(9);
  const Quat a = Quat::from_axis_angle(random_unit(rng), 0.8);
  const Quat b = Quat::from_axis_angle(random_unit(rng), -1.3);
  const Vec3 v = random_vec(rng);
  expect_near((a * b).to_matrix() * v, a.to_matrix() * (b.to_matrix() * v),
              1e-9);
}

TEST(QuatTest, SlerpEndpointsAndMidpoint) {
  const Quat a = Quat::identity();
  const Quat b = Quat::from_axis_angle({0, 0, 1}, 1.0);
  expect_near(slerp(a, b, 0.0).to_matrix() * Vec3{1, 0, 0},
              a.to_matrix() * Vec3{1, 0, 0}, 1e-9);
  expect_near(slerp(a, b, 1.0).to_matrix() * Vec3{1, 0, 0},
              b.to_matrix() * Vec3{1, 0, 0}, 1e-9);
  const Quat mid = slerp(a, b, 0.5);
  EXPECT_NEAR(angle_between(Quat::identity(), mid), 0.5, 1e-9);
}

TEST(QuatTest, SlerpShortestPath) {
  const Quat a = Quat::from_axis_angle({0, 1, 0}, 0.1);
  Quat b = Quat::from_axis_angle({0, 1, 0}, 0.3);
  // Negate b: same rotation, opposite sign — slerp must still go short way.
  b = {-b.w, -b.x, -b.y, -b.z};
  const Quat mid = slerp(a, b, 0.5);
  EXPECT_NEAR(angle_between(a, mid), 0.1, 1e-9);
}

// ---- Ray / Plane ----

TEST(RayTest, IntersectBasic) {
  const Ray ray{{0, 0, -1}, {0, 0, 1}};
  const Plane plane{{0, 0, 1}, {0, 0, 1}};
  const auto t = intersect(ray, plane);
  ASSERT_TRUE(t.has_value());
  EXPECT_DOUBLE_EQ(*t, 2.0);
}

TEST(RayTest, IntersectParallelIsNull) {
  const Ray ray{{0, 0, 0}, {1, 0, 0}};
  const Plane plane{{0, 0, 1}, {0, 0, 1}};
  EXPECT_FALSE(intersect(ray, plane).has_value());
}

TEST(RayTest, IntersectBehindRespectsForwardOnly) {
  const Ray ray{{0, 0, 2}, {0, 0, 1}};
  const Plane plane{{0, 0, 1}, {0, 0, 1}};
  EXPECT_FALSE(intersect(ray, plane, true).has_value());
  const auto t = intersect(ray, plane, false);
  ASSERT_TRUE(t.has_value());
  EXPECT_DOUBLE_EQ(*t, -1.0);
}

TEST(RayTest, ClosestPointAndDistance) {
  const Ray ray{{0, 0, 0}, {1, 0, 0}};
  expect_near(closest_point(ray, {5, 3, 0}), {5, 0, 0});
  EXPECT_DOUBLE_EQ(line_point_distance(ray, {5, 3, 4}), 5.0);
}

TEST(PlaneTest, SignedDistance) {
  const Plane plane{{0, 0, 2}, {0, 0, 1}};
  EXPECT_DOUBLE_EQ(plane.signed_distance({0, 0, 5}), 3.0);
  EXPECT_DOUBLE_EQ(plane.signed_distance({1, 1, 0}), -2.0);
}

// ---- reflect ----

TEST(ReflectTest, DirNormalIncidence) {
  expect_near(reflect_dir({0, 0, 1}, {0, 0, 1}), {0, 0, -1});
}

TEST(ReflectTest, Dir45Degrees) {
  const Vec3 in = Vec3{1, 0, -1}.normalized();
  expect_near(reflect_dir(in, {0, 0, 1}), Vec3{1, 0, 1}.normalized());
}

TEST(ReflectTest, PreservesNorm) {
  util::Rng rng(10);
  for (int i = 0; i < 100; ++i) {
    const Vec3 d = random_unit(rng);
    const Vec3 n = random_unit(rng);
    EXPECT_NEAR(reflect_dir(d, n).norm(), 1.0, kTol);
  }
}

TEST(ReflectTest, Involution) {
  util::Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    const Vec3 d = random_unit(rng);
    const Vec3 n = random_unit(rng);
    expect_near(reflect_dir(reflect_dir(d, n), n), d, 1e-9);
  }
}

TEST(ReflectTest, RayOriginMovesToMirror) {
  const Ray incoming{{0, 0, -2}, {0, 0, 1}};
  const Plane mirror{{0, 0, 0}, Vec3{0, -1, 1}.normalized()};
  const auto out = reflect(incoming, mirror);
  ASSERT_TRUE(out.has_value());
  expect_near(out->origin, {0, 0, 0});
  expect_near(out->dir, {0, 1, 0});
}

TEST(ReflectTest, AngleOfIncidenceEqualsReflection) {
  util::Rng rng(12);
  for (int i = 0; i < 100; ++i) {
    const Vec3 n = random_unit(rng);
    Vec3 d = random_unit(rng);
    if (d.dot(n) > -0.05) d = reflect_dir(d, n);  // ensure incoming side
    if (std::abs(d.dot(n)) < 0.05) continue;
    const Vec3 r = reflect_dir(d, n);
    EXPECT_NEAR(std::abs(d.dot(n)), std::abs(r.dot(n)), 1e-9);
  }
}

TEST(ReflectTest, MissesParallelMirror) {
  const Ray incoming{{0, 0, 0}, {1, 0, 0}};
  const Plane mirror{{0, 0, 5}, {0, 0, 1}};
  EXPECT_FALSE(reflect(incoming, mirror).has_value());
}

// ---- Pose ----

TEST(PoseTest, IdentityActsTrivially) {
  const Pose p = Pose::identity();
  expect_near(p.apply({1, 2, 3}), {1, 2, 3});
}

TEST(PoseTest, ApplyRotatesThenTranslates) {
  const Pose p{Mat3::rotation({0, 0, 1}, util::kPi / 2), {10, 0, 0}};
  expect_near(p.apply({1, 0, 0}), {10, 1, 0});
  expect_near(p.apply_dir({1, 0, 0}), {0, 1, 0});
}

TEST(PoseTest, InverseUndoes) {
  util::Rng rng(13);
  for (int i = 0; i < 50; ++i) {
    const Pose p{Mat3::rotation(random_unit(rng), rng.uniform(-3, 3)),
                 random_vec(rng, 2.0)};
    const Vec3 v = random_vec(rng, 3.0);
    expect_near(p.inverse().apply(p.apply(v)), v, 1e-9);
  }
}

TEST(PoseTest, CompositionAssociative) {
  util::Rng rng(14);
  const auto rand_pose = [&rng] {
    return Pose{Mat3::rotation(random_unit(rng), rng.uniform(-3, 3)),
                random_vec(rng, 2.0)};
  };
  const Pose a = rand_pose(), b = rand_pose(), c = rand_pose();
  const Vec3 v = random_vec(rng);
  expect_near(((a * b) * c).apply(v), (a * (b * c)).apply(v), 1e-9);
  expect_near((a * b).apply(v), a.apply(b.apply(v)), 1e-9);
}

TEST(PoseTest, ParamsRoundTrip) {
  util::Rng rng(15);
  for (int i = 0; i < 50; ++i) {
    const Pose p{Mat3::rotation(random_unit(rng), rng.uniform(0.01, 3.0)),
                 random_vec(rng, 2.0)};
    const Pose q = Pose::from_params(p.params());
    EXPECT_NEAR(translation_distance(p, q), 0.0, 1e-9);
    EXPECT_NEAR(rotation_distance(p, q), 0.0, 1e-7);
  }
}

TEST(PoseTest, ApplyRayAndPlane) {
  const Pose p{Mat3::rotation({0, 1, 0}, util::kPi / 2), {0, 0, 5}};
  const Ray ray{{0, 0, 0}, {0, 0, 1}};
  const Ray moved = p.apply(ray);
  expect_near(moved.origin, {0, 0, 5});
  expect_near(moved.dir, {1, 0, 0});
  const Plane plane{{0, 0, 1}, {0, 0, 1}};
  const Plane moved_plane = p.apply(plane);
  expect_near(moved_plane.normal, {1, 0, 0});
}

TEST(PoseTest, Distances) {
  const Pose a{Mat3::identity(), {0, 0, 0}};
  const Pose b{Mat3::rotation({0, 0, 1}, 0.5), {3, 4, 0}};
  EXPECT_DOUBLE_EQ(translation_distance(a, b), 5.0);
  EXPECT_NEAR(rotation_distance(a, b), 0.5, 1e-9);
}

TEST(PoseTest, FromQuatMatchesMatrix) {
  const Quat q = Quat::from_axis_angle({0, 1, 0}, 0.7);
  const Pose p = Pose::from_quat(q, {1, 2, 3});
  expect_near(p.apply({1, 0, 0}), q.to_matrix() * Vec3{1, 0, 0} + Vec3{1, 2, 3},
              1e-9);
  // rotation_quat round-trips (up to sign).
  const Quat q2 = p.rotation_quat();
  expect_near(q2.to_matrix() * Vec3{0, 0, 1}, q.to_matrix() * Vec3{0, 0, 1},
              1e-9);
}

// ---- The rotation bound: sound wherever it is finite ----

/// The upper bound on rotation_distance(a, b), composed from its two steps.
double rotation_bound(const Pose& a, const Pose& b) {
  return rotation_bound_from_q(rotation_bound_q(a, b));
}

/// Checks rotation_bound(a, b) >= rotation_distance(a, b) over
/// `pairs` pose pairs from `make`, where the bound is finite; returns how
/// many pairs had a finite bound.  Reports the first counterexample.
template <typename MakePair>
int expect_bound_sound(int pairs, MakePair&& make) {
  int finite = 0, unsound = 0;
  for (int i = 0; i < pairs; ++i) {
    const auto [a, b] = make(i);
    const double bound = rotation_bound(a, b);
    if (!std::isfinite(bound)) continue;
    ++finite;
    const double exact = rotation_distance(a, b);
    if (exact > bound && unsound++ == 0) {
      ADD_FAILURE() << "pair " << i << ": bound " << bound << " below "
                    << exact << " (" << (exact - bound) / exact << " rel)";
    }
  }
  EXPECT_EQ(unsound, 0);
  return finite;
}

/// A random orientation composed with a rotation by `angle` about a random
/// axis: the rounding of both products is what the bound has to cover.
std::pair<Pose, Pose> pair_at_angle(util::Rng& rng, double angle) {
  const Mat3 base = Mat3::rotation(random_unit(rng), rng.uniform(0.0, util::kPi));
  return {Pose{base, {}},
          Pose{base * Mat3::rotation(random_unit(rng), angle), {}}};
}

TEST(PoseTest, RotationDistanceBoundIsSoundAtLogUniformAngles) {
  util::Rng rng(22);
  const double lo = std::log(1e-12), hi = std::log(util::kPi);
  const int finite = expect_bound_sound(800000, [&](int) {
    return pair_at_angle(rng, std::exp(rng.uniform(lo, hi)));
  });
  // Angles up to ~pi/3 get a finite bound: most of the log range.
  EXPECT_GT(finite, 700000);
}

TEST(PoseTest, RotationDistanceBoundIsSoundForIdenticalPoses) {
  util::Rng rng(23);
  const int finite = expect_bound_sound(100000, [&](int) {
    const Pose a{Mat3::rotation(random_unit(rng), rng.uniform(0.0, util::kPi)),
                 {}};
    return std::pair{a, a};
  });
  EXPECT_EQ(finite, 100000);
}

TEST(PoseTest, RotationDistanceBoundIsSoundNearItsCutoff) {
  // q = 2(1 - cos θ) reaches 1 at θ = π/3, where the bound turns infinite.
  util::Rng rng(24);
  const int finite = expect_bound_sound(100000, [&](int) {
    return pair_at_angle(rng, util::kPi / 3.0 * (1.0 + rng.uniform(-1e-6, 1e-6)));
  });
  EXPECT_GT(finite, 10000);
  EXPECT_LT(finite, 90000);
}

TEST(PoseTest, RotationDistanceBoundIsSoundOffOrthonormality) {
  // Matrices ~1e-6 off orthonormal, as a rounded CSV quaternion gives.
  util::Rng rng(25);
  const auto perturbed = [&rng](Mat3 m) {
    for (auto& row : m.m) {
      for (double& v : row) v += 1e-6 * rng.normal();
    }
    return Pose{m, {}};
  };
  const double lo = std::log(1e-12), hi = std::log(1.0);
  const int finite = expect_bound_sound(100000, [&](int i) {
    const auto [a, b] = pair_at_angle(
        rng, i % 2 == 0 ? std::exp(rng.uniform(lo, hi)) : 0.0);
    return std::pair{perturbed(a.rotation()), perturbed(b.rotation())};
  });
  EXPECT_EQ(finite, 100000);
}

TEST(PoseTest, RotationDistanceBoundIsInfiniteForNonFiniteEntries) {
  // NaN and ±inf entries must take the caller's exact path.
  util::Rng rng(26);
  const double specials[] = {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()};
  for (const double special : specials) {
    for (int side = 0; side < 2; ++side) {
      for (int entry = 0; entry < 9; ++entry) {
        auto [a, b] = pair_at_angle(rng, rng.uniform(0.0, 0.1));
        Mat3 m = (side == 0 ? a : b).rotation();
        m.m[entry / 3][entry % 3] = special;
        (side == 0 ? a : b) = Pose{m, {}};
        EXPECT_FALSE(std::isfinite(rotation_bound(a, b)))
            << special << " at side " << side << " entry " << entry;
      }
    }
  }
}

// Parameterized sweep: pose round trips across rotation magnitudes.
class PoseParamsSweep : public ::testing::TestWithParam<double> {};

TEST_P(PoseParamsSweep, RoundTripAtAngle) {
  util::Rng rng(16);
  const double angle = GetParam();
  for (int i = 0; i < 10; ++i) {
    const Pose p{Mat3::rotation(random_unit(rng), angle), random_vec(rng)};
    const Pose q = Pose::from_params(p.params());
    EXPECT_NEAR(rotation_distance(p, q), 0.0, 1e-6);
    EXPECT_NEAR(translation_distance(p, q), 0.0, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Angles, PoseParamsSweep,
                         ::testing::Values(1e-6, 0.01, 0.5, 1.5, 2.8, 3.1,
                                           3.14));

}  // namespace
}  // namespace cyclops::geom
