#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "core/exhaustive_aligner.hpp"
#include "sim/prototype.hpp"
#include "sim/scene.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

namespace cyclops::sim {
namespace {

Prototype make_10g(std::uint64_t seed = 42) {
  return make_prototype(seed, prototype_10g_config());
}

TEST(PrototypeTest, GroundTruthConsistency) {
  Prototype proto = make_10g();
  // true_map_tx must take a K-space point of the TX GMA to its VR-space
  // location: check on the mirror-2 anchor q2.
  const geom::Vec3 q2_local = proto.tx_galvo_truth.q2;
  const geom::Vec3 q2_k = proto.k_from_tx_gma.apply(q2_local);
  const geom::Vec3 q2_world = proto.scene.tx().mount().apply(q2_local);
  const geom::Vec3 via_map = proto.true_map_tx.apply(q2_k);
  const geom::Vec3 via_world = proto.vr_from_world.apply(q2_world);
  EXPECT_NEAR(geom::distance(via_map, via_world), 0.0, 1e-9);
}

TEST(PrototypeTest, RxMappingConsistency) {
  Prototype proto = make_10g();
  const geom::Vec3 q2_local = proto.rx_galvo_truth.q2;
  const geom::Vec3 q2_k = proto.k_from_rx_gma.apply(q2_local);
  // Through the learnable chain: VR = Psi * M_rx * K.
  const geom::Pose psi =
      proto.vr_from_world * proto.nominal_rig_pose * proto.x_from_rig;
  const geom::Vec3 via_map = (psi * proto.true_map_rx).apply(q2_k);
  // Through the physical chain.
  const geom::Vec3 world =
      (proto.nominal_rig_pose * proto.rx_mount_in_rig).apply(q2_local);
  EXPECT_NEAR(geom::distance(via_map, proto.vr_from_world.apply(world)), 0.0,
              1e-9);
}

TEST(PrototypeTest, DeterministicForSeed) {
  Prototype a = make_10g(7);
  Prototype b = make_10g(7);
  EXPECT_NEAR(geom::distance(a.tx_galvo_truth.p0, b.tx_galvo_truth.p0), 0.0,
              0.0);
  Prototype c = make_10g(8);
  EXPECT_GT(geom::distance(a.tx_galvo_truth.p0, c.tx_galvo_truth.p0), 0.0);
}

TEST(PrototypeTest, LinkRangeInPaperBand) {
  Prototype proto = make_10g();
  const double range = geom::distance(
      proto.scene.tx().mount().translation(),
      proto.nominal_rig_pose.translation());
  EXPECT_GT(range, 1.4);
  EXPECT_LT(range, 2.1);
}

TEST(SceneTest, AlignedLinkReachesPeakPower) {
  Prototype proto = make_10g();
  util::ThreadPool pool(2);
  const core::ExhaustiveAligner aligner({}, pool);
  const core::AlignResult r = aligner.align(proto.scene, {});
  ASSERT_TRUE(r.converged()) << core::to_string(r.status);
  // Table 1: peak received power of the diverging design is ~-10 dBm.
  EXPECT_GT(r.power_dbm, -13.0);
  EXPECT_LT(r.power_dbm, -7.0);
}

TEST(SceneTest, ZeroVoltagesAreNotAligned) {
  Prototype proto = make_10g();
  util::ThreadPool pool(2);
  const core::ExhaustiveAligner aligner({}, pool);
  const core::AlignResult r = aligner.align(proto.scene, {});
  const double aligned = r.power_dbm;
  const double at_zero = proto.scene.received_power_dbm({});
  EXPECT_LT(at_zero, aligned);
}

TEST(SceneTest, ObservationGeometry) {
  Prototype proto = make_10g();
  util::ThreadPool pool(2);
  const core::ExhaustiveAligner aligner({}, pool);
  const core::AlignResult r = aligner.align(proto.scene, {});
  const LinkObservation obs = proto.scene.observe(r.voltages);
  EXPECT_TRUE(obs.beam_valid);
  EXPECT_FALSE(obs.occluded);
  EXPECT_LT(obs.delta_r, 2e-3);
  EXPECT_LT(obs.psi, 2e-3);
  EXPECT_NEAR(obs.envelope_diameter, 20e-3, 6e-3);
  EXPECT_GT(obs.range, 1.4);
}

TEST(SceneTest, MisalignmentDropsPower) {
  Prototype proto = make_10g();
  util::ThreadPool pool(2);
  const core::ExhaustiveAligner aligner({}, pool);
  const core::AlignResult r = aligner.align(proto.scene, {});
  Voltages off = r.voltages;
  off.tx1 += 0.5;  // ~17 mrad beam deflection
  EXPECT_LT(proto.scene.received_power_dbm(off), r.power_dbm - 3.0);
}

TEST(SceneTest, RxRotationDropsPowerFasterThanTxTilt) {
  // The Table-1 asymmetry at the full-scene level: equal-size angular
  // errors hurt much more on the RX side than on the TX side.
  Prototype proto = make_10g();
  util::ThreadPool pool(2);
  const core::ExhaustiveAligner aligner({}, pool);
  const core::AlignResult r = aligner.align(proto.scene, {});

  const double angle = util::mrad_to_rad(8.0) / 2.0;  // 4 mrad mirror
  Voltages tx_off = r.voltages;
  tx_off.tx1 += angle / proto.tx_galvo_truth.theta1;  // volts for 4 mrad
  const double tx_power = proto.scene.received_power_dbm(tx_off);

  Voltages rx_off = r.voltages;
  rx_off.rx1 += angle / proto.rx_galvo_truth.theta1;
  const double rx_power = proto.scene.received_power_dbm(rx_off);

  // Steering the RX mirror breaks the incidence angle (tight); steering
  // the TX mirror only slides the wide envelope.
  EXPECT_LT(rx_power, tx_power);
}

TEST(SceneTest, OccluderBlocksLink) {
  Prototype proto = make_10g();
  util::ThreadPool pool(2);
  const core::ExhaustiveAligner aligner({}, pool);
  const core::AlignResult r = aligner.align(proto.scene, {});
  ASSERT_TRUE(std::isfinite(r.power_dbm));

  // Put a head-sized occluder in the middle of the path.
  const geom::Vec3 mid =
      (proto.scene.tx().mount().translation() +
       proto.nominal_rig_pose.translation()) *
      0.5;
  proto.scene.add_occluder({mid, 0.12});
  const LinkObservation obs = proto.scene.observe(r.voltages);
  EXPECT_TRUE(obs.occluded);
  EXPECT_TRUE(std::isinf(obs.power.rx_power_dbm));

  proto.scene.clear_occluders();
  EXPECT_FALSE(proto.scene.observe(r.voltages).occluded);
}

TEST(SceneTest, SmallOccluderOffPathDoesNotBlock) {
  Prototype proto = make_10g();
  util::ThreadPool pool(2);
  const core::ExhaustiveAligner aligner({}, pool);
  const core::AlignResult r = aligner.align(proto.scene, {});
  proto.scene.add_occluder({{5.0, 5.0, 5.0}, 0.2});
  EXPECT_FALSE(proto.scene.observe(r.voltages).occluded);
}

TEST(SceneTest, RigPoseMovesRxAssembly) {
  Prototype proto = make_10g();
  const geom::Pose before = proto.scene.rx_world().mount();
  geom::Pose moved = proto.nominal_rig_pose;
  moved = geom::Pose{moved.rotation(),
                     moved.translation() + geom::Vec3{0.1, 0.0, 0.0}};
  proto.scene.set_rig_pose(moved);
  const geom::Pose after = proto.scene.rx_world().mount();
  EXPECT_NEAR(geom::translation_distance(before, after), 0.1, 1e-9);

  // The scene keeps its world-mounted RX current: after set_rig_pose and
  // after apply_rig_flex (set_rx_mount_in_rig), observe() equals the same
  // call on a scene freshly built in the same state, bit for bit.
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  const auto expect_fresh = [&](const Scene& scene) {
    const Scene fresh(scene.config(), scene.tx(), scene.rx_in_rig(),
                      scene.rig_pose());
    for (const Voltages& v : {Voltages{}, Voltages{0.4, -0.3, 0.2, -0.1},
                              Voltages{-1.0, 0.8, 1.5, -0.6}}) {
      const LinkObservation got = scene.observe(v);
      const LinkObservation want = fresh.observe(v);
      EXPECT_EQ(bits(got.power.rx_power_dbm), bits(want.power.rx_power_dbm));
      EXPECT_EQ(bits(got.delta_r), bits(want.delta_r));
      EXPECT_EQ(bits(got.psi), bits(want.psi));
      EXPECT_EQ(bits(got.envelope_diameter), bits(want.envelope_diameter));
      EXPECT_EQ(bits(got.range), bits(want.range));
      EXPECT_EQ(got.beam_valid, want.beam_valid);
    }
  };
  expect_fresh(proto.scene);
  util::Rng rng(3);
  proto.apply_rig_flex(rng);
  expect_fresh(proto.scene);
  proto.scene.set_rig_pose(proto.nominal_rig_pose);
  expect_fresh(proto.scene);
}

TEST(SceneTest, RigMotionBreaksAlignment) {
  Prototype proto = make_10g();
  util::ThreadPool pool(2);
  const core::ExhaustiveAligner aligner({}, pool);
  const core::AlignResult r = aligner.align(proto.scene, {});
  // Rotate the rig by ~3x the RX angular tolerance.
  const geom::Pose rotated{
      geom::Mat3::rotation({1, 0, 0}, util::mrad_to_rad(20.0)) *
          proto.nominal_rig_pose.rotation(),
      proto.nominal_rig_pose.translation()};
  proto.scene.set_rig_pose(rotated);
  EXPECT_LT(proto.scene.received_power_dbm(r.voltages),
            proto.scene.config().sfp.rx_sensitivity_dbm);
}

TEST(SceneTest, PhotodiodesSeeAlignedBeam) {
  Prototype proto = make_10g();
  util::ThreadPool pool(2);
  const core::ExhaustiveAligner aligner({}, pool);
  const core::AlignResult r = aligner.align(proto.scene, {});
  const optics::QuadReading reading = proto.scene.photodiodes(r.voltages);
  EXPECT_GT(reading.sum(), 0.0);
  // Roughly centered beam: small normalized errors.
  EXPECT_LT(std::abs(reading.error_x()), 0.5);
  EXPECT_LT(std::abs(reading.error_y()), 0.5);
}

TEST(SceneTest, RigFlexPerturbsMountSlightly) {
  Prototype proto = make_10g();
  util::Rng rng(5);
  const geom::Pose before = proto.scene.rx_in_rig().mount();
  proto.apply_rig_flex(rng);
  const geom::Pose after = proto.scene.rx_in_rig().mount();
  const double moved = geom::translation_distance(before, after);
  EXPECT_GT(moved, 0.0);
  EXPECT_LT(moved, 3e-3);
}

TEST(SceneTest, Prototype25gAlignsAboveSensitivity) {
  Prototype proto = make_prototype(42, prototype_25g_config());
  util::ThreadPool pool(2);
  const core::ExhaustiveAligner aligner({}, pool);
  const core::AlignResult r = aligner.align(proto.scene, {});
  ASSERT_TRUE(r.converged()) << core::to_string(r.status);
  // The 25G design runs on a deliberately thin margin (~5 dB at peak).
  EXPECT_GT(r.power_dbm, proto.scene.config().sfp.rx_sensitivity_dbm + 3.0);
  EXPECT_LT(r.power_dbm, 0.0);
}

// Aligned power is reproducible across prototypes (different manufactured
// units land near the same design point).
class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweep, AlignedPowerNearDesignPoint) {
  Prototype proto = make_10g(GetParam());
  util::ThreadPool pool(2);
  const core::ExhaustiveAligner aligner({}, pool);
  const core::AlignResult r = aligner.align(proto.scene, {});
  ASSERT_TRUE(r.converged()) << core::to_string(r.status);
  EXPECT_GT(r.power_dbm, -14.0);
  EXPECT_LT(r.power_dbm, -6.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace cyclops::sim
