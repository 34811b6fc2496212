#include <gtest/gtest.h>

#include <cmath>

#include "gaussian_beam.hpp"
#include "optics/beam.hpp"
#include "optics/coupling.hpp"
#include "optics/link_budget.hpp"
#include "optics/photodiode.hpp"
#include "optics/sfp.hpp"
#include "util/units.hpp"

namespace cyclops::optics {
namespace {

// ---- GaussianBeam ----

TEST(GaussianBeamTest, WaistIsMinimum) {
  const GaussianBeam beam(2e-3, 1550e-9);
  EXPECT_DOUBLE_EQ(beam.radius_at(0.0), 2e-3);
  EXPECT_GT(beam.radius_at(1.0), 2e-3);
  EXPECT_GT(beam.radius_at(10.0), beam.radius_at(1.0));
}

TEST(GaussianBeamTest, RayleighRange) {
  const GaussianBeam beam(2e-3, 1550e-9);
  const double zr = util::kPi * 4e-6 / 1550e-9;
  EXPECT_NEAR(beam.rayleigh_range(), zr, 1e-9);
  EXPECT_NEAR(beam.radius_at(zr), 2e-3 * std::numbers::sqrt2, 1e-9);
}

TEST(GaussianBeamTest, CollimatedDesignHasNegligibleSpreadOverLink) {
  // A 10 mm 1550 nm beam grows imperceptibly over 2 m — this justifies the
  // constant-diameter envelope for the collimated design.
  const GaussianBeam beam(5e-3, 1550e-9);
  EXPECT_LT(beam.radius_at(2.0) / beam.radius_at(0.0), 1.001);
}

TEST(GaussianBeamTest, DivergenceHalfAngle) {
  const GaussianBeam beam(1e-3, 1550e-9);
  EXPECT_NEAR(beam.divergence_half_angle(), 1550e-9 / (util::kPi * 1e-3),
              1e-12);
}

TEST(GaussianBeamTest, PowerFractionProperties) {
  const GaussianBeam beam(2e-3, 1550e-9);
  EXPECT_NEAR(beam.power_fraction_within(1e9, 0.0), 1.0, 1e-12);
  EXPECT_NEAR(beam.power_fraction_within(0.0, 0.0), 0.0, 1e-12);
  // Within one waist radius: 1 - e^-2 ≈ 86.5 %.
  EXPECT_NEAR(beam.power_fraction_within(2e-3, 0.0), 1.0 - std::exp(-2.0),
              1e-9);
}

TEST(GaussianBeamTest, IntensityFallsOffAxis) {
  const GaussianBeam beam(2e-3, 1550e-9);
  EXPECT_GT(beam.relative_intensity(0.0, 1.0),
            beam.relative_intensity(1e-3, 1.0));
}

// ---- BeamSpec / TracedBeam ----

TEST(BeamSpecTest, DivergingForReachesTarget) {
  const BeamSpec spec = BeamSpec::diverging_for(20e-3, 1.5, 2e-3);
  const TracedBeam beam = launch_beam({{0, 0, 0}, {0, 0, 1}}, spec);
  const double d = beam.envelope_diameter_at({0, 0, 1.5});
  EXPECT_NEAR(d, 20e-3, 0.5e-3);
}

TEST(BeamSpecTest, LaunchDiameterAtOrigin) {
  const BeamSpec spec = BeamSpec::diverging_for(20e-3, 1.5, 2e-3);
  const TracedBeam beam = launch_beam({{0, 0, 0}, {0, 0, 1}}, spec);
  EXPECT_NEAR(beam.envelope_diameter_at({0, 0, 0}), 2e-3, 1e-6);
}

TEST(BeamSpecTest, CollimatedConstantDiameter) {
  const TracedBeam beam =
      launch_beam({{0, 0, 0}, {0, 0, 1}}, BeamSpec::collimated(20e-3));
  EXPECT_DOUBLE_EQ(beam.envelope_diameter_at({0, 0, 0.1}), 20e-3);
  EXPECT_DOUBLE_EQ(beam.envelope_diameter_at({0, 0, 5.0}), 20e-3);
}

TEST(TracedBeamTest, ArrivingDirCollimatedIsChief) {
  const TracedBeam beam =
      launch_beam({{0, 0, 0}, {0, 0, 1}}, BeamSpec::collimated(20e-3));
  const geom::Vec3 dir = beam.arriving_dir_at({0.05, 0, 1.0});
  EXPECT_NEAR(dir.z, 1.0, 1e-12);
}

TEST(TracedBeamTest, ArrivingDirDivergingPointsFromApex) {
  const BeamSpec spec = BeamSpec::diverging_for(20e-3, 1.5, 2e-3);
  const TracedBeam beam = launch_beam({{0, 0, 0}, {0, 0, 1}}, spec);
  // Off-axis point: the arriving ray is tilted away from the chief.
  const geom::Vec3 p{0.05, 0, 1.5};
  const geom::Vec3 dir = beam.arriving_dir_at(p);
  EXPECT_GT(dir.x, 0.0);
  // And it must point from the apex through p.
  const geom::Vec3 expected = (p - beam.apex).normalized();
  EXPECT_NEAR(dir.x, expected.x, 1e-12);
  EXPECT_NEAR(dir.z, expected.z, 1e-12);
}

TEST(TracedBeamTest, KeyTxTiltInvariance) {
  // THE diverging-beam property behind Table 1: rotating the TX slides the
  // envelope but the ray arriving at a fixed point keeps (nearly) the same
  // direction, because it still emanates from (nearly) the same apex.
  const BeamSpec spec = BeamSpec::diverging_for(20e-3, 1.5, 2e-3);
  const geom::Vec3 p{0.0, 0.0, 1.5};

  const TracedBeam straight = launch_beam({{0, 0, 0}, {0, 0, 1}}, spec);
  const geom::Mat3 tilt = geom::Mat3::rotation({1, 0, 0}, 10e-3);
  const TracedBeam tilted =
      launch_beam({{0, 0, 0}, tilt * geom::Vec3{0, 0, 1}}, spec);

  const double dir_change = geom::angle_between(straight.arriving_dir_at(p),
                                                tilted.arriving_dir_at(p));
  // The apex sits ~0.17 m behind the launch point, so a 10 mrad tilt moves
  // it ~1.7 mm laterally; the arriving direction changes by ~1 mrad, an
  // order of magnitude less than the tilt itself.
  EXPECT_LT(dir_change, 2.5e-3);
  // The envelope, by contrast, moved by roughly tilt * range.
  EXPECT_GT(tilted.envelope_offset(p), 10e-3);
}

TEST(TracedBeamTest, EnvelopeOffsetIsPerpendicularDistance) {
  const TracedBeam beam =
      launch_beam({{0, 0, 0}, {0, 0, 1}}, BeamSpec::collimated(10e-3));
  EXPECT_NEAR(beam.envelope_offset({3e-3, 4e-3, 2.0}), 5e-3, 1e-12);
}

// ---- SFP catalog ----

TEST(SfpTest, CatalogSanity) {
  const SfpSpec zr = sfp_10g_zr();
  EXPECT_DOUBLE_EQ(zr.link_budget_db(), 25.0);
  EXPECT_DOUBLE_EQ(zr.goodput_gbps, 9.4);

  const SfpSpec lr = sfp28_lr();
  EXPECT_GT(lr.line_rate_gbps, zr.line_rate_gbps);
  // The paper: SFP28 budgets (12-18 dB) are far below the ZR's 25 dB.
  EXPECT_LT(lr.link_budget_db(), zr.link_budget_db());

  const SfpSpec er = sfp28_er();
  EXPECT_GT(er.link_budget_db(), lr.link_budget_db());
}

TEST(EdfaTest, OnlyAmplifiesCBand) {
  const Edfa amp{.gain_db = 17.0};
  EXPECT_DOUBLE_EQ(amp.gain_for(1550.0), 17.0);
  EXPECT_DOUBLE_EQ(amp.gain_for(1310.0), 0.0);  // the 25G LR predicament
}

// ---- coupling ----

TEST(CouplingTest, PerfectAlignmentHasNoMisalignmentLoss) {
  const LinkDesign design = diverging_10g();
  const CouplingResult r = coupling_loss_from_errors(
      design.receiver, 20e-3, 6e-3, design.beam.tail_factor, 0.0, 0.0);
  EXPECT_DOUBLE_EQ(r.lateral_db, 0.0);
  EXPECT_DOUBLE_EQ(r.angular_db, 0.0);
  EXPECT_GT(r.geometric_db, 0.0);
  EXPECT_GT(r.fixed_db, 0.0);
}

TEST(CouplingTest, LossMonotoneInLateralOffset) {
  const LinkDesign design = diverging_10g();
  double prev = -1.0;
  for (double dr = 0.0; dr <= 30e-3; dr += 2e-3) {
    const double total =
        coupling_loss_from_errors(design.receiver, 20e-3, 6e-3,
                                  design.beam.tail_factor, dr, 0.0)
            .total_db();
    EXPECT_GT(total, prev);
    prev = total;
  }
}

TEST(CouplingTest, LossMonotoneInAngle) {
  const LinkDesign design = diverging_10g();
  double prev = -1.0;
  for (double psi = 0.0; psi <= 15e-3; psi += 1e-3) {
    const double total =
        coupling_loss_from_errors(design.receiver, 20e-3, 6e-3,
                                  design.beam.tail_factor, 0.0, psi)
            .total_db();
    EXPECT_GT(total, prev);
    prev = total;
  }
}

TEST(CouplingTest, WiderBeamForgivesLateralError) {
  const LinkDesign design = diverging_10g();
  const double narrow =
      coupling_loss_from_errors(design.receiver, 10e-3, 3e-3,
                                design.beam.tail_factor, 5e-3, 0.0)
          .lateral_db;
  const double wide =
      coupling_loss_from_errors(design.receiver, 30e-3, 9e-3,
                                design.beam.tail_factor, 5e-3, 0.0)
          .lateral_db;
  EXPECT_GT(narrow, wide);
}

TEST(CouplingTest, GeometricLossGrowsWithDiameter) {
  const LinkDesign design = diverging_10g();
  double prev = -1.0;
  for (double d = 8e-3; d <= 40e-3; d += 4e-3) {
    const double g = coupling_loss_from_errors(design.receiver, d, 6e-3,
                                               design.beam.tail_factor, 0.0,
                                               0.0)
                         .geometric_db;
    EXPECT_GT(g, prev);
    prev = g;
  }
}

TEST(CouplingTest, EffectiveThetaAccSaturates) {
  const ReceiverDesign rx = diverging_10g().receiver;
  EXPECT_LT(effective_theta_acc(rx, 50e-3), rx.theta_sat * 1.0001);
  EXPECT_GT(effective_theta_acc(rx, 8e-3), effective_theta_acc(rx, 2e-3));
}

TEST(CouplingTest, DivergenceWidensAcceptance) {
  const ReceiverDesign rx = diverging_10g().receiver;
  EXPECT_GT(effective_theta_acc(rx, 6e-3), effective_theta_acc(rx, 0.0));
}

// ---- link budget ----

TEST(LinkBudgetTest, PowerArithmetic) {
  CouplingResult coupling;
  coupling.fixed_db = 10.0;
  const PowerReport report =
      compute_power(sfp_10g_zr(), Edfa{.gain_db = 17.0}, coupling, false);
  EXPECT_DOUBLE_EQ(report.rx_power_dbm, 0.0 + 17.0 - 10.0);
  EXPECT_TRUE(link_usable(report, sfp_10g_zr()));
}

TEST(LinkBudgetTest, BlockedPathIsUnusable) {
  const PowerReport report =
      compute_power(sfp_10g_zr(), Edfa{}, CouplingResult{}, true);
  EXPECT_TRUE(std::isinf(report.rx_power_dbm));
  EXPECT_FALSE(link_usable(report, sfp_10g_zr()));
}

TEST(LinkBudgetTest, MarginAgainstSensitivity) {
  CouplingResult coupling;
  coupling.fixed_db = 27.0;
  const PowerReport report =
      compute_power(sfp_10g_zr(), Edfa{.gain_db = 17.0}, coupling, false);
  EXPECT_DOUBLE_EQ(report.rx_power_dbm, -10.0);
  EXPECT_DOUBLE_EQ(report.margin_db(sfp_10g_zr()), 15.0);
}

// ---- calibrated presets vs Table 1 anchors ----

TEST(PresetTest, DivergingPeakPowerNearMinus10Dbm) {
  const LinkDesign design = diverging_10g(20e-3, 1.5);
  const CouplingResult c = coupling_loss_from_errors(
      design.receiver, 20e-3, design.beam.divergence_half_angle,
      design.beam.tail_factor, 0.0, 0.0);
  const PowerReport report =
      compute_power(sfp_10g_zr(), Edfa{.gain_db = 17.0}, c, false);
  EXPECT_NEAR(report.rx_power_dbm, -10.0, 1.0);
}

TEST(PresetTest, CollimatedPeakPowerNearPlus15Dbm) {
  const LinkDesign design = collimated_10g(20e-3);
  const CouplingResult c = coupling_loss_from_errors(
      design.receiver, 20e-3, 0.0, design.beam.tail_factor, 0.0, 0.0);
  const PowerReport report =
      compute_power(sfp_10g_zr(), Edfa{.gain_db = 17.0}, c, false);
  EXPECT_NEAR(report.rx_power_dbm, 15.0, 1.0);
}

TEST(PresetTest, DivergingBeatsCollimatedOnToleranceLosesOnPower) {
  // The Table 1 trade-off, expressed via the model: at equal misalignment
  // the diverging design loses less to misalignment but has a much lower
  // peak.
  const LinkDesign div = diverging_10g(20e-3, 1.5);
  const LinkDesign col = collimated_10g(20e-3);

  const double div_peak =
      17.0 - coupling_loss_from_errors(div.receiver, 20e-3,
                                       div.beam.divergence_half_angle,
                                       div.beam.tail_factor, 0.0, 0.0)
                 .total_db();
  const double col_peak =
      17.0 - coupling_loss_from_errors(col.receiver, 20e-3, 0.0,
                                       col.beam.tail_factor, 0.0, 0.0)
                 .total_db();
  EXPECT_GT(col_peak, div_peak + 20.0);

  const double psi = 4e-3;  // 4 mrad incidence error
  const double div_ang = coupling_loss_from_errors(
                             div.receiver, 20e-3,
                             div.beam.divergence_half_angle,
                             div.beam.tail_factor, 0.0, psi)
                             .angular_db;
  const double col_ang =
      coupling_loss_from_errors(col.receiver, 20e-3, 0.0,
                                col.beam.tail_factor, 0.0, psi)
          .angular_db;
  EXPECT_LT(div_ang, col_ang / 4.0);
}

// ---- photodiode ----

/// Normalized imbalance between two opposite diodes, in [-1, 1].
double imbalance(double plus, double minus) {
  return (plus - minus) / (plus + minus);
}

TEST(PhotodiodeTest, CenteredBeamBalancesDiodes) {
  const TracedBeam beam =
      launch_beam({{0, 0, -1.5}, {0, 0, 1}},
                  BeamSpec::diverging_for(20e-3, 1.5, 2e-3));
  const QuadPhotodiode quad(geom::Pose::identity(), 15e-3);
  const QuadReading r = quad.read(beam);
  EXPECT_GT(r.sum(), 0.0);
  EXPECT_NEAR(imbalance(r.currents[0], r.currents[1]), 0.0, 1e-9);
  EXPECT_NEAR(imbalance(r.currents[2], r.currents[3]), 0.0, 1e-9);
}

TEST(PhotodiodeTest, OffsetBeamShowsSignedError) {
  const TracedBeam beam =
      launch_beam({{5e-3, 0, -1.5}, {0, 0, 1}},
                  BeamSpec::diverging_for(20e-3, 1.5, 2e-3));
  const QuadPhotodiode quad(geom::Pose::identity(), 15e-3);
  const QuadReading r = quad.read(beam);
  // Beam center is toward the +x diode.
  EXPECT_GT(imbalance(r.currents[0], r.currents[1]), 0.0);
  EXPECT_NEAR(imbalance(r.currents[2], r.currents[3]), 0.0, 1e-9);
}

TEST(PhotodiodeTest, SumDropsWhenBeamWalksAway) {
  const QuadPhotodiode quad(geom::Pose::identity(), 15e-3);
  const BeamSpec spec = BeamSpec::diverging_for(20e-3, 1.5, 2e-3);
  const double centered =
      quad.read(launch_beam({{0, 0, -1.5}, {0, 0, 1}}, spec)).sum();
  const double offset =
      quad.read(launch_beam({{40e-3, 0, -1.5}, {0, 0, 1}}, spec)).sum();
  EXPECT_GT(centered, offset);
}

// Parameterized: the Fig 11 qualitative shape — RX tolerance has an
// interior optimum; TX tolerance keeps growing with diameter.
struct DiameterCase {
  double diameter;
};

class ToleranceShape : public ::testing::TestWithParam<double> {};

double rx_tolerance_mrad(double diameter) {
  const LinkDesign design = diverging_10g(diameter, 1.5);
  const double delta = design.beam.divergence_half_angle;
  const CouplingResult at_peak = coupling_loss_from_errors(
      design.receiver, diameter, delta, design.beam.tail_factor, 0.0, 0.0);
  const double peak = 17.0 + sfp_10g_zr().tx_power_dbm - at_peak.total_db();
  const double margin = peak - sfp_10g_zr().rx_sensitivity_dbm;
  if (margin <= 0.0) return 0.0;
  const double theta = effective_theta_acc(design.receiver, delta);
  return util::rad_to_mrad(theta * std::sqrt(margin / 8.686));
}

TEST(ToleranceShapeTest, RxToleranceHasInteriorPeak) {
  const double at_8 = rx_tolerance_mrad(8e-3);
  const double at_16 = rx_tolerance_mrad(16e-3);
  const double at_40 = rx_tolerance_mrad(40e-3);
  EXPECT_GT(at_16, at_8);
  EXPECT_GT(at_16, at_40);
  // Peak value in the Table 1 / Fig 11 ballpark (5.77 mrad).
  EXPECT_GT(at_16, 4.5);
  EXPECT_LT(at_16, 7.5);
}

TEST_P(ToleranceShape, MarginStaysPositiveAcrossSweep) {
  EXPECT_GT(rx_tolerance_mrad(GetParam()), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Diameters, ToleranceShape,
                         ::testing::Values(8e-3, 12e-3, 16e-3, 20e-3, 24e-3,
                                           28e-3, 32e-3, 40e-3));

}  // namespace
}  // namespace cyclops::optics
