// Wave-optics cross-validation: the FFT substrate, scalar-field
// propagation against the analytic Gaussian-beam law, and overlap-integral
// coupling against the Gaussian misalignment penalties that the calibrated
// parametric model (optics/coupling.hpp) assumes.
#include <gtest/gtest.h>

#include <cmath>

#include "fft.hpp"
#include "field.hpp"
#include "gaussian_beam.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace cyclops {
namespace {

// ---- FFT ----

TEST(FftTest, DeltaTransformsToFlat) {
  std::vector<util::Complex> data(8, {0.0, 0.0});
  data[0] = {1.0, 0.0};
  util::fft(data);
  for (const auto& x : data) {
    EXPECT_NEAR(x.real(), 1.0, 1e-12);
    EXPECT_NEAR(x.imag(), 0.0, 1e-12);
  }
}

TEST(FftTest, SingleToneLandsInOneBin) {
  const std::size_t n = 64;
  std::vector<util::Complex> data(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double phase = 2.0 * util::kPi * 5.0 * static_cast<double>(i) /
                         static_cast<double>(n);
    data[i] = {std::cos(phase), std::sin(phase)};
  }
  util::fft(data);
  for (std::size_t i = 0; i < n; ++i) {
    if (i == 5) {
      EXPECT_NEAR(std::abs(data[i]), static_cast<double>(n), 1e-9);
    } else {
      EXPECT_NEAR(std::abs(data[i]), 0.0, 1e-9);
    }
  }
}

TEST(FftTest, InverseRoundTrip) {
  util::Rng rng(1);
  std::vector<util::Complex> data(128);
  for (auto& x : data) x = {rng.normal(), rng.normal()};
  const auto original = data;
  util::fft(data, false);
  util::fft(data, true);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(data[i].real(), original[i].real(), 1e-10);
    EXPECT_NEAR(data[i].imag(), original[i].imag(), 1e-10);
  }
}

TEST(FftTest, ParsevalHolds) {
  util::Rng rng(2);
  std::vector<util::Complex> data(256);
  double time_energy = 0.0;
  for (auto& x : data) {
    x = {rng.normal(), rng.normal()};
    time_energy += std::norm(x);
  }
  util::fft(data);
  double freq_energy = 0.0;
  for (const auto& x : data) freq_energy += std::norm(x);
  EXPECT_NEAR(freq_energy / data.size(), time_energy,
              1e-9 * time_energy);
}

TEST(FftTest, RejectsNonPowerOfTwo) {
  std::vector<util::Complex> data(6);
  EXPECT_THROW(util::fft(data), std::invalid_argument);
}

TEST(Fft2Test, RoundTrip2d) {
  util::Rng rng(3);
  const std::size_t n = 16;
  std::vector<util::Complex> data(n * n);
  for (auto& x : data) x = {rng.normal(), rng.normal()};
  const auto original = data;
  util::fft2(data, n, false);
  util::fft2(data, n, true);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(data[i].real(), original[i].real(), 1e-10);
  }
}

// ---- Field propagation vs analytic Gaussian-beam law ----

constexpr double kWavelength = 1550e-9;

TEST(FieldTest, GaussianSecondMomentMatchesWaist) {
  const double w0 = 1.0e-3;
  const optics::Field field =
      optics::Field::gaussian(256, 40e-6, kWavelength, w0);
  EXPECT_NEAR(field.second_moment_radius(), w0, w0 * 0.02);
}

TEST(FieldTest, PropagationConservesPower) {
  const optics::Field initial =
      optics::Field::gaussian(256, 40e-6, kWavelength, 1.0e-3);
  optics::Field field = initial;
  field.propagate(2.0);
  EXPECT_NEAR(field.power(), initial.power(), initial.power() * 1e-9);
}

TEST(FieldTest, SpreadingMatchesGaussianBeamFormula) {
  // The wave-optics check of gaussian_beam.cpp: propagate a small
  // waist far enough to diverge measurably and compare w(z).
  const double w0 = 0.5e-3;
  const optics::GaussianBeam analytic(w0, kWavelength);
  for (double z : {0.5, 1.0, 2.0}) {
    optics::Field field =
        optics::Field::gaussian(512, 30e-6, kWavelength, w0);
    field.propagate(z);
    const double expected = analytic.radius_at(z);
    EXPECT_NEAR(field.second_moment_radius(), expected, expected * 0.05)
        << "z = " << z;
  }
}

TEST(FieldTest, CollimatedDesignBarelySpreads) {
  // The justification for the constant-diameter collimated envelope: a
  // 5 mm waist spreads < 1 % over the 2 m link.
  optics::Field field = optics::Field::gaussian(256, 120e-6, kWavelength,
                                                5.0e-3);
  const double before = field.second_moment_radius();
  field.propagate(2.0);
  EXPECT_NEAR(field.second_moment_radius(), before, before * 0.01);
}

// ---- Overlap coupling vs the parametric model's Gaussian penalties ----

TEST(OverlapTest, PerfectModeMatchIsUnity) {
  const auto a = optics::Field::gaussian(128, 40e-6, kWavelength, 1.0e-3);
  EXPECT_NEAR(optics::overlap_coupling(a, a), 1.0, 1e-12);
}

TEST(OverlapTest, LateralOffsetPenaltyIsGaussian) {
  // Analytic: eta = exp(-d^2 / w0^2) for two equal Gaussians offset by d.
  const double w0 = 1.0e-3;
  const auto reference =
      optics::Field::gaussian(128, 40e-6, kWavelength, w0);
  for (double d : {0.2e-3, 0.5e-3, 1.0e-3}) {
    const auto shifted =
        optics::Field::gaussian(128, 40e-6, kWavelength, w0, d, 0.0);
    const double expected = std::exp(-d * d / (w0 * w0));
    EXPECT_NEAR(optics::overlap_coupling(reference, shifted), expected,
                0.02 * expected)
        << "d = " << d;
  }
}

TEST(OverlapTest, TiltPenaltyIsGaussian) {
  // Analytic: eta = exp(-(theta / theta_div)^2), theta_div = lambda/(pi w0).
  const double w0 = 1.0e-3;
  const double theta_div = kWavelength / (util::kPi * w0);
  const auto reference =
      optics::Field::gaussian(256, 20e-6, kWavelength, w0);
  for (double theta : {0.3 * theta_div, 0.7 * theta_div, 1.2 * theta_div}) {
    const auto tilted = optics::Field::gaussian(256, 20e-6, kWavelength, w0,
                                                0.0, 0.0, theta, 0.0);
    const double expected =
        std::exp(-(theta * theta) / (theta_div * theta_div));
    EXPECT_NEAR(optics::overlap_coupling(reference, tilted), expected,
                0.03 * expected)
        << "theta = " << theta;
  }
}

TEST(OverlapTest, ModeSizeMismatchPenalty) {
  // Analytic: eta = (2 w1 w2 / (w1^2 + w2^2))^2.
  const double w1 = 1.0e-3, w2 = 1.8e-3;
  const auto a = optics::Field::gaussian(128, 60e-6, kWavelength, w1);
  const auto b = optics::Field::gaussian(128, 60e-6, kWavelength, w2);
  const double expected =
      std::pow(2.0 * w1 * w2 / (w1 * w1 + w2 * w2), 2.0);
  EXPECT_NEAR(optics::overlap_coupling(a, b), expected, 0.02 * expected);
}

TEST(OverlapTest, ParametricModelShapeIsConsistent) {
  // The calibrated coupling model penalizes misalignment as
  // exp(-2 (d/w_lat)^2): i.e. Gaussian in d — the same *form* wave optics
  // gives (with a scale the calibration absorbs).  Verify log-linearity in
  // d^2 for the wave-optics result.
  const double w0 = 1.0e-3;
  const auto reference =
      optics::Field::gaussian(128, 40e-6, kWavelength, w0);
  const auto eta = [&](double d) {
    const auto shifted =
        optics::Field::gaussian(128, 40e-6, kWavelength, w0, d, 0.0);
    return optics::overlap_coupling(reference, shifted);
  };
  const double r1 = -std::log(eta(0.4e-3)) / (0.4e-3 * 0.4e-3);
  const double r2 = -std::log(eta(0.8e-3)) / (0.8e-3 * 0.8e-3);
  EXPECT_NEAR(r1, r2, 0.05 * r1);
}

}  // namespace
}  // namespace cyclops
