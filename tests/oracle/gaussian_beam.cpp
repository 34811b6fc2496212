#include "gaussian_beam.hpp"

#include <cmath>

#include "util/units.hpp"

namespace cyclops::optics {

GaussianBeam::GaussianBeam(double waist_radius, double wavelength)
    : w0_(waist_radius), lambda_(wavelength) {}

double GaussianBeam::rayleigh_range() const noexcept {
  return util::kPi * w0_ * w0_ / lambda_;
}

double GaussianBeam::radius_at(double z) const noexcept {
  const double zr = rayleigh_range();
  const double ratio = z / zr;
  return w0_ * std::sqrt(1.0 + ratio * ratio);
}

double GaussianBeam::divergence_half_angle() const noexcept {
  return lambda_ / (util::kPi * w0_);
}

double GaussianBeam::power_fraction_within(double r, double z) const noexcept {
  const double w = radius_at(z);
  return 1.0 - std::exp(-2.0 * r * r / (w * w));
}

double GaussianBeam::relative_intensity(double r, double z) const noexcept {
  const double w = radius_at(z);
  const double axial = (w0_ * w0_) / (w * w);
  return axial * std::exp(-2.0 * r * r / (w * w));
}

}  // namespace cyclops::optics
