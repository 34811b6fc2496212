// Scalar wave-optics on a sampled grid: Gaussian-field construction,
// paraxial angular-spectrum propagation, and overlap-integral coupling.
//
// This reference exists to *validate* the parametric envelope/coupling
// models used everywhere else (tests/wave_optics_test.cpp): free-space
// spreading must match the analytic GaussianBeam law, and mode-overlap
// coupling must reproduce the Gaussian misalignment penalties the
// calibrated model assumes.  No simulation path runs it.
#pragma once

#include <vector>

#include "fft.hpp"

namespace cyclops::optics {

/// A complex scalar field sampled on an n x n grid of physical pitch
/// `pitch` (meters), centered on the optical axis.
class Field {
 public:
  Field(std::size_t n, double pitch, double wavelength);

  std::size_t n() const noexcept { return n_; }
  double pitch() const noexcept { return pitch_; }
  double wavelength() const noexcept { return wavelength_; }

  util::Complex& at(std::size_t ix, std::size_t iy) {
    return data_[iy * n_ + ix];
  }
  const util::Complex& at(std::size_t ix, std::size_t iy) const {
    return data_[iy * n_ + ix];
  }

  /// Physical x coordinate of column ix (centered).
  double coord(std::size_t i) const {
    return (static_cast<double>(i) - static_cast<double>(n_) / 2.0) * pitch_;
  }

  /// Total power (sum |E|^2 * pitch^2).
  double power() const;

  /// 1/e^2 intensity radius estimated from the second moment.
  double second_moment_radius() const;

  /// Paraxial angular-spectrum propagation by distance z (meters).
  void propagate(double z);

  /// Gaussian mode of waist radius w0, laterally offset by (dx, dy) and
  /// tilted by (tx, ty) radians.
  static Field gaussian(std::size_t n, double pitch, double wavelength,
                        double w0, double dx = 0.0, double dy = 0.0,
                        double tx = 0.0, double ty = 0.0);

 private:
  std::size_t n_;
  double pitch_;
  double wavelength_;
  std::vector<util::Complex> data_;
};

/// Power coupling efficiency |<E1|E2>|^2 / (<E1|E1><E2|E2>) — the fraction
/// of E1's power accepted by mode E2 (e.g. the fiber's mode).
double overlap_coupling(const Field& a, const Field& b);

}  // namespace cyclops::optics
