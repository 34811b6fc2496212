#include "field.hpp"

#include <cmath>
#include <stdexcept>

#include "util/units.hpp"

namespace cyclops::optics {

Field::Field(std::size_t n, double pitch, double wavelength)
    : n_(n), pitch_(pitch), wavelength_(wavelength), data_(n * n) {
  if (!util::is_pow2(n)) throw std::invalid_argument("Field: n must be 2^k");
}

double Field::power() const {
  double sum = 0.0;
  for (const auto& e : data_) sum += std::norm(e);
  return sum * pitch_ * pitch_;
}

double Field::second_moment_radius() const {
  double sum = 0.0, sum_r2 = 0.0;
  for (std::size_t iy = 0; iy < n_; ++iy) {
    for (std::size_t ix = 0; ix < n_; ++ix) {
      const double intensity = std::norm(at(ix, iy));
      const double x = coord(ix);
      const double y = coord(iy);
      sum += intensity;
      sum_r2 += intensity * (x * x + y * y);
    }
  }
  if (sum <= 0.0) return 0.0;
  // Intensity ~ exp(-2 r^2 / w^2) has <r^2> = w^2 / 2, so w = sqrt(2<r^2>).
  return std::sqrt(2.0 * sum_r2 / sum);
}

void Field::propagate(double z) {
  util::fft2(data_, n_, /*inverse=*/false);
  const double k = 2.0 * util::kPi / wavelength_;
  const double df = 1.0 / (static_cast<double>(n_) * pitch_);
  for (std::size_t iy = 0; iy < n_; ++iy) {
    for (std::size_t ix = 0; ix < n_; ++ix) {
      // FFT frequency ordering: 0..n/2-1, -n/2..-1.
      const double fx =
          df * (ix < n_ / 2 ? static_cast<double>(ix)
                            : static_cast<double>(ix) -
                                  static_cast<double>(n_));
      const double fy =
          df * (iy < n_ / 2 ? static_cast<double>(iy)
                            : static_cast<double>(iy) -
                                  static_cast<double>(n_));
      const double kx = 2.0 * util::kPi * fx;
      const double ky = 2.0 * util::kPi * fy;
      // Paraxial transfer function (the common constant phase dropped).
      const double phase = -(kx * kx + ky * ky) * z / (2.0 * k);
      data_[iy * n_ + ix] *= util::Complex(std::cos(phase), std::sin(phase));
    }
  }
  util::fft2(data_, n_, /*inverse=*/true);
}

Field Field::gaussian(std::size_t n, double pitch, double wavelength,
                      double w0, double dx, double dy, double tx, double ty) {
  Field field(n, pitch, wavelength);
  const double k = 2.0 * util::kPi / wavelength;
  for (std::size_t iy = 0; iy < n; ++iy) {
    for (std::size_t ix = 0; ix < n; ++ix) {
      const double x = field.coord(ix) - dx;
      const double y = field.coord(iy) - dy;
      const double amplitude = std::exp(-(x * x + y * y) / (w0 * w0));
      // Linear phase = tilt.
      const double phase = k * (tx * field.coord(ix) + ty * field.coord(iy));
      field.at(ix, iy) =
          amplitude * util::Complex(std::cos(phase), std::sin(phase));
    }
  }
  return field;
}

double overlap_coupling(const Field& a, const Field& b) {
  if (a.n() != b.n()) throw std::invalid_argument("overlap: size mismatch");
  util::Complex inner(0.0, 0.0);
  double pa = 0.0, pb = 0.0;
  for (std::size_t iy = 0; iy < a.n(); ++iy) {
    for (std::size_t ix = 0; ix < a.n(); ++ix) {
      inner += a.at(ix, iy) * std::conj(b.at(ix, iy));
      pa += std::norm(a.at(ix, iy));
      pb += std::norm(b.at(ix, iy));
    }
  }
  if (pa <= 0.0 || pb <= 0.0) return 0.0;
  return std::norm(inner) / (pa * pb);
}

}  // namespace cyclops::optics
