#include "fft.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace cyclops::util {

void fft(std::vector<Complex>& data, bool inverse) {
  const std::size_t n = data.size();
  if (!is_pow2(n)) throw std::invalid_argument("fft: size must be 2^k");
  if (n <= 1) return;

  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }

  const double sign = inverse ? 1.0 : -1.0;
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle = sign * 2.0 * std::numbers::pi /
                         static_cast<double>(len);
    const Complex wlen(std::cos(angle), std::sin(angle));
    for (std::size_t i = 0; i < n; i += len) {
      Complex w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const Complex u = data[i + k];
        const Complex v = data[i + k + len / 2] * w;
        data[i + k] = u + v;
        data[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }

  if (inverse) {
    const double inv_n = 1.0 / static_cast<double>(n);
    for (auto& x : data) x *= inv_n;
  }
}

void fft2(std::vector<Complex>& data, std::size_t n, bool inverse) {
  if (data.size() != n * n) throw std::invalid_argument("fft2: bad size");
  std::vector<Complex> scratch(n);
  // Rows.
  for (std::size_t r = 0; r < n; ++r) {
    std::copy(data.begin() + static_cast<long>(r * n),
              data.begin() + static_cast<long>((r + 1) * n), scratch.begin());
    fft(scratch, inverse);
    std::copy(scratch.begin(), scratch.end(),
              data.begin() + static_cast<long>(r * n));
  }
  // Columns.
  for (std::size_t c = 0; c < n; ++c) {
    for (std::size_t r = 0; r < n; ++r) scratch[r] = data[r * n + c];
    fft(scratch, inverse);
    for (std::size_t r = 0; r < n; ++r) data[r * n + c] = scratch[r];
  }
}

}  // namespace cyclops::util
