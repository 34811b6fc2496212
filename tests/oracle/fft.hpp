// Radix-2 complex FFT (iterative Cooley-Tukey), 1-D and square 2-D.
//
// Used by the wave-optics reference (field.hpp) to cross-check the
// parametric beam/coupling models against scalar diffraction.  Sizes are
// powers of two; throws otherwise.
#pragma once

#include <complex>
#include <vector>

namespace cyclops::util {

using Complex = std::complex<double>;

/// In-place FFT; `inverse` applies the 1/N-normalized inverse transform.
void fft(std::vector<Complex>& data, bool inverse = false);

/// In-place 2-D FFT of a row-major n x n grid.
void fft2(std::vector<Complex>& data, std::size_t n, bool inverse = false);

/// True iff n is a power of two (and nonzero).
constexpr bool is_pow2(std::size_t n) noexcept {
  return n != 0 && (n & (n - 1)) == 0;
}

}  // namespace cyclops::util
