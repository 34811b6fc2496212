#include "opt/linalg.hpp"

#include <cmath>

namespace cyclops::opt {

Matrix normal_matrix(const Matrix& a) {
  // Streams A row by row into the upper triangle.  Each entry still sums
  // its terms in ascending row order from 0.0, so every sum is
  // bit-identical to the column-pair dot product.
  const std::size_t cols = a.cols();
  Matrix n(cols, cols);
  for (std::size_t k = 0; k < a.rows(); ++k) {
    for (std::size_t i = 0; i < cols; ++i) {
      const double aki = a(k, i);
      for (std::size_t j = i; j < cols; ++j) n(i, j) += aki * a(k, j);
    }
  }
  for (std::size_t i = 0; i < cols; ++i) {
    for (std::size_t j = i + 1; j < cols; ++j) n(j, i) = n(i, j);
  }
  return n;
}

std::vector<double> transpose_times(const Matrix& a, std::span<const double> b) {
  std::vector<double> out(a.cols(), 0.0);
  for (std::size_t k = 0; k < a.rows(); ++k) {
    for (std::size_t j = 0; j < a.cols(); ++j) out[j] += a(k, j) * b[k];
  }
  return out;
}

bool solve_spd(const Matrix& m, std::span<const double> b,
               std::vector<double>& x) {
  const std::size_t n = m.rows();
  Matrix l(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double sum = m(i, j);
      for (std::size_t k = 0; k < j; ++k) sum -= l(i, k) * l(j, k);
      if (i == j) {
        if (sum <= 0.0) return false;
        l(i, j) = std::sqrt(sum);
      } else {
        l(i, j) = sum / l(j, j);
      }
    }
  }
  // Forward substitution L y = b.
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double sum = b[i];
    for (std::size_t k = 0; k < i; ++k) sum -= l(i, k) * y[k];
    y[i] = sum / l(i, i);
  }
  // Back substitution L^T x = y.
  x.assign(n, 0.0);
  for (std::size_t ii = n; ii-- > 0;) {
    double sum = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) sum -= l(k, ii) * x[k];
    x[ii] = sum / l(ii, ii);
  }
  return true;
}

}  // namespace cyclops::opt
