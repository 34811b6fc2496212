#include "opt/linalg.hpp"

#include <cmath>

namespace cyclops::opt {
namespace {

constexpr std::size_t kTile = 4;

/// Entries [i0, i0 + BI) x [j0, j0 + BJ) of A^T A, each summed over A's
/// rows in ascending order from 0.0.  Constant tile sizes keep the sums
/// in registers.
template <std::size_t BI, std::size_t BJ>
void normal_tile(const Matrix& a, std::size_t i0, std::size_t j0, Matrix& n) {
  double sum[BI][BJ] = {};
  for (std::size_t k = 0; k < a.rows(); ++k) {
    double ai[BI] = {}, aj[BJ] = {};
    for (std::size_t i = 0; i < BI; ++i) ai[i] = a(k, i0 + i);
    for (std::size_t j = 0; j < BJ; ++j) aj[j] = a(k, j0 + j);
    for (std::size_t i = 0; i < BI; ++i) {
      for (std::size_t j = 0; j < BJ; ++j) sum[i][j] += ai[i] * aj[j];
    }
  }
  for (std::size_t i = 0; i < BI; ++i) {
    for (std::size_t j = 0; j < BJ; ++j) n(i0 + i, j0 + j) = sum[i][j];
  }
}

/// The upper triangle in 4 x 4 tiles, the last R = cols % 4 columns in
/// 4 x R tiles and one R x R corner (a diagonal tile also fills its own
/// lower half: x * y == y * x).
template <std::size_t R>
void normal_tiles(const Matrix& a, Matrix& n) {
  const std::size_t full = a.cols() - R;
  for (std::size_t i0 = 0; i0 < full; i0 += kTile) {
    for (std::size_t j0 = i0; j0 < full; j0 += kTile) {
      normal_tile<kTile, kTile>(a, i0, j0, n);
    }
    if constexpr (R > 0) normal_tile<kTile, R>(a, i0, full, n);
  }
  if constexpr (R > 0) normal_tile<R, R>(a, full, full, n);
}

}  // namespace

Matrix normal_matrix(const Matrix& a) {
  // Every entry still sums its products in ascending row order from 0.0,
  // so it is bit-identical to the row-streaming loop and the column-pair
  // dot product.
  const std::size_t cols = a.cols();
  Matrix n(cols, cols);
  switch (cols % kTile) {
    case 0: normal_tiles<0>(a, n); break;
    case 1: normal_tiles<1>(a, n); break;
    case 2: normal_tiles<2>(a, n); break;
    default: normal_tiles<3>(a, n); break;
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
