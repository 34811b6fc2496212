#include "opt/linalg.hpp"

#include <cmath>

namespace cyclops::opt {
namespace {

constexpr std::size_t kTile = 4;

/// out[i][j] = the dot product of rows x[i] and y[j] over `len` entries,
/// summed in ascending order from 0.0.  Constant tile sizes keep the sums
/// in registers.
template <std::size_t BI, std::size_t BJ>
void dot_tile(const double* const (&x)[BI], const double* const (&y)[BJ],
              std::size_t len, double (&out)[BI][BJ]) {
  double sum[BI][BJ] = {};
  for (std::size_t k = 0; k < len; ++k) {
    for (std::size_t i = 0; i < BI; ++i) {
      for (std::size_t j = 0; j < BJ; ++j) sum[i][j] += x[i][k] * y[j][k];
    }
  }
  for (std::size_t i = 0; i < BI; ++i) {
    for (std::size_t j = 0; j < BJ; ++j) out[i][j] = sum[i][j];
  }
}

/// Entries [i0, i0 + BI) x [j0, j0 + BJ) of the normal matrix of A^T.
template <std::size_t BI, std::size_t BJ>
void normal_tile(const Matrix& at, std::size_t i0, std::size_t j0, Matrix& n) {
  const double* x[BI];
  const double* y[BJ];
  for (std::size_t i = 0; i < BI; ++i) x[i] = at.row(i0 + i);
  for (std::size_t j = 0; j < BJ; ++j) y[j] = at.row(j0 + j);
  double sum[BI][BJ];
  dot_tile<BI, BJ>(x, y, at.cols(), sum);
  for (std::size_t i = 0; i < BI; ++i) {
    for (std::size_t j = 0; j < BJ; ++j) n(i0 + i, j0 + j) = sum[i][j];
  }
}

/// The upper triangle in 4 x 4 tiles, the last R = rows % 4 rows in 4 x R
/// tiles and one R x R corner (a diagonal tile also fills its own lower
/// half: x * y == y * x), dealt one tile row per chunk, longest first.
template <std::size_t R>
void normal_tiles(const Matrix& at, Matrix& n, util::ThreadPool& pool) {
  const std::size_t full = at.rows() - R;
  const std::size_t tile_rows = full / kTile + (R > 0 ? 1 : 0);
  pool.run_chunked(tile_rows, tile_rows,
                   [&](std::size_t row, std::size_t, std::size_t) {
    const std::size_t i0 = row * kTile;
    if (i0 == full) {  // The corner row.
      if constexpr (R > 0) normal_tile<R, R>(at, full, full, n);
      return;
    }
    for (std::size_t j0 = i0; j0 < full; j0 += kTile) {
      normal_tile<kTile, kTile>(at, i0, j0, n);
    }
    if constexpr (R > 0) normal_tile<kTile, R>(at, i0, full, n);
  });
}

}  // namespace

Matrix normal_matrix(const Matrix& at, util::ThreadPool& pool) {
  // Every entry still sums its products in ascending order from 0.0, so
  // it is bit-identical to the row-streaming loop and the column-pair dot
  // product over A.
  const std::size_t rows = at.rows();
  Matrix n(rows, rows);
  switch (rows % kTile) {
    case 0: normal_tiles<0>(at, n, pool); break;
    case 1: normal_tiles<1>(at, n, pool); break;
    case 2: normal_tiles<2>(at, n, pool); break;
    default: normal_tiles<3>(at, n, pool); break;
  }
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = i + 1; j < rows; ++j) n(j, i) = n(i, j);
  }
  return n;
}

std::vector<double> transpose_times(const Matrix& at,
                                    std::span<const double> b) {
  // Four rows at a time, so four independent sums share each load of b.
  std::vector<double> out(at.rows(), 0.0);
  const double* y[1] = {b.data()};
  std::size_t j = 0;
  for (; j + kTile <= at.rows(); j += kTile) {
    const double* x[kTile] = {at.row(j), at.row(j + 1), at.row(j + 2),
                              at.row(j + 3)};
    double sum[kTile][1];
    dot_tile<kTile, 1>(x, y, at.cols(), sum);
    for (std::size_t i = 0; i < kTile; ++i) out[j + i] = sum[i][0];
  }
  for (; j < at.rows(); ++j) {
    const double* x[1] = {at.row(j)};
    double sum[1][1];
    dot_tile<1, 1>(x, y, at.cols(), sum);
    out[j] = sum[0][0];
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
