#include "opt/linalg.hpp"

#include <cmath>

namespace cyclops::opt {
namespace {

/// Tile edge.  On A^T's rows a 2 x 2 tile reads two pairs of rows and
/// keeps its four sums in registers; a 4 x 4 tile streams eight rows, and
/// GCC spilled its sums (DESIGN §7).
constexpr std::size_t kTile = 2;

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

/// The diagonal tile [i0, i0 + B)² and entries [i0, i0 + B) of A^T * b,
/// in one pass over the B rows (b as one more y row).  The tile also
/// fills its own lower half: x * y == y * x.
template <std::size_t B>
void diagonal_tile(const Matrix& at, std::span<const double> b,
                   std::size_t i0, Matrix& n, std::vector<double>& atb) {
  const double* x[B];
  const double* y[B + 1];
  for (std::size_t i = 0; i < B; ++i) x[i] = y[i] = at.row(i0 + i);
  y[B] = b.data();
  double sum[B][B + 1];
  dot_tile<B, B + 1>(x, y, at.cols(), sum);
  for (std::size_t i = 0; i < B; ++i) {
    for (std::size_t j = 0; j < B; ++j) n(i0 + i, i0 + j) = sum[i][j];
    atb[i0 + i] = sum[i][B];
  }
}

/// The upper triangle in 2 x 2 tiles, the last R = rows % 2 rows in 2 x R
/// tiles and one R x R corner, dealt one tile row per chunk, longest
/// first; a row's diagonal tile also forms its rows of A^T * b.
template <std::size_t R>
void normal_tiles(const Matrix& at, std::span<const double> b, Matrix& n,
                  std::vector<double>& atb, util::ThreadPool& pool) {
  const std::size_t full = at.rows() - R;
  const std::size_t tile_rows = full / kTile + (R > 0 ? 1 : 0);
  pool.run_chunked(tile_rows, tile_rows,
                   [&](std::size_t row, std::size_t, std::size_t) {
    const std::size_t i0 = row * kTile;
    if (i0 == full) {  // The corner row.
      if constexpr (R > 0) diagonal_tile<R>(at, b, full, n, atb);
      return;
    }
    diagonal_tile<kTile>(at, b, i0, n, atb);
    for (std::size_t j0 = i0 + kTile; j0 < full; j0 += kTile) {
      normal_tile<kTile, kTile>(at, i0, j0, n);
    }
    if constexpr (R > 0) normal_tile<kTile, R>(at, i0, full, n);
  });
}

}  // namespace

void normal_equations(const Matrix& at, std::span<const double> b, Matrix& ata,
                      std::vector<double>& atb, util::ThreadPool& pool) {
  // Every entry still sums its products in ascending order from 0.0, so
  // it is bit-identical to the row-streaming loop and the column-pair dot
  // product over A, whatever the tile shape.
  const std::size_t rows = at.rows();
  if (ata.rows() != rows || ata.cols() != rows) ata = Matrix(rows, rows);
  atb.resize(rows);
  if (rows % kTile == 0) {
    normal_tiles<0>(at, b, ata, atb, pool);
  } else {
    normal_tiles<1>(at, b, ata, atb, pool);
  }
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = i + 1; j < rows; ++j) ata(j, i) = ata(i, j);
  }
}

bool solve_spd(Matrix& m, std::span<const double> b, std::vector<double>& x) {
  const std::size_t n = m.rows();
  // Entry (i, j) of L overwrites m(i, j) once m(i, j) has been read; the
  // L entries it needs, (i, k) and (j, k) for k < j, are written already.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double sum = m(i, j);
      for (std::size_t k = 0; k < j; ++k) sum -= m(i, k) * m(j, k);
      if (i == j) {
        if (sum <= 0.0) return false;
        m(i, j) = std::sqrt(sum);
      } else {
        m(i, j) = sum / m(j, j);
      }
    }
  }
  // Forward substitution L y = b, y in x.
  x.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    double sum = b[i];
    for (std::size_t k = 0; k < i; ++k) sum -= m(i, k) * x[k];
    x[i] = sum / m(i, i);
  }
  // Back substitution L^T x = y, each y entry read before it is replaced.
  for (std::size_t ii = n; ii-- > 0;) {
    double sum = x[ii];
    for (std::size_t k = ii + 1; k < n; ++k) sum -= m(k, ii) * x[k];
    x[ii] = sum / m(ii, ii);
  }
  return true;
}

}  // namespace cyclops::opt
