// Small dense linear algebra for the nonlinear least-squares solver.
// Parameter counts in Cyclops are tiny (<= ~20), so simple O(n^3) routines
// are more than adequate.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/thread_pool.hpp"

namespace cyclops::opt {

/// Dense row-major matrix.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }

  double& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }
  /// Row r's `cols()` contiguous entries.
  const double* row(std::size_t r) const noexcept {
    return data_.data() + r * cols_;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// The normal equations' A^T * A and A^T * b from `at` = A^T, one row per
/// column of A (the layout numeric_jacobian fills).  `ata` becomes the
/// rows x rows symmetric PSD matrix whose entry (i, j) sums
/// at(i, k) * at(j, k) over k in ascending order from 0.0, and `atb`
/// entry i sums at(i, k) * b[k] the same way; both keep their storage
/// when already that size.  One job over `pool`: register tiles, one tile
/// row per chunk with its rows of A^T * b, each writing only its own
/// entries, so the result is bit-identical at any thread count.
void normal_equations(const Matrix& at, std::span<const double> b, Matrix& ata,
                      std::vector<double>& atb, util::ThreadPool& pool);

/// Solves the symmetric positive-definite system m*x = b by Cholesky,
/// factoring in place: m's lower triangle becomes the factor L.  Returns
/// false if m is not positive definite (within tolerance).
bool solve_spd(Matrix& m, std::span<const double> b, std::vector<double>& x);

}  // namespace cyclops::opt
