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

/// A^T * A from `at` = A^T, one row per column of A (the layout
/// numeric_jacobian fills): a rows x rows symmetric PSD matrix whose
/// entry (i, j) sums at(i, k) * at(j, k) over k in ascending order from
/// 0.0.  Its register tiles fan out over `pool`, one tile row per chunk,
/// each writing only its own entries, so the result is bit-identical at
/// any thread count.
Matrix normal_matrix(const Matrix& at, util::ThreadPool& pool);

/// A^T * b from `at` = A^T: entry j sums at(j, k) * b[k] over k in
/// ascending order from 0.0.
std::vector<double> transpose_times(const Matrix& at,
                                    std::span<const double> b);

/// Solves the symmetric positive-definite system m*x = b by Cholesky.
/// Returns false if m is not positive definite (within tolerance).
bool solve_spd(const Matrix& m, std::span<const double> b,
               std::vector<double>& x);

}  // namespace cyclops::opt
