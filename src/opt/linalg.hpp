// Small dense linear algebra for the nonlinear least-squares solver.
// Parameter counts in Cyclops are tiny (<= ~20), so simple O(n^3) routines
// are more than adequate.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

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

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// A^T * A for matrix A (result is cols x cols, symmetric PSD).
Matrix normal_matrix(const Matrix& a);

/// A^T * b.
std::vector<double> transpose_times(const Matrix& a, std::span<const double> b);

/// Solves the symmetric positive-definite system m*x = b by Cholesky.
/// Returns false if m is not positive definite (within tolerance).
bool solve_spd(const Matrix& m, std::span<const double> b,
               std::vector<double>& x);

}  // namespace cyclops::opt
