#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "opt/levmar.hpp"
#include "opt/linalg.hpp"
#include "opt/nelder_mead.hpp"
#include "per_point_reference.hpp"
#include "runtime/context.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace cyclops::opt {
namespace {

// ---- linalg ----

/// A^T, the layout normal_equations reads.
Matrix transposed(const Matrix& a) {
  Matrix at(a.cols(), a.rows());
  for (std::size_t k = 0; k < a.rows(); ++k) {
    for (std::size_t j = 0; j < a.cols(); ++j) at(j, k) = a(k, j);
  }
  return at;
}

/// normal_equations' A^T A (against a zero b).
Matrix normal_matrix(const Matrix& at, util::ThreadPool& pool) {
  Matrix n;
  std::vector<double> atb;
  normal_equations(at, std::vector<double>(at.cols(), 0.0), n, atb, pool);
  return n;
}

/// normal_equations' A^T b.
std::vector<double> transpose_times(const Matrix& at, std::span<const double> b,
                                    util::ThreadPool& pool) {
  Matrix n;
  std::vector<double> atb;
  normal_equations(at, b, n, atb, pool);
  return atb;
}

TEST(LinAlgTest, NormalMatrix) {
  Matrix a(3, 2);
  a(0, 0) = 1; a(0, 1) = 2;
  a(1, 0) = 3; a(1, 1) = 4;
  a(2, 0) = 5; a(2, 1) = 6;
  const Matrix n = normal_matrix(transposed(a), util::ThreadPool::serial());
  EXPECT_DOUBLE_EQ(n(0, 0), 35.0);
  EXPECT_DOUBLE_EQ(n(0, 1), 44.0);
  EXPECT_DOUBLE_EQ(n(1, 0), 44.0);
  EXPECT_DOUBLE_EQ(n(1, 1), 56.0);
}

TEST(LinAlgTest, NormalMatrixMatchesColumnPairSumsBitwise) {
  // The normal matrix keeps every entry's terms in ascending row order,
  // so it equals the column-pair dot products to the bit.
  const auto column_pairs = [](const Matrix& a) {
    Matrix n(a.cols(), a.cols());
    for (std::size_t i = 0; i < a.cols(); ++i) {
      for (std::size_t j = i; j < a.cols(); ++j) {
        double sum = 0.0;
        for (std::size_t k = 0; k < a.rows(); ++k) sum += a(k, i) * a(k, j);
        n(i, j) = sum;
        n(j, i) = sum;
      }
    }
    return n;
  };
  util::Rng rng(41);
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {0, 3}, {5, 1}, {1, 4}, {288, 12}, {532, 25}, {7, 9}};
  for (const auto& [rows, cols] : shapes) {
    Matrix a(rows, cols);
    for (std::size_t k = 0; k < rows; ++k) {
      for (std::size_t j = 0; j < cols; ++j) {
        a(k, j) = rng.normal(0.0, std::pow(10.0, rng.uniform(-6.0, 6.0)));
      }
    }
    const Matrix got = normal_matrix(transposed(a), util::ThreadPool::serial());
    const Matrix want = column_pairs(a);
    ASSERT_EQ(got.rows(), cols);
    ASSERT_EQ(got.cols(), cols);
    for (std::size_t i = 0; i < cols; ++i) {
      for (std::size_t j = 0; j < cols; ++j) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got(i, j)),
                  std::bit_cast<std::uint64_t>(want(i, j)))
            << rows << "x" << cols << " at (" << i << ", " << j << ")";
      }
    }
  }
}

TEST(LinAlgTest, NormalMatrixEqualsRowStreamingLoopBitwise) {
  // The register-tiled normal matrix of A^T, its tiles dealt over pools of
  // every width, against the row-streaming loop over A it replaced: the
  // LM shapes (Stage 1, Stage 2, one Stage-2 sample), the degenerate ones,
  // and every width from 1 to 9 (full and partial tiles).
  std::vector<std::pair<std::size_t, std::size_t>> shapes{
      {532, 25}, {288, 12}, {6, 12}, {1, 1}, {0, 5}};
  for (std::size_t cols = 1; cols <= 9; ++cols) shapes.push_back({37, cols});
  util::ThreadPool pool2(2), pool3(3), pool8(8);
  util::ThreadPool* const pools[] = {&util::ThreadPool::serial(), &pool2,
                                     &pool3, &pool8};
  util::Rng rng(43);
  for (const auto& [rows, cols] : shapes) {
    Matrix a(rows, cols);
    for (std::size_t k = 0; k < rows; ++k) {
      for (std::size_t j = 0; j < cols; ++j) {
        a(k, j) = rng.normal(0.0, std::pow(10.0, rng.uniform(-6.0, 6.0)));
      }
    }
    const Matrix want = reference_normal_matrix(a);
    const Matrix at = transposed(a);
    for (util::ThreadPool* pool : pools) {
      const Matrix got = normal_matrix(at, *pool);
      ASSERT_EQ(got.rows(), cols);
      ASSERT_EQ(got.cols(), cols);
      for (std::size_t i = 0; i < cols; ++i) {
        for (std::size_t j = 0; j < cols; ++j) {
          EXPECT_EQ(std::bit_cast<std::uint64_t>(got(i, j)),
                    std::bit_cast<std::uint64_t>(want(i, j)))
              << rows << "x" << cols << " on " << pool->thread_count()
              << " threads at (" << i << ", " << j << ")";
        }
      }
    }
  }
}

TEST(LinAlgTest, TransposeTimesEqualsRowStreamingLoopBitwise) {
  // A^T b from A^T, formed with the normal matrix's tile rows over pools
  // of every width, against the loop over A's rows it replaced, at every
  // row count from 1 to 9 and the LM shapes.
  util::ThreadPool pool2(2), pool3(3), pool8(8);
  util::ThreadPool* const pools[] = {&util::ThreadPool::serial(), &pool2,
                                     &pool3, &pool8};
  util::Rng rng(47);
  std::vector<std::pair<std::size_t, std::size_t>> shapes{
      {532, 25}, {288, 12}, {0, 5}};
  for (std::size_t cols = 1; cols <= 9; ++cols) shapes.push_back({37, cols});
  for (const auto& [rows, cols] : shapes) {
    Matrix a(rows, cols);
    std::vector<double> b(rows);
    for (std::size_t k = 0; k < rows; ++k) {
      b[k] = rng.normal(0.0, std::pow(10.0, rng.uniform(-6.0, 6.0)));
      for (std::size_t j = 0; j < cols; ++j) {
        a(k, j) = rng.normal(0.0, std::pow(10.0, rng.uniform(-6.0, 6.0)));
      }
    }
    std::vector<double> want(cols, 0.0);
    for (std::size_t k = 0; k < rows; ++k) {
      for (std::size_t j = 0; j < cols; ++j) want[j] += a(k, j) * b[k];
    }
    const Matrix at = transposed(a);
    for (util::ThreadPool* pool : pools) {
      const std::vector<double> got = transpose_times(at, b, *pool);
      ASSERT_EQ(got.size(), cols);
      for (std::size_t j = 0; j < cols; ++j) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got[j]),
                  std::bit_cast<std::uint64_t>(want[j]))
            << rows << "x" << cols << " on " << pool->thread_count()
            << " threads at " << j;
      }
    }
  }
}

TEST(LinAlgTest, TransposeTimes) {
  Matrix a(2, 2);
  a(0, 0) = 1; a(0, 1) = 2;
  a(1, 0) = 3; a(1, 1) = 4;
  const std::vector<double> b{5.0, 6.0};
  const auto r = transpose_times(transposed(a), b, util::ThreadPool::serial());
  EXPECT_DOUBLE_EQ(r[0], 23.0);
  EXPECT_DOUBLE_EQ(r[1], 34.0);
}

TEST(LinAlgTest, SolveSpd) {
  Matrix m(2, 2);
  m(0, 0) = 4; m(0, 1) = 1;
  m(1, 0) = 1; m(1, 1) = 3;
  std::vector<double> x;
  ASSERT_TRUE(solve_spd(m, std::vector<double>{1.0, 2.0}, x));
  EXPECT_NEAR(4 * x[0] + x[1], 1.0, 1e-12);
  EXPECT_NEAR(x[0] + 3 * x[1], 2.0, 1e-12);
}

TEST(LinAlgTest, SolveSpdRejectsIndefinite) {
  Matrix m(2, 2);
  m(0, 0) = 1; m(0, 1) = 2;
  m(1, 0) = 2; m(1, 1) = 1;  // eigenvalues 3, -1
  std::vector<double> x;
  EXPECT_FALSE(solve_spd(m, std::vector<double>{1.0, 1.0}, x));
}

TEST(LinAlgTest, RandomSpdSystems) {
  util::Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 1 + rng.uniform_index(8);
    Matrix a(n + 2, n);
    for (std::size_t i = 0; i < n + 2; ++i)
      for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.normal();
    Matrix m = normal_matrix(transposed(a), util::ThreadPool::serial());
    for (std::size_t d = 0; d < n; ++d) m(d, d) += 0.5;  // ensure PD
    std::vector<double> b(n);
    for (auto& v : b) v = rng.normal();
    std::vector<double> x;
    Matrix factor = m;  // solve_spd factors in place.
    ASSERT_TRUE(solve_spd(factor, b, x));
    for (std::size_t i = 0; i < n; ++i) {
      double sum = 0.0;
      for (std::size_t j = 0; j < n; ++j) sum += m(i, j) * x[j];
      EXPECT_NEAR(sum, b[i], 1e-9);
    }
  }
}

// ---- numeric jacobian ----

TEST(JacobianTest, MatchesAnalytic) {
  const ResidualFn fn = [](std::span<const double> p,
                           std::vector<double>& r) {
    r = {p[0] * p[0] + 3.0 * p[1], std::sin(p[0])};
  };
  Matrix jac;
  JacobianScratch scratch;
  util::ThreadPool pool(2);
  const std::vector<double> at{2.0, -1.0};
  numeric_jacobian(fn, at, 1e-7, 2, jac, scratch, pool);
  // Stored transposed: jac(j, i) is d r_i / d p_j.
  ASSERT_EQ(jac.rows(), 2u);
  ASSERT_EQ(jac.cols(), 2u);
  EXPECT_NEAR(jac(0, 0), 4.0, 1e-5);
  EXPECT_NEAR(jac(1, 0), 3.0, 1e-5);
  EXPECT_NEAR(jac(0, 1), std::cos(2.0), 1e-5);
  EXPECT_NEAR(jac(1, 1), 0.0, 1e-5);
}

// ---- Levenberg-Marquardt ----

TEST(LevMarTest, LinearLeastSquaresExact) {
  const runtime::Context ctx = runtime::Context::isolated();
  // Fit y = a x + b to exact data.
  const std::vector<double> xs{0, 1, 2, 3, 4};
  const ResidualFn fn = [&](std::span<const double> p,
                            std::vector<double>& r) {
    r.resize(xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i) {
      const double y = 2.5 * xs[i] - 1.0;
      r[i] = p[0] * xs[i] + p[1] - y;
    }
  };
  const auto result = levenberg_marquardt(fn, {0.0, 0.0}, {}, ctx);
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.params[0], 2.5, 1e-6);
  EXPECT_NEAR(result.params[1], -1.0, 1e-6);
  EXPECT_LT(result.final_cost, 1e-12);
}

TEST(LevMarTest, ExponentialFit) {
  const runtime::Context ctx = runtime::Context::isolated();
  // y = a * exp(b x): a classic nonlinear benchmark.
  util::Rng rng(6);
  std::vector<double> xs, ys;
  for (int i = 0; i < 30; ++i) {
    const double x = 0.1 * i;
    xs.push_back(x);
    ys.push_back(3.0 * std::exp(-1.2 * x) + rng.normal(0.0, 1e-4));
  }
  const ResidualFn fn = [&](std::span<const double> p,
                            std::vector<double>& r) {
    r.resize(xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i) {
      r[i] = p[0] * std::exp(p[1] * xs[i]) - ys[i];
    }
  };
  const auto result = levenberg_marquardt(fn, {1.0, 0.0}, {}, ctx);
  EXPECT_NEAR(result.params[0], 3.0, 1e-2);
  EXPECT_NEAR(result.params[1], -1.2, 1e-2);
}

TEST(LevMarTest, RosenbrockAsResiduals) {
  const runtime::Context ctx = runtime::Context::isolated();
  // Rosenbrock = (1-x)^2 + 100 (y - x^2)^2, as two residuals.
  const ResidualFn fn = [](std::span<const double> p,
                           std::vector<double>& r) {
    r = {1.0 - p[0], 10.0 * (p[1] - p[0] * p[0])};
  };
  const auto result = levenberg_marquardt(fn, {-1.2, 1.0}, {}, ctx);
  EXPECT_NEAR(result.params[0], 1.0, 1e-5);
  EXPECT_NEAR(result.params[1], 1.0, 1e-5);
}

TEST(LevMarTest, ReducesCostMonotonically) {
  const runtime::Context ctx = runtime::Context::isolated();
  const ResidualFn fn = [](std::span<const double> p,
                           std::vector<double>& r) {
    r = {p[0] - 4.0, 2.0 * (p[1] + 3.0), p[0] * p[1] + 12.0};
  };
  const auto result = levenberg_marquardt(fn, {0.0, 0.0}, {}, ctx);
  EXPECT_LE(result.final_cost, result.initial_cost);
}

TEST(LevMarTest, HandlesOverparameterizedProblem) {
  const runtime::Context ctx = runtime::Context::isolated();
  // Only the sum p0+p1 is observable; LM must still converge (damping
  // handles the singular JtJ) — the same situation as the 25-parameter
  // GMA fit.
  const ResidualFn fn = [](std::span<const double> p,
                           std::vector<double>& r) {
    r = {p[0] + p[1] - 5.0};
  };
  const auto result = levenberg_marquardt(fn, {0.0, 0.0}, {}, ctx);
  EXPECT_NEAR(result.params[0] + result.params[1], 5.0, 1e-6);
}

TEST(LevMarTest, RespectsMaxIterations) {
  const runtime::Context ctx = runtime::Context::isolated();
  const ResidualFn fn = [](std::span<const double> p,
                           std::vector<double>& r) {
    r = {std::sin(p[0]) + 2.0};  // unreachable zero
  };
  LevMarOptions options;
  options.max_iterations = 3;
  const auto result = levenberg_marquardt(fn, {0.0}, options, ctx);
  EXPECT_LE(result.iterations, 3);
}

// ---- Nelder-Mead ----

TEST(NelderMeadTest, QuadraticBowl) {
  const ScalarFn fn = [](std::span<const double> x) {
    return (x[0] - 3.0) * (x[0] - 3.0) + (x[1] + 2.0) * (x[1] + 2.0);
  };
  const auto result = nelder_mead(fn, {0.0, 0.0});
  EXPECT_NEAR(result.params[0], 3.0, 1e-4);
  EXPECT_NEAR(result.params[1], -2.0, 1e-4);
  EXPECT_TRUE(result.converged);
}

TEST(NelderMeadTest, Rosenbrock2D) {
  const ScalarFn fn = [](std::span<const double> x) {
    const double a = 1.0 - x[0];
    const double b = x[1] - x[0] * x[0];
    return a * a + 100.0 * b * b;
  };
  NelderMeadOptions options;
  options.max_evaluations = 10000;
  const auto result = nelder_mead(fn, {-1.2, 1.0}, options);
  EXPECT_NEAR(result.params[0], 1.0, 1e-2);
  EXPECT_NEAR(result.params[1], 1.0, 1e-2);
}

TEST(NelderMeadTest, FourDimensional) {
  const ScalarFn fn = [](std::span<const double> x) {
    double s = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double d = x[i] - static_cast<double>(i);
      s += d * d;
    }
    return s;
  };
  const auto result = nelder_mead(fn, {5.0, 5.0, 5.0, 5.0});
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(result.params[i], static_cast<double>(i), 1e-3);
  }
}

TEST(NelderMeadTest, RespectsEvaluationBudget) {
  int calls = 0;
  const ScalarFn fn = [&calls](std::span<const double> x) {
    ++calls;
    return x[0] * x[0];
  };
  NelderMeadOptions options;
  options.max_evaluations = 50;
  nelder_mead(fn, {100.0}, options);
  EXPECT_LE(calls, 55);  // small overshoot allowed for the final shrink
}

TEST(NelderMeadTest, StartingAtOptimumStaysThere) {
  const ScalarFn fn = [](std::span<const double> x) {
    return x[0] * x[0] + x[1] * x[1];
  };
  const auto result = nelder_mead(fn, {0.0, 0.0});
  EXPECT_NEAR(result.value, 0.0, 1e-8);
}

// Parameterized: LM converges from a sweep of starting points.
class LevMarStartSweep : public ::testing::TestWithParam<double> {};

TEST_P(LevMarStartSweep, ConvergesToSameMinimum) {
  const runtime::Context ctx = runtime::Context::isolated();
  const ResidualFn fn = [](std::span<const double> p,
                           std::vector<double>& r) {
    r = {p[0] * p[0] - 4.0, p[0] - 2.0};  // root at p0 = 2
  };
  const auto result = levenberg_marquardt(fn, {GetParam()}, {}, ctx);
  EXPECT_NEAR(result.params[0], 2.0, 1e-4);
}

INSTANTIATE_TEST_SUITE_P(Starts, LevMarStartSweep,
                         ::testing::Values(0.5, 1.0, 3.0, 5.0, 10.0));

}  // namespace
}  // namespace cyclops::opt
