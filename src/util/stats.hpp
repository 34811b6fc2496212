// Descriptive statistics and empirical CDFs for the evaluation harness.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace cyclops::util {

/// Running mean / min / max accumulator.
class RunningStats {
 public:
  void add(double x) noexcept;

  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ > 0 ? mean_ : 0.0; }
  double min() const noexcept { return min_; }
  double max() const noexcept { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Linear-interpolated percentile; p in [0, 100].  Copies and sorts.
double percentile(std::span<const double> xs, double p);

/// Empirical cumulative distribution function over a sample.
class Cdf {
 public:
  explicit Cdf(std::vector<double> samples);

  /// Smallest sample value v with at least a fraction q of the samples
  /// <= v, q in (0, 1].
  double quantile(double q) const noexcept;

  std::size_t size() const noexcept { return sorted_.size(); }
  double min() const noexcept { return sorted_.empty() ? 0.0 : sorted_.front(); }
  double max() const noexcept { return sorted_.empty() ? 0.0 : sorted_.back(); }

 private:
  std::vector<double> sorted_;
};

}  // namespace cyclops::util
