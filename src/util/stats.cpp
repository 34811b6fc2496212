#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

namespace cyclops::util {

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
}

double percentile(std::span<const double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

Cdf::Cdf(std::vector<double> samples) : sorted_(std::move(samples)) {
  std::sort(sorted_.begin(), sorted_.end());
}

double Cdf::quantile(double q) const noexcept {
  if (sorted_.empty()) return 0.0;
  const double clamped = std::clamp(q, 0.0, 1.0);
  const auto idx = static_cast<std::size_t>(
      std::ceil(clamped * static_cast<double>(sorted_.size())));
  return sorted_[idx == 0 ? 0 : std::min(idx - 1, sorted_.size() - 1)];
}

}  // namespace cyclops::util
