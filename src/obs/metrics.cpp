#include "obs/metrics.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace cyclops::obs {

HistogramSpec HistogramSpec::log_scale(double lo, double hi, int per_decade) {
  assert(lo > 0.0 && hi > lo && per_decade > 0);
  HistogramSpec spec;
  // Edges are computed from the integer exponent index, not by repeated
  // multiplication, so the layout is exactly reproducible.
  for (int i = 0;; ++i) {
    const double edge = lo * std::pow(10.0, static_cast<double>(i) /
                                                static_cast<double>(per_decade));
    spec.bounds.push_back(edge);
    if (edge >= hi) break;
  }
  return spec;
}

HistogramSpec HistogramSpec::linear(double lo, double width, int n) {
  assert(width > 0.0 && n > 0);
  HistogramSpec spec;
  spec.bounds.reserve(static_cast<std::size_t>(n));
  for (int i = 1; i <= n; ++i) {
    spec.bounds.push_back(lo + static_cast<double>(i) * width);
  }
  return spec;
}

Histogram::Histogram(HistogramSpec spec)
    : spec_(std::move(spec)), buckets_(spec_.bounds.size() + 1) {
  assert(!spec_.bounds.empty());
  assert(std::is_sorted(spec_.bounds.begin(), spec_.bounds.end()));
}

std::size_t Histogram::bucket_index(double v) const noexcept {
  // First edge >= v; values above every edge land in the overflow bucket.
  const auto it =
      std::lower_bound(spec_.bounds.begin(), spec_.bounds.end(), v);
  return static_cast<std::size_t>(it - spec_.bounds.begin());
}

void Histogram::record(double v, std::uint64_t n) noexcept {
  if (n == 0) return;
  buckets_[bucket_index(v)].fetch_add(n, std::memory_order_relaxed);
  count_.fetch_add(n, std::memory_order_relaxed);
  update_min(v);
  update_max(v);
}

void Histogram::update_min(double v) noexcept {
  double cur = min_.load(std::memory_order_relaxed);
  while (v < cur &&
         !min_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void Histogram::update_max(double v) noexcept {
  double cur = max_.load(std::memory_order_relaxed);
  while (v > cur &&
         !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

double Histogram::approx_sum() const noexcept {
  double sum = 0.0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const std::uint64_t n = bucket(i);
    if (n == 0) continue;
    const double edge =
        i < spec_.bounds.size() ? spec_.bounds[i] : spec_.bounds.back();
    sum += static_cast<double>(n) * edge;
  }
  return sum;
}

void Histogram::merge_from(const Histogram& other) noexcept {
  assert(spec_ == other.spec());
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const std::uint64_t n = other.bucket(i);
    if (n != 0) buckets_[i].fetch_add(n, std::memory_order_relaxed);
  }
  count_.fetch_add(other.count(), std::memory_order_relaxed);
  if (other.count() != 0) {
    update_min(other.min());
    update_max(other.max());
  }
}

}  // namespace cyclops::obs
