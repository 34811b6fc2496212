// Typed metric primitives: Counter, Gauge, and a fixed-bucket HDR-style
// Histogram.  All three are thread-safe via relaxed atomics and mergeable,
// which is what makes sharded accumulation deterministic: every recorded
// value is an integer bucket/count update (commutative, exact), and the
// derived approx_sum is a pure function of the integer bucket counts and
// the fixed bucket bounds — no floating-point accumulator whose value
// could depend on merge order or thread count.  See DESIGN.md §10.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <vector>

namespace cyclops::obs {

/// Monotonic event count.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void inc(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void merge_from(const Counter& other) noexcept { inc(other.value()); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written value (thread count, config knobs, final watermarks).
/// merge_from keeps the MAX of the two values once both sides have ever
/// written (never-written sources are a no-op) — max is commutative and
/// associative, so shard/fleet rollups are merge-order independent even
/// when sessions record different values.  Within one session the usual
/// advice stands: record a gauge once, from the driver thread.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(double v) noexcept {
    value_.store(v, std::memory_order_relaxed);
    set_count_.fetch_add(1, std::memory_order_relaxed);
  }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  bool ever_set() const noexcept {
    return set_count_.load(std::memory_order_relaxed) != 0;
  }
  void merge_from(const Gauge& other) noexcept {
    if (!other.ever_set()) return;
    if (!ever_set() || other.value() > value()) set(other.value());
  }

 private:
  std::atomic<double> value_{0.0};
  std::atomic<std::uint64_t> set_count_{0};
};

/// Bucket layout for a Histogram: `bounds[i]` is the inclusive upper edge
/// of finite bucket i (ascending); one implicit overflow bucket catches
/// everything above bounds.back().  Two histograms merge only when their
/// specs compare equal.
struct HistogramSpec {
  std::vector<double> bounds;

  /// Log-scale edges lo * 10^(i / per_decade) for i = 0 .. n, where n is
  /// the smallest count whose last edge reaches `hi`.  HDR-style: relative
  /// error is bounded by the per-decade resolution at every magnitude.
  static HistogramSpec log_scale(double lo, double hi, int per_decade);

  /// n finite buckets with edges lo + width, lo + 2*width, ..., lo + n*width.
  static HistogramSpec linear(double lo, double width, int n);

  /// Default layout for microsecond durations: 1 µs .. 10 s at five
  /// buckets per decade (36 finite buckets, <= 58% relative edge spacing).
  static HistogramSpec duration_us() { return log_scale(1.0, 1e7, 5); }

  bool operator==(const HistogramSpec&) const = default;
};

/// Fixed-bucket histogram.  record() is an integer increment on one bucket
/// plus commutative min/max updates, so concurrent recording from pool
/// workers is exact; the derived sum comes from the bucket counts alone.
class Histogram {
 public:
  explicit Histogram(HistogramSpec spec);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void record(double v) noexcept;

  const HistogramSpec& spec() const noexcept { return spec_; }
  /// Finite buckets + 1 overflow bucket.
  std::size_t bucket_count() const noexcept { return buckets_.size(); }
  std::uint64_t bucket(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  /// +inf / -inf when nothing was recorded.
  double min() const noexcept { return min_.load(std::memory_order_relaxed); }
  double max() const noexcept { return max_.load(std::memory_order_relaxed); }

  /// Sum estimated from bucket counts x upper bucket edges (overflow
  /// clamped to the last finite edge).  Deterministic: depends only on the
  /// integer counts and the spec, never on recording or merge order.
  double approx_sum() const noexcept;

  /// Index of the bucket a value lands in.
  std::size_t bucket_index(double v) const noexcept;

  void merge_from(const Histogram& other) noexcept;

 private:
  void update_min(double v) noexcept;
  void update_max(double v) noexcept;

  HistogramSpec spec_;
  std::vector<std::atomic<std::uint64_t>> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

}  // namespace cyclops::obs
