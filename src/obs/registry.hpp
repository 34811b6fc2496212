// Metric registry: get-or-create by (name, labels), stable sorted
// iteration for exporters, and shard-per-worker accumulation that merges
// deterministically (shard 0, 1, 2, ... in order) so parallel runs report
// bit-identical metric values at any thread count.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace cyclops::obs {

/// Sorted label set, e.g. {{"plane", "session"}}.  Kept sorted by key so
/// two label sets compare equal regardless of construction order.
using Labels = std::map<std::string, std::string>;

/// Registry map key.  Ordering (name first, then labels) fixes exporter
/// output order.
struct MetricKey {
  std::string name;
  Labels labels;

  auto operator<=>(const MetricKey&) const = default;
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Get-or-create.  Returned references stay valid for the registry's
  /// lifetime (hoist them out of hot loops; creation takes a lock).
  Counter& counter(std::string name, Labels labels = {});
  Gauge& gauge(std::string name, Labels labels = {});
  /// `spec` is used on first creation; later calls must pass an equal spec.
  Histogram& histogram(std::string name, const HistogramSpec& spec,
                       Labels labels = {});

  /// Snapshot of the current key set, sorted (map order).  The pointed-to
  /// metrics are live — values read through them are current, not frozen.
  std::vector<std::pair<MetricKey, const Counter*>> counters() const;
  std::vector<std::pair<MetricKey, const Gauge*>> gauges() const;
  std::vector<std::pair<MetricKey, const Histogram*>> histograms() const;

  /// Folds `other` into this registry, creating metrics as needed.
  void merge_from(const Registry& other);

  bool empty() const;

 private:
  mutable std::mutex mu_;
  std::map<MetricKey, std::unique_ptr<Counter>> counters_;
  std::map<MetricKey, std::unique_ptr<Gauge>> gauges_;
  std::map<MetricKey, std::unique_ptr<Histogram>> histograms_;
};

/// One registry per pool worker chunk.  The parallel section records into
/// `shard(chunk)` (chunk indices are stable under PR-1 static chunking),
/// then the driver calls merge_into() which folds shards in index order —
/// the only ordering rule needed for deterministic merged values, and it
/// is trivially satisfied because merging is single-threaded.
class ShardedRegistry {
 public:
  explicit ShardedRegistry(std::size_t shards);

  Registry& shard(std::size_t i) { return *shards_[i]; }

  /// Folds every shard into `target`, shard 0 first.
  void merge_into(Registry& target);

 private:
  std::vector<std::unique_ptr<Registry>> shards_;
};

}  // namespace cyclops::obs
