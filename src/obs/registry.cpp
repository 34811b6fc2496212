#include "obs/registry.hpp"

#include <cassert>

namespace cyclops::obs {

Counter& Registry::counter(std::string name, Labels labels) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[MetricKey{std::move(name), std::move(labels)}];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(std::string name, Labels labels) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[MetricKey{std::move(name), std::move(labels)}];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(std::string name, const HistogramSpec& spec,
                               Labels labels) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[MetricKey{std::move(name), std::move(labels)}];
  if (!slot) slot = std::make_unique<Histogram>(spec);
  assert(slot->spec() == spec);
  return *slot;
}

std::vector<std::pair<MetricKey, const Counter*>> Registry::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<MetricKey, const Counter*>> out;
  out.reserve(counters_.size());
  for (const auto& [key, metric] : counters_) out.emplace_back(key, metric.get());
  return out;
}

std::vector<std::pair<MetricKey, const Gauge*>> Registry::gauges() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<MetricKey, const Gauge*>> out;
  out.reserve(gauges_.size());
  for (const auto& [key, metric] : gauges_) out.emplace_back(key, metric.get());
  return out;
}

std::vector<std::pair<MetricKey, const Histogram*>> Registry::histograms()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<MetricKey, const Histogram*>> out;
  out.reserve(histograms_.size());
  for (const auto& [key, metric] : histograms_)
    out.emplace_back(key, metric.get());
  return out;
}

void Registry::merge_from(const Registry& other) {
  for (const auto& [key, metric] : other.counters()) {
    counter(key.name, key.labels).merge_from(*metric);
  }
  for (const auto& [key, metric] : other.gauges()) {
    gauge(key.name, key.labels).merge_from(*metric);
  }
  for (const auto& [key, metric] : other.histograms()) {
    histogram(key.name, metric->spec(), key.labels).merge_from(*metric);
  }
}

bool Registry::empty() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_.empty() && gauges_.empty() && histograms_.empty();
}

ShardedRegistry::ShardedRegistry(std::size_t shards) {
  assert(shards > 0);
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Registry>());
  }
}

void ShardedRegistry::merge_into(Registry& target) {
  for (auto& shard : shards_) target.merge_from(*shard);
}

}  // namespace cyclops::obs
