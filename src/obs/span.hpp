// Scoped wall-clock timing.
//
// WallSpan measures wall-clock time (solver hot paths, pool waits) with a
// steady_clock stopwatch and records microseconds into a Histogram on
// destruction.  Wall spans are not deterministic (by nature) and must
// never feed a determinism-checked metric.  A span built over a null
// histogram is a no-op, which is how `if constexpr (obs::kEnabled)`-free
// call sites stay cheap when a caller passes no registry.
#pragma once

#include <chrono>

#include "obs/registry.hpp"

namespace cyclops::util {
class ThreadPool;
}  // namespace cyclops::util

namespace cyclops::obs {

/// RAII wall-clock span: records elapsed microseconds on destruction.
class WallSpan {
 public:
  explicit WallSpan(Histogram* histogram) noexcept
      : histogram_(histogram), start_(std::chrono::steady_clock::now()) {}
  WallSpan(const WallSpan&) = delete;
  WallSpan& operator=(const WallSpan&) = delete;
  ~WallSpan() {
    if (histogram_ != nullptr) histogram_->record(elapsed_us());
  }

  double elapsed_us() const noexcept {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  Histogram* histogram_;
  std::chrono::steady_clock::time_point start_;
};

/// Snapshots a pool's lifetime dispatch stats into `registry` as
/// `pool_*` counters/gauges.  Call once at report time, not per job.
void record_thread_pool(Registry& registry, const util::ThreadPool& pool);

}  // namespace cyclops::obs
