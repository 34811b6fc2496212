// Thread-pool telemetry.  record_thread_pool snapshots a pool's lifetime
// dispatch stats into a registry; those `pool_*` values are wall-clock
// and scheduling dependent, so they must never feed a
// determinism-checked metric.
#pragma once

#include "obs/registry.hpp"

namespace cyclops::util {
class ThreadPool;
}  // namespace cyclops::util

namespace cyclops::obs {

/// Snapshots a pool's lifetime dispatch stats into `registry` as
/// `pool_*` counters/gauges.  Call once at report time, not per job.
void record_thread_pool(Registry& registry, const util::ThreadPool& pool);

}  // namespace cyclops::obs
