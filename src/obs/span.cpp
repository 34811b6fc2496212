#include "obs/span.hpp"

#include "util/thread_pool.hpp"

namespace cyclops::obs {

void record_thread_pool(Registry& registry, const util::ThreadPool& pool) {
  const util::ThreadPool::Stats stats = pool.stats();
  registry.counter("pool_jobs_total").inc(stats.jobs);
  registry.counter("pool_inline_jobs_total").inc(stats.inline_jobs);
  registry.counter("pool_parallel_jobs_total").inc(stats.parallel_jobs);
  registry.counter("pool_chunks_total").inc(stats.chunks);
  registry.counter("pool_wait_us_total").inc(stats.wait_us);
  registry.gauge("pool_threads").set(static_cast<double>(pool.thread_count()));
}

}  // namespace cyclops::obs
