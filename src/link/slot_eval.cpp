#include "link/slot_eval.hpp"

#include <algorithm>
#include <utility>

#include "link/event_eval.hpp"
#include "obs/config.hpp"

namespace cyclops::link {

double SlotEvalResult::scattered_fraction(int threshold) const {
  int scattered = 0;
  int total = 0;
  for (int n : off_per_dirty_frame) {
    total += n;
    if (n < threshold) scattered += n;
  }
  // No off-slots means nothing is scattered.
  return total > 0 ? static_cast<double>(scattered) / total : 0.0;
}

DatasetEvalResult evaluate_dataset(const std::vector<motion::Trace>& traces,
                                   const SlotEvalConfig& config,
                                   util::ThreadPool& pool,
                                   obs::Registry* registry) {
  if constexpr (!obs::kEnabled) registry = nullptr;

  // Fan the per-trace evaluations out over the pool (one engine per
  // trace, each writing only its own slot), then merge in trace order so
  // counters and the pooled frame histogram match the serial path exactly.
  // Metrics follow the same discipline: each chunk records into its own
  // registry shard (chunk ranges are static for a given n and chunk
  // count, and metric updates are integer adds), and the shards fold into
  // `registry` in chunk order below — bit-identical at any thread count.
  //
  // Chunk geometry: several chunks per executor, pulled from the pool's
  // atomic dispenser, so a straggler trace can't idle the other workers
  // (500 traces in thread_count chunks left workers stalled on the
  // slowest chunk).  Each slot is cache-line aligned: adjacent traces
  // finish on different threads at chunk boundaries, and 64-byte padding
  // keeps their result writes from false-sharing a line.
  struct alignas(64) PerTrace {
    SlotEvalResult result;
    std::uint64_t events = 0;
  };
  const std::size_t chunks =
      std::min(traces.size(), 4 * pool.thread_count());
  std::vector<PerTrace> per_trace(traces.size());
  obs::ShardedRegistry shards(registry != nullptr ? std::max<std::size_t>(
                                                        1, chunks)
                                                  : 1);
  pool.run_chunked(
      traces.size(), chunks,
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        obs::Registry* shard =
            registry != nullptr ? &shards.shard(chunk) : nullptr;
        for (std::size_t i = begin; i < end; ++i) {
          PerTrace out;
          EventEvalStats stats;
          out.result = evaluate_trace_events(traces[i], config, &stats,
                                             nullptr, shard);
          out.events = stats.dispatched;
          per_trace[i] = std::move(out);
        }
      });
  if (registry != nullptr) shards.merge_into(*registry);

  DatasetEvalResult result;
  result.per_trace_off_fraction.reserve(traces.size());
  for (const PerTrace& p : per_trace) {
    const SlotEvalResult& r = p.result;
    result.per_trace_off_fraction.push_back(r.off_fraction());
    result.pooled.total_slots += r.total_slots;
    result.pooled.off_slots += r.off_slots;
    result.pooled.off_per_dirty_frame.insert(
        result.pooled.off_per_dirty_frame.end(), r.off_per_dirty_frame.begin(),
        r.off_per_dirty_frame.end());
    result.events += p.events;
  }
  return result;
}

}  // namespace cyclops::link
