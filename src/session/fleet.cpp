#include "session/fleet.hpp"

#include <algorithm>
#include <chrono>

#include "obs/export.hpp"

namespace cyclops::session {

Report run_session(const SessionSpec& spec, const RunnerFactory& factory,
                   const SessionExecution& exec) {
  runtime::Context ctx =
      runtime::Context::isolated({.seed = spec.seed, .threads = 1});
  std::unique_ptr<SessionRunner> runner = factory(spec);
  runner->prepare(ctx);
  Report report = runner->run(ctx);
  report.variant = spec.variant;
  report.seed = spec.seed;
  // Uniform accounting counters in the session's own registry, BEFORE
  // capture/merge: rollup-vs-per-session reconciliation then holds by
  // construction for every variant, including ones whose native
  // counters differ in shape.
  obs::Registry& registry = ctx.registry();
  registry.counter("fleet_sessions_total").inc(1);
  registry.counter("fleet_events_total").inc(report.events);
  registry.counter("fleet_slots_total").inc(report.slots);
  if (exec.capture_metrics) report.metrics_jsonl = obs::to_jsonl(registry);
  if (exec.rollup != nullptr) exec.rollup->merge_from(registry);
  return report;
}

FleetResult run_fleet(const std::vector<SessionSpec>& specs,
                      const RunnerFactory& factory, const FleetConfig& config,
                      util::ThreadPool* pool) {
  util::ThreadPool& drivers =
      pool != nullptr ? *pool : util::ThreadPool::global();
  const std::size_t n = specs.size();
  FleetResult result;
  result.reports.resize(n);

  std::size_t chunks =
      config.chunks != 0 ? config.chunks : 4 * drivers.thread_count();
  chunks = std::clamp<std::size_t>(chunks, 1, std::max<std::size_t>(n, 1));

  // One rollup shard per chunk: a chunk runs on exactly one executor at a
  // time (the dispenser hands out whole chunks), so each shard is
  // single-threaded by construction.
  obs::ShardedRegistry shards(chunks);

  const auto wall_start = std::chrono::steady_clock::now();
  drivers.run_chunked(
      n, chunks, [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        SessionExecution exec;
        exec.capture_metrics = config.capture_metrics;
        exec.rollup = &shards.shard(chunk);
        for (std::size_t i = begin; i < end; ++i) {
          result.reports[i] = run_session(specs[i], factory, exec);
        }
      });
  result.totals.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  result.rollup = std::make_unique<obs::Registry>();
  shards.merge_into(*result.rollup);

  result.totals.sessions = n;
  for (const Report& report : result.reports) {
    result.totals.events += report.events;
    result.totals.slots += report.slots;
  }
  result.reconciled =
      result.rollup->counter("fleet_sessions_total").value() ==
          result.totals.sessions &&
      result.rollup->counter("fleet_events_total").value() ==
          result.totals.events &&
      result.rollup->counter("fleet_slots_total").value() ==
          result.totals.slots;
  return result;
}

}  // namespace cyclops::session
