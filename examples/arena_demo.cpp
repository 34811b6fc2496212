// Arena demo: a six-player, four-TX room for 12 seconds — beam
// scheduling, admission control, and a mid-session TX failure that
// forces live TX->TX migrations.  Prints each headset's QoE, the full
// decision trail (admissions, migrations, evictions), and the arena
// metrics as a Prometheus registry view.
//
//   ./examples/arena_demo
#include <cstdio>

#include "arena/session.hpp"
#include "arena/topology.hpp"
#include "obs/export.hpp"
#include "obs/registry.hpp"

using namespace cyclops;

int main() {
  std::printf("== Cyclops arena: 6 headsets, 4 ceiling TXs, TX2 fails at "
              "t=6s ==\n\n");

  arena::ArenaConfig config;
  arena::ArenaTopology topo(
      config, /*num_tx=*/4,
      arena::ArenaTopology::make_tracks(config, /*m=*/6,
                                        arena::Scenario::kUniform,
                                        /*duration_s=*/12.0, /*seed=*/7));

  arena::ArenaOptions options;
  options.scheduler.policy = arena::SchedulePolicy::kPredictive;
  options.duration_s = 12.0;
  options.tx_failed = [](util::SimTimeUs t, std::size_t tx) {
    return tx == 2 && t >= util::us_from_s(6.0);
  };

  const runtime::Context ctx = runtime::Context::isolated();
  const arena::ArenaResult result =
      arena::run_arena_session(topo, options, ctx);

  std::printf("per-headset QoE:\n");
  std::printf("%3s %4s %10s %8s %8s %9s %11s %4s\n", "id", "tx", "rate_gbps",
              "served", "occluded", "outage_s", "migrations", "sla");
  for (std::size_t h = 0; h < result.headsets.size(); ++h) {
    const auto& q = result.headsets[h];
    std::printf("%3zu %4d %10.2f %7.0f%% %7.1f%% %9.2f %11d %4s\n", h,
                q.final_tx, q.avg_rate_gbps, 100.0 * q.served_fraction,
                100.0 * q.occluded_fraction, q.longest_outage_s, q.migrations,
                q.sla_met ? "yes" : "NO");
  }

  std::printf("\ndecision trail (%zu events):\n", result.log.size());
  for (const auto& ev : result.log) {
    std::printf("  t=%7.3fs %-10s headset=%2d tx=%d\n", util::us_to_s(ev.time),
                arena::to_string(ev.kind), ev.headset, ev.tx);
  }

  std::printf("\ntotals: %d admissions, %d migrations (%d cancelled), "
              "%d evictions, %d duty violations, schedule efficiency "
              "%.2f\n",
              result.admissions, result.migrations,
              result.cancelled_migrations, result.evictions,
              result.duty_violations, result.schedule_efficiency);
  std::printf("per-TX duty: ");
  for (const double d : result.per_tx_duty) std::printf("%.2f ", d);
  std::printf("(budget %.2f)\n", options.scheduler.duty_budget);

  std::printf("\nPrometheus registry view:\n%s",
              obs::to_prometheus(ctx.registry()).c_str());
  return 0;
}
