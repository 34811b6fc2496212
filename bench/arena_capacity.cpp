// Arena capacity study: how many headsets an N-TX room actually serves
// at the SLA floor, per scheduling policy — the multi-player extension of
// the paper's one-TX/one-headset deployment (§3's ceiling grid, shared).
//
// Sweeps TX count x scheduling policy over a 16-player uniform room, then
// stresses the winner with adversarial scenarios:
//   * clustered corner      — everyone in one quadrant: occlusion-dense,
//     one TX's roster oversubscribed while the rest idle;
//   * synchronized motion   — every player yaw-bursts at the same
//     instants (worst case for reactive scheduling; the predictive
//     policy's reason to exist);
//   * TX failure mid-game   — TX0 dies a third of the way in; its roster
//     must migrate to surviving TXs (drop-triggered handover commits).
//
// Hard gates (scripts/check.sh runs the short-duration smoke mode):
// zero galvo duty-budget violations anywhere, at least one successful
// migration in the TX-failure runs, and an SLA floor on the uniform
// 4-TX room.  An argv[1] duration (seconds) below the full 30 selects
// smoke mode, which writes BENCH_arena_smoke.json so the committed
// full-run BENCH_arena.json is never clobbered.
//
// Every run is constructed inside its own fan-out item as a pure
// function of its spec, so the fan is bit-identical at any driver-pool
// thread count (the determinism test pins this).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "arena/session.hpp"
#include "arena/topology.hpp"
#include "util/bench_io.hpp"
#include "util/thread_pool.hpp"

using namespace cyclops;

namespace {

constexpr double kFullDurationS = 30.0;
constexpr std::size_t kHeadsets = 16;
constexpr std::uint64_t kSeed = 2026;

struct RunSpec {
  arena::SchedulePolicy policy = arena::SchedulePolicy::kRoundRobin;
  std::size_t num_tx = 4;
  arena::Scenario scenario = arena::Scenario::kUniform;
  bool fail_tx0 = false;
};

const char* policy_key(arena::SchedulePolicy p) {
  switch (p) {
    case arena::SchedulePolicy::kRoundRobin: return "rr";
    case arena::SchedulePolicy::kMarginWeighted: return "mw";
    case arena::SchedulePolicy::kPredictive: return "pred";
  }
  return "?";
}

arena::ArenaResult run_spec(const RunSpec& spec, double duration_s) {
  arena::ArenaConfig config;
  arena::ArenaTopology topo(
      config, spec.num_tx,
      arena::ArenaTopology::make_tracks(config, kHeadsets, spec.scenario,
                                        duration_s, kSeed));
  arena::ArenaOptions options;
  options.scheduler.policy = spec.policy;
  options.duration_s = duration_s;
  if (spec.fail_tx0) {
    const util::SimTimeUs fail_at = util::us_from_s(duration_s / 3.0);
    options.tx_failed = [fail_at](util::SimTimeUs t, std::size_t tx) {
      return tx == 0 && t >= fail_at;
    };
  }
  return arena::run_arena_session(topo, options,
                                  runtime::Context::isolated());
}

double mean_rate(const arena::ArenaResult& r) {
  double sum = 0.0;
  int n = 0;
  for (const auto& q : r.headsets) {
    if (!q.admitted) continue;
    sum += q.avg_rate_gbps;
    ++n;
  }
  return n > 0 ? sum / n : 0.0;
}

bool check(bool ok, const char* what) {
  if (!ok) std::fprintf(stderr, "GATE FAILED: %s\n", what);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const double duration_s =
      argc > 1 ? std::max(1.0, std::atof(argv[1])) : kFullDurationS;
  const bool smoke = duration_s < kFullDurationS;
  std::printf("== Arena capacity: %zu headsets, beam scheduling + admission "
              "+ TX handover (%.0f s sessions%s) ==\n\n",
              kHeadsets, duration_s, smoke ? ", smoke" : "");

  const arena::SchedulePolicy kPolicies[] = {
      arena::SchedulePolicy::kRoundRobin,
      arena::SchedulePolicy::kMarginWeighted,
      arena::SchedulePolicy::kPredictive};
  const std::size_t kTxCounts[] = {1, 2, 4, 6};
  const arena::SchedulePolicy kAdvPolicies[] = {
      arena::SchedulePolicy::kRoundRobin,
      arena::SchedulePolicy::kPredictive};
  const arena::Scenario kAdvScenarios[] = {
      arena::Scenario::kClusteredCorner, arena::Scenario::kSyncFastMotion};

  // Capacity curves (policy x TX count, uniform room) + adversarial runs,
  // all fanned over the driver pool; each item builds its own topology.
  std::vector<RunSpec> specs;
  for (const auto policy : kPolicies) {
    for (const auto n : kTxCounts) {
      specs.push_back({policy, n, arena::Scenario::kUniform, false});
    }
  }
  for (const auto policy : kAdvPolicies) {
    for (const auto scenario : kAdvScenarios) {
      specs.push_back({policy, 4, scenario, false});
    }
    specs.push_back({policy, 4, arena::Scenario::kUniform, true});
  }

  // Best-of-2 wall time over the whole fan (the fig13/fig16 protocol);
  // results are identical across reps — sessions are deterministic — so
  // rep 0's are reported.
  constexpr int kTimingReps = 2;
  std::vector<arena::ArenaResult> results(specs.size());
  double fan_ms = 0.0;
  for (int rep = 0; rep < kTimingReps; ++rep) {
    std::vector<arena::ArenaResult> rep_results(specs.size());
    util::Timer timer;
    util::parallel_for(
        specs.size(),
        [&](std::size_t i) { rep_results[i] = run_spec(specs[i], duration_s); },
        util::ThreadPool::global());
    const double rep_ms = timer.elapsed_ms();
    if (rep == 0) {
      results = std::move(rep_results);
      fan_ms = rep_ms;
    } else {
      fan_ms = std::min(fan_ms, rep_ms);
    }
  }

  std::vector<std::pair<std::string, double>> fields;
  std::printf("capacity curves (headsets meeting the %.1f Gbps SLA):\n",
              arena::SlaConfig{}.min_rate_gbps);
  std::printf("%-16s %4s %6s %10s %11s %10s\n", "policy", "tx", "sla",
              "mean_gbps", "migrations", "evictions");
  int duty_violations = 0;
  std::size_t idx = 0;
  for (const auto policy : kPolicies) {
    for (const auto n : kTxCounts) {
      const auto& r = results[idx++];
      duty_violations += r.duty_violations;
      std::printf("%-16s %4zu %6d %10.2f %11d %10d\n",
                  arena::to_string(policy), n, r.sla_met_count(),
                  mean_rate(r), r.migrations, r.evictions);
      const std::string key =
          std::string("cap_") + policy_key(policy) + "_tx" + std::to_string(n);
      fields.emplace_back(key + "_sla",
                          static_cast<double>(r.sla_met_count()));
      fields.emplace_back(key + "_mean_gbps", mean_rate(r));
    }
  }

  std::printf("\nadversarial scenarios (4 TXs):\n");
  std::printf("%-18s %-16s %6s %10s %11s %10s\n", "scenario", "policy", "sla",
              "mean_gbps", "migrations", "evictions");
  int failure_migrations = 0;
  for (const auto policy : kAdvPolicies) {
    for (int s = 0; s < 3; ++s) {
      const auto& spec = specs[idx];
      const auto& r = results[idx++];
      duty_violations += r.duty_violations;
      const char* scenario_name =
          spec.fail_tx0 ? "tx0_failure" : arena::to_string(spec.scenario);
      if (spec.fail_tx0) failure_migrations += r.migrations;
      std::printf("%-18s %-16s %6d %10.2f %11d %10d\n", scenario_name,
                  arena::to_string(policy), r.sla_met_count(), mean_rate(r),
                  r.migrations, r.evictions);
      const std::string key = std::string("adv_") +
                              (spec.fail_tx0 ? "tx_fail" : scenario_name) +
                              "_" + policy_key(policy);
      fields.emplace_back(key + "_sla",
                          static_cast<double>(r.sla_met_count()));
      fields.emplace_back(key + "_migrations",
                          static_cast<double>(r.migrations));
    }
  }

  // The uniform 4-TX predictive run anchors the SLA-fraction gate.
  double uniform_tx4_sla = 0.0;
  idx = 0;
  for (const auto policy : kPolicies) {
    for (const auto n : kTxCounts) {
      if (policy == arena::SchedulePolicy::kPredictive && n == 4) {
        uniform_tx4_sla = static_cast<double>(results[idx].sla_met_count()) /
                          static_cast<double>(kHeadsets);
      }
      ++idx;
    }
  }

  std::printf("\nfan: %.0f ms (best of %d); duty violations %d, "
              "failure-scenario migrations %d, uniform 4-TX SLA fraction "
              "%.2f\n",
              fan_ms, kTimingReps, duty_violations, failure_migrations,
              uniform_tx4_sla);

  // Hard gates (the check.sh arena smoke stage runs these on the short
  // duration; the full run enforces them too).
  bool ok = true;
  ok &= check(duty_violations == 0, "zero galvo duty-budget violations");
  ok &= check(failure_migrations >= 1,
              "TX-failure runs commit at least one migration");
  ok &= check(uniform_tx4_sla >= 0.75,
              "uniform 4-TX room serves >= 75% of headsets at the SLA");
  if (!ok) return 1;

  fields.emplace_back("headsets", static_cast<double>(kHeadsets));
  fields.emplace_back("duration_s", duration_s);
  fields.emplace_back("duty_violations", static_cast<double>(duty_violations));
  fields.emplace_back("failure_migrations",
                      static_cast<double>(failure_migrations));
  fields.emplace_back("uniform_tx4_sla_fraction", uniform_tx4_sla);
  fields.emplace_back("fan_ms", fan_ms);
  fields.emplace_back("timing_reps", static_cast<double>(kTimingReps));
  util::write_bench_json(smoke ? "arena_smoke" : "arena", fields);
  return 0;
}
