// End-to-end arena session tests: TX failure migration, the
// no-silent-drop accountability invariant, duty violations under fuzzed
// configurations, determinism across driver-pool thread counts, and the
// obs counter contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "arena/session.hpp"
#include "arena/topology.hpp"
#include "obs/registry.hpp"
#include "runtime/context.hpp"
#include "util/rng.hpp"
#include "util/sim_clock.hpp"

namespace cyclops::arena {
namespace {

ArenaTopology small_arena(std::size_t num_tx, std::size_t players,
                          Scenario scenario, double duration_s,
                          std::uint64_t seed) {
  const ArenaConfig config;
  return ArenaTopology(config, num_tx,
                       ArenaTopology::make_tracks(config, players, scenario,
                                                  duration_s, seed));
}

int count_kind(const ArenaResult& result, ArenaEventKind kind,
               int headset = -2) {
  int n = 0;
  for (const ArenaEvent& ev : result.log) {
    if (ev.kind == kind && (headset == -2 || ev.headset == headset)) ++n;
  }
  return n;
}

// The accountability trail must reconcile with the aggregate counters and
// per-headset QoE exactly: every admission, migration, and eviction is in
// the log, and an admitted headset never vanishes without one.
void check_log_invariants(const ArenaResult& result) {
  EXPECT_EQ(count_kind(result, ArenaEventKind::kAdmitted),
            result.admissions);
  EXPECT_EQ(count_kind(result, ArenaEventKind::kQueued), result.queued);
  EXPECT_EQ(count_kind(result, ArenaEventKind::kRejected),
            result.rejections);
  EXPECT_EQ(count_kind(result, ArenaEventKind::kMigrated),
            result.migrations);
  EXPECT_EQ(count_kind(result, ArenaEventKind::kEvicted), result.evictions);

  for (std::size_t h = 0; h < result.headsets.size(); ++h) {
    const HeadsetQoE& q = result.headsets[h];
    const int id = static_cast<int>(h);
    EXPECT_EQ(count_kind(result, ArenaEventKind::kMigrated, id),
              q.migrations);
    const int admits = count_kind(result, ArenaEventKind::kAdmitted, id);
    const int evicts = count_kind(result, ArenaEventKind::kEvicted, id);
    if (q.admitted) {
      EXPECT_GE(admits, 1);
      // No silent drop: a headset that held a roster slot but holds none
      // at session end must show the eviction in the log.
      if (q.final_tx < 0) {
        EXPECT_GE(evicts, 1)
            << "headset " << h << " lost its slot with no eviction logged";
      }
      // Slot churn balances: you can only be evicted once per admission.
      EXPECT_GE(admits, evicts);
      EXPECT_LE(admits, evicts + 1);
    } else {
      EXPECT_EQ(admits, 0);
      EXPECT_EQ(q.migrations, 0);
      EXPECT_EQ(q.final_tx, -1);
    }
  }

  // Timestamps are in tick order.
  for (std::size_t i = 1; i < result.log.size(); ++i) {
    EXPECT_LE(result.log[i - 1].time, result.log[i].time);
  }
}

TEST(ArenaSessionTest, TxFailureForcesLoggedMigrations) {
  const ArenaTopology topo =
      small_arena(2, 3, Scenario::kUniform, 6.0, 11);
  ArenaOptions options;
  options.duration_s = 6.0;
  options.tx_failed = [](util::SimTimeUs t, std::size_t tx) {
    return tx == 0 && t >= util::us_from_s(2.0);
  };
  const ArenaResult result =
      run_arena_session(topo, options, runtime::Context::isolated());

  EXPECT_GE(result.admissions, 1);
  EXPECT_EQ(count_kind(result, ArenaEventKind::kTxFailed), 1);
  // Anyone on TX0 at t=2 either migrates to TX1 or is evicted — and
  // nobody ends the session assigned to the dead TX.
  EXPECT_GE(result.migrations + result.evictions, 1);
  for (const HeadsetQoE& q : result.headsets) {
    EXPECT_NE(q.final_tx, 0);
  }
  check_log_invariants(result);
}

TEST(ArenaSessionTest, DutyRespectedAndLogConsistentAcrossFuzzedRuns) {
  util::Rng rng(0xBEEF);
  const Scenario scenarios[] = {Scenario::kUniform,
                               Scenario::kClusteredCorner,
                               Scenario::kSyncFastMotion};
  const SchedulePolicy policies[] = {SchedulePolicy::kRoundRobin,
                                     SchedulePolicy::kMarginWeighted,
                                     SchedulePolicy::kPredictive};
  for (int trial = 0; trial < 6; ++trial) {
    const std::size_t num_tx = 1 + rng.uniform_index(4);
    const std::size_t players = 2 + rng.uniform_index(7);
    const double duration_s = 3.0;
    const ArenaTopology topo =
        small_arena(num_tx, players, scenarios[rng.uniform_index(3)],
                    duration_s, 100 + static_cast<std::uint64_t>(trial));
    ArenaOptions options;
    options.duration_s = duration_s;
    options.scheduler.policy = policies[rng.uniform_index(3)];
    options.scheduler.duty_budget = rng.uniform(0.3, 1.0);
    const ArenaResult result =
        run_arena_session(topo, options, runtime::Context::isolated());

    ASSERT_EQ(result.duty_violations, 0) << "trial " << trial;
    for (const double duty : result.per_tx_duty) {
      // Frame-budget enforcement bounds long-run duty by the budget
      // (floor rounding can only lower it; +1-slot slack for the
      // at-least-one clamp on tiny budgets).
      EXPECT_LE(duty, std::max(options.scheduler.duty_budget,
                               1.0 / options.scheduler.frame_slots) + 1e-9)
          << "trial " << trial;
    }
    check_log_invariants(result);
  }
}

TEST(ArenaSessionTest, OversubscribedRoomQueuesAndRejects) {
  // One TX, a crowd far beyond one galvo's capacity: admission control
  // must queue up to its bound and reject the rest — all logged.
  const ArenaTopology topo =
      small_arena(1, 18, Scenario::kClusteredCorner, 2.0, 21);
  ArenaOptions options;
  options.duration_s = 2.0;
  options.sla.queue_capacity = 4;
  const ArenaResult result =
      run_arena_session(topo, options, runtime::Context::isolated());
  EXPECT_GT(result.queued, 0);
  EXPECT_GT(result.rejections, 0);
  check_log_invariants(result);
}

TEST(ArenaSessionTest, ByteIdenticalAcrossDriverPoolThreadCounts) {
  const ArenaTopology topo =
      small_arena(4, 6, Scenario::kUniform, 5.0, 42);
  ArenaOptions options;
  options.duration_s = 5.0;
  options.scheduler.policy = SchedulePolicy::kPredictive;
  options.tx_failed = [](util::SimTimeUs t, std::size_t tx) {
    return tx == 1 && t >= util::us_from_s(2.5);
  };

  const ArenaResult plain =
      run_arena_session(topo, options, runtime::Context::isolated());
  std::vector<ArenaResult> runs;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    runtime::Context ctx =
        runtime::Context::isolated({.threads = threads});
    runs.push_back(run_arena_session(topo, options, ctx));
  }

  for (const ArenaResult& r : runs) {
    EXPECT_EQ(r.admissions, plain.admissions);
    EXPECT_EQ(r.queued, plain.queued);
    EXPECT_EQ(r.rejections, plain.rejections);
    EXPECT_EQ(r.migrations, plain.migrations);
    EXPECT_EQ(r.cancelled_migrations, plain.cancelled_migrations);
    EXPECT_EQ(r.evictions, plain.evictions);
    EXPECT_EQ(r.duty_violations, plain.duty_violations);
    EXPECT_EQ(r.events, plain.events);
    EXPECT_EQ(r.schedule_efficiency, plain.schedule_efficiency);
    ASSERT_EQ(r.per_tx_duty.size(), plain.per_tx_duty.size());
    for (std::size_t tx = 0; tx < r.per_tx_duty.size(); ++tx) {
      EXPECT_EQ(r.per_tx_duty[tx], plain.per_tx_duty[tx]);
    }
    ASSERT_EQ(r.headsets.size(), plain.headsets.size());
    for (std::size_t h = 0; h < r.headsets.size(); ++h) {
      const HeadsetQoE &a = r.headsets[h], &b = plain.headsets[h];
      EXPECT_EQ(a.admitted, b.admitted);
      EXPECT_EQ(a.final_tx, b.final_tx);
      EXPECT_EQ(a.avg_rate_gbps, b.avg_rate_gbps);       // bit-exact
      EXPECT_EQ(a.served_fraction, b.served_fraction);
      EXPECT_EQ(a.delivered_fraction, b.delivered_fraction);
      EXPECT_EQ(a.occluded_fraction, b.occluded_fraction);
      EXPECT_EQ(a.longest_outage_s, b.longest_outage_s);
      EXPECT_EQ(a.migrations, b.migrations);
      EXPECT_EQ(a.sla_met, b.sla_met);
    }
    ASSERT_EQ(r.log.size(), plain.log.size());
    for (std::size_t i = 0; i < r.log.size(); ++i) {
      EXPECT_EQ(r.log[i].time, plain.log[i].time);
      EXPECT_EQ(r.log[i].kind, plain.log[i].kind);
      EXPECT_EQ(r.log[i].headset, plain.log[i].headset);
      EXPECT_EQ(r.log[i].tx, plain.log[i].tx);
    }
  }
}

TEST(ArenaSessionTest, ObsCountersMatchResult) {
  const ArenaTopology topo =
      small_arena(2, 4, Scenario::kUniform, 4.0, 17);
  ArenaOptions options;
  options.duration_s = 4.0;
  options.tx_failed = [](util::SimTimeUs t, std::size_t tx) {
    return tx == 0 && t >= util::us_from_s(1.5);
  };
  const runtime::Context ctx = runtime::Context::isolated();
  const ArenaResult result = run_arena_session(topo, options, ctx);

  const auto value = [&](const char* name) {
    return ctx.registry().counter(name).value();
  };
  EXPECT_EQ(value("arena_admissions_total"),
            static_cast<std::uint64_t>(result.admissions));
  EXPECT_EQ(value("arena_migrations_total"),
            static_cast<std::uint64_t>(result.migrations));
  EXPECT_EQ(value("arena_evictions_total"),
            static_cast<std::uint64_t>(result.evictions));
  EXPECT_EQ(value("arena_duty_violations_total"), 0u);
  EXPECT_EQ(value("arena_tx_failures_total"), 1u);
  EXPECT_GT(value("arena_slots_total"), 0u);
  EXPECT_EQ(value("arena_slots_total"), result.slots);
  EXPECT_GE(value("arena_slots_total"), value("arena_delivered_slots_total"));
  // And a run on a fresh context (fresh registry) must behave identically.
  const ArenaResult bare =
      run_arena_session(topo, options, runtime::Context::isolated());
  EXPECT_EQ(bare.admissions, result.admissions);
  EXPECT_EQ(bare.migrations, result.migrations);
  EXPECT_EQ(bare.events, result.events);
}

TEST(ArenaSessionTest, SlaMetCountMatchesHeadsets) {
  const ArenaTopology topo =
      small_arena(2, 4, Scenario::kUniform, 3.0, 5);
  ArenaOptions options;
  options.duration_s = 3.0;
  const ArenaResult result =
      run_arena_session(topo, options, runtime::Context::isolated());
  int n = 0;
  for (const HeadsetQoE& q : result.headsets) n += q.sla_met ? 1 : 0;
  EXPECT_EQ(result.sla_met_count(), n);
}

// The world ticks on the slot grid, below the duration: a 0-s session
// runs no tick, and its report stays finite (no 0/0 duty).
TEST(ArenaSessionTest, ZeroDurationRunsNoTickAndStaysFinite) {
  const ArenaTopology topo = small_arena(2, 3, Scenario::kUniform, 0.5, 5);
  ArenaOptions options;
  options.duration_s = 0.0;
  const ArenaResult result =
      run_arena_session(topo, options, runtime::Context::isolated());
  EXPECT_EQ(result.events, 0u);
  EXPECT_EQ(result.slots, 0u);
  ASSERT_EQ(result.per_tx_duty.size(), 2u);
  for (const double duty : result.per_tx_duty) EXPECT_EQ(duty, 0.0);
  EXPECT_EQ(result.schedule_efficiency, 0.0);
  ASSERT_EQ(result.headsets.size(), 3u);
  for (const HeadsetQoE& q : result.headsets) {
    EXPECT_EQ(q.avg_rate_gbps, 0.0);
    EXPECT_EQ(q.longest_outage_s, 0.0);
  }
  check_log_invariants(result);
}

// A non-positive slot is rejected up front: 0 would divide the session
// into ticks by zero.
TEST(ArenaSessionTest, NonPositiveSlotThrows) {
  const ArenaTopology topo = small_arena(2, 2, Scenario::kUniform, 0.5, 5);
  const util::SimTimeUs bad_slots[] = {0, -1000};
  for (const util::SimTimeUs slot : bad_slots) {
    ArenaOptions options;
    options.duration_s = 0.5;
    options.slot = slot;
    EXPECT_THROW(
        run_arena_session(topo, options, runtime::Context::isolated()),
        std::invalid_argument)
        << slot;
  }
}

}  // namespace
}  // namespace cyclops::arena
