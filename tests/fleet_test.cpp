// session::Fleet determinism contract: a fleet run is byte-identical to
// running every session alone — Report fields compared with ==, doubles
// included, plus the JSONL metric exports — at ANY driver-pool width or
// chunk count; and the shard rollup is a pure merge: order-independent,
// reconciling exactly against the per-session sums.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <vector>

#include "obs/export.hpp"
#include "obs/registry.hpp"
#include "session/catalog.hpp"
#include "session/fleet.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace cyclops {
namespace {

/// A small mixed fleet: every catalog variant, several seeds each.
std::vector<session::SessionSpec> mixed_specs(std::size_t n) {
  std::vector<session::SessionSpec> specs;
  specs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    session::SessionSpec spec;
    spec.variant = static_cast<session::Variant>(i % session::kVariantCount);
    spec.seed = 1000 + i;
    spec.duration_s = 0.1;
    spec.motion = static_cast<std::uint32_t>(i % 3);
    specs.push_back(spec);
  }
  return specs;
}

void expect_reports_identical(const session::Report& a,
                              const session::Report& b, std::size_t i) {
  EXPECT_EQ(a.variant, b.variant) << "spec " << i;
  EXPECT_EQ(a.seed, b.seed) << "spec " << i;
  EXPECT_EQ(a.events, b.events) << "spec " << i;
  EXPECT_EQ(a.slots, b.slots) << "spec " << i;
  // Bit-exact, not approximate: the whole point of the contract.
  EXPECT_EQ(a.served_fraction, b.served_fraction) << "spec " << i;
  EXPECT_EQ(a.avg_rate_gbps, b.avg_rate_gbps) << "spec " << i;
  EXPECT_EQ(a.switches, b.switches) << "spec " << i;
  EXPECT_EQ(a.metrics_jsonl, b.metrics_jsonl) << "spec " << i;
}

TEST(FleetTest, FleetMatchesAloneRunsAtAnyDriverWidth) {
  const std::vector<session::SessionSpec> specs = mixed_specs(24);
  const session::RunnerFactory factory = session::catalog_factory();

  // Baseline: every session alone, no fleet machinery at all.
  session::SessionExecution alone;
  alone.capture_metrics = true;
  std::vector<session::Report> baseline;
  baseline.reserve(specs.size());
  for (const session::SessionSpec& spec : specs) {
    baseline.push_back(session::run_session(spec, factory, alone));
  }

  std::string rollup_baseline;
  for (const std::size_t width : {std::size_t{1}, std::size_t{2},
                                  std::size_t{8}}) {
    util::ThreadPool pool(width);
    session::FleetConfig config;
    config.capture_metrics = true;
    const session::FleetResult fleet =
        session::run_fleet(specs, factory, config, &pool);
    ASSERT_EQ(fleet.reports.size(), specs.size()) << "width " << width;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      expect_reports_identical(fleet.reports[i], baseline[i], i);
    }
    EXPECT_TRUE(fleet.reconciled) << "width " << width;
    // The rolled-up registry must also be byte-stable across widths.
    const std::string rollup = obs::to_jsonl(*fleet.rollup);
    if (rollup_baseline.empty()) {
      rollup_baseline = rollup;
    } else {
      EXPECT_EQ(rollup, rollup_baseline) << "width " << width;
    }
  }
}

TEST(FleetTest, ChunkingDoesNotChangeBytes) {
  const std::vector<session::SessionSpec> specs = mixed_specs(18);
  const session::RunnerFactory factory = session::catalog_factory();
  util::ThreadPool pool(2);

  std::vector<session::Report> baseline;
  std::string rollup_baseline;
  for (const std::size_t chunks : {std::size_t{1}, std::size_t{5},
                                   std::size_t{18}}) {
    session::FleetConfig config;
    config.chunks = chunks;
    config.capture_metrics = true;
    const session::FleetResult fleet =
        session::run_fleet(specs, factory, config, &pool);
    ASSERT_EQ(fleet.reports.size(), specs.size());
    const std::string rollup = obs::to_jsonl(*fleet.rollup);
    if (baseline.empty()) {
      baseline = fleet.reports;
      rollup_baseline = rollup;
      continue;
    }
    for (std::size_t i = 0; i < specs.size(); ++i) {
      expect_reports_identical(fleet.reports[i], baseline[i], i);
    }
    EXPECT_EQ(rollup, rollup_baseline) << "chunks=" << chunks;
  }
}

TEST(FleetTest, RollupReconcilesAgainstPerSessionSums) {
  const std::vector<session::SessionSpec> specs = mixed_specs(12);
  const session::FleetResult fleet =
      session::run_fleet(specs, session::catalog_factory());
  EXPECT_TRUE(fleet.reconciled);

  std::uint64_t events = 0, slots = 0;
  for (const session::Report& report : fleet.reports) {
    events += report.events;
    slots += report.slots;
  }
  EXPECT_EQ(fleet.totals.sessions, specs.size());
  EXPECT_EQ(fleet.totals.events, events);
  EXPECT_EQ(fleet.totals.slots, slots);
  EXPECT_EQ(fleet.rollup->counter("fleet_sessions_total").value(),
            specs.size());
  EXPECT_EQ(fleet.rollup->counter("fleet_events_total").value(), events);
  EXPECT_EQ(fleet.rollup->counter("fleet_slots_total").value(), slots);
}

TEST(FleetTest, ShardRollupIsOrderIndependent) {
  // One registry per session, captured the same way fleet shards are.
  const std::vector<session::SessionSpec> specs = mixed_specs(48);
  const session::RunnerFactory factory = session::catalog_factory();
  std::vector<std::unique_ptr<obs::Registry>> per_session;
  per_session.reserve(specs.size());
  for (const session::SessionSpec& spec : specs) {
    auto registry = std::make_unique<obs::Registry>();
    session::SessionExecution exec;
    exec.rollup = registry.get();
    session::run_session(spec, factory, exec);
    per_session.push_back(std::move(registry));
  }

  std::vector<std::size_t> order(per_session.size());
  std::iota(order.begin(), order.end(), 0);
  std::string baseline;
  util::Rng rng(99);
  for (int round = 0; round < 4; ++round) {
    obs::Registry rollup;
    for (const std::size_t i : order) rollup.merge_from(*per_session[i]);
    const std::string jsonl = obs::to_jsonl(rollup);
    if (round == 0) {
      baseline = jsonl;
      ASSERT_FALSE(baseline.empty());
    } else {
      EXPECT_EQ(jsonl, baseline) << "merge order changed the rollup bytes";
    }
    if (round == 0) {
      std::reverse(order.begin(), order.end());
    } else {
      // Deterministic shuffle for the later rounds.
      for (std::size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[rng.uniform_index(
                                    static_cast<std::uint32_t>(i))]);
      }
    }
  }
}

}  // namespace
}  // namespace cyclops
