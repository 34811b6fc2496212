// Fleet quickstart: run a small mixed fleet of isolated sessions through
// session::run_fleet and read the rolled-up telemetry.  Each session is
// a pure function of its SessionSpec — same specs, same driver pool or
// not, same bytes out (README "Fleet quickstart", DESIGN.md §16).  The
// demo proves it by re-running the fleet on a serial pool and diffing
// every Report and metric export against the parallel run (the check
// tests/fleet_test.cpp enforces at several driver widths).
#include <cstdio>

#include "obs/export.hpp"
#include "session/catalog.hpp"
#include "session/fleet.hpp"
#include "util/thread_pool.hpp"

using namespace cyclops;

namespace {

bool same_reports(const session::FleetResult& a,
                  const session::FleetResult& b) {
  if (a.reports.size() != b.reports.size()) return false;
  for (std::size_t i = 0; i < a.reports.size(); ++i) {
    const session::Report& x = a.reports[i];
    const session::Report& y = b.reports[i];
    if (x.events != y.events || x.slots != y.slots ||
        x.served_fraction != y.served_fraction ||
        x.avg_rate_gbps != y.avg_rate_gbps || x.switches != y.switches ||
        x.metrics_jsonl != y.metrics_jsonl) {
      return false;
    }
  }
  return obs::to_jsonl(*a.rollup) == obs::to_jsonl(*b.rollup);
}

}  // namespace

int main() {
  // 60 sessions: ten of each catalog variant, seeds 1..60.
  std::vector<session::SessionSpec> specs;
  for (std::size_t i = 0; i < 60; ++i) {
    session::SessionSpec spec;
    spec.variant = static_cast<session::Variant>(i % session::kVariantCount);
    spec.seed = 1 + i;
    spec.duration_s = 0.25;
    specs.push_back(spec);
  }

  session::FleetConfig config;
  config.capture_metrics = true;  // per-session JSONL, diffed below
  const session::FleetResult fleet =
      session::run_fleet(specs, session::catalog_factory(), config);

  std::printf("%zu sessions, %llu events, %.2f s wall, reconciled=%d\n",
              fleet.reports.size(),
              static_cast<unsigned long long>(fleet.totals.events),
              fleet.totals.wall_seconds, fleet.reconciled ? 1 : 0);
  for (std::size_t v = 0; v < session::kVariantCount; ++v) {
    double served = 0.0;
    std::size_t count = 0;
    for (const session::Report& r : fleet.reports) {
      if (static_cast<std::size_t>(r.variant) != v) continue;
      served += r.served_fraction;
      ++count;
    }
    std::printf("  %-9s %2zu sessions  mean served %.3f\n",
                session::variant_name(static_cast<session::Variant>(v)),
                count, count > 0 ? served / static_cast<double>(count) : 0.0);
  }

  // The rollup is every session registry folded together; the fleet_*
  // counters in it reconcile exactly against the Report sums above.
  std::printf("rollup fleet_events_total = %llu\n",
              static_cast<unsigned long long>(
                  fleet.rollup->counter("fleet_events_total").value()));

  // Serial baseline: the same fleet, one session at a time.
  const session::FleetResult serial =
      session::run_fleet(specs, session::catalog_factory(), config,
                         &util::ThreadPool::serial());
  const bool identical = same_reports(fleet, serial);
  std::printf("\nparallel (%zu drivers) vs serial: reports and metric "
              "exports %s\n",
              util::ThreadPool::global().thread_count(),
              identical ? "byte-identical" : "DIFFER (bug!)");
  return fleet.reconciled && identical ? 0 : 1;
}
