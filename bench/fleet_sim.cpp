// Fleet simulator: N isolated sessions (default 10 000) striped across
// the driver pool via session::run_fleet — the LP-scale story (DESIGN.md
// §16).  The spec list cycles the full catalog (link / channel / hetero /
// multi-TX / arena / stream / online-recal) with per-index seeds, so the
// fleet exercises every plane and the per-variant mix lands in the JSON.
// After the mixed run, each variant's slice of the same spec list runs
// through its own run_fleet call, and its rate lands in the JSON as
// sessions_per_sec_<variant>, so a mix change cannot hide a regression in
// one variant.
//
// Hard gates (scripts/check.sh runs the 1k smoke mode):
//   * rollup reconciliation — fleet_{sessions,events,slots}_total in the
//     merged registry exactly equal the per-session Report sums, in the
//     mixed run and in every per-variant run;
//   * every session dispatched at least one event;
//   * sessions/sec floors, mixed and per variant (smoke mode only; see
//     scripts/check.sh).
//
// An argv[1] session count below the full 10 000 selects smoke mode,
// which writes BENCH_fleet_smoke.json so the committed full-run
// BENCH_fleet.json is never clobbered.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "session/catalog.hpp"
#include "session/fleet.hpp"
#include "util/bench_io.hpp"

using namespace cyclops;

namespace {

constexpr std::size_t kFullSessions = 10000;

/// Spec i: variant cycles the catalog, seed is index-derived, durations
/// are tuned so the expensive planes (prototype construction) don't
/// dominate a 10k-session run on one core.
session::SessionSpec make_spec(std::size_t i) {
  session::SessionSpec spec;
  spec.variant =
      static_cast<session::Variant>(i % session::kVariantCount);
  spec.seed = 1 + static_cast<std::uint64_t>(i);
  spec.motion = static_cast<std::uint32_t>(i / session::kVariantCount) % 3;
  spec.intensity = 1.0 + 0.25 * static_cast<double>(i % 4);
  switch (spec.variant) {
    case session::Variant::kLink:
    case session::Variant::kHetero:
    case session::Variant::kMultiTx:
      spec.duration_s = 0.2;
      break;
    case session::Variant::kChannel:
      spec.duration_s = 1.0;
      break;
    case session::Variant::kArena:
      spec.duration_s = 0.5;
      break;
    case session::Variant::kStream:
      spec.duration_s = 0.5;
      break;
    case session::Variant::kOnlineRecal:
      spec.duration_s = 0.2;
      break;
  }
  return spec;
}

double peak_rss_mb() {
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t n = kFullSessions;
  if (argc > 1) n = static_cast<std::size_t>(std::strtoul(argv[1], nullptr, 10));
  const bool smoke = n < kFullSessions;

  std::vector<session::SessionSpec> specs;
  specs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) specs.push_back(make_spec(i));

  const session::RunnerFactory factory = session::catalog_factory();
  const session::FleetResult fleet = session::run_fleet(specs, factory);

  std::size_t mix[session::kVariantCount] = {};
  std::uint64_t events_by_variant[session::kVariantCount] = {};
  std::size_t empty_sessions = 0;
  for (const session::Report& report : fleet.reports) {
    const auto v = static_cast<std::size_t>(report.variant);
    ++mix[v];
    events_by_variant[v] += report.events;
    if (report.events == 0) ++empty_sessions;
  }

  const double wall = fleet.totals.wall_seconds;
  const double sessions_per_sec =
      wall > 0.0 ? static_cast<double>(fleet.totals.sessions) / wall : 0.0;
  const double events_per_sec =
      wall > 0.0 ? static_cast<double>(fleet.totals.events) / wall : 0.0;

  std::printf("fleet: %zu sessions in %.2f s  (%.0f sessions/s, %.2e events/s)\n",
              n, wall, sessions_per_sec, events_per_sec);
  std::printf("  events %llu  slots %llu  peak RSS %.1f MB  reconciled %d\n",
              static_cast<unsigned long long>(fleet.totals.events),
              static_cast<unsigned long long>(fleet.totals.slots),
              peak_rss_mb(), fleet.reconciled ? 1 : 0);
  for (std::size_t v = 0; v < session::kVariantCount; ++v) {
    std::printf("  %-9s %6zu sessions  %12llu events\n",
                session::variant_name(static_cast<session::Variant>(v)),
                mix[v], static_cast<unsigned long long>(events_by_variant[v]));
  }

  // Per-variant rates: each variant's slice of the spec list on its own.
  double variant_sessions_per_sec[session::kVariantCount] = {};
  bool variants_reconciled = true;
  for (std::size_t v = 0; v < session::kVariantCount; ++v) {
    std::vector<session::SessionSpec> slice;
    for (const session::SessionSpec& spec : specs) {
      if (static_cast<std::size_t>(spec.variant) == v) slice.push_back(spec);
    }
    if (slice.empty()) continue;
    const session::FleetResult part = session::run_fleet(slice, factory);
    variants_reconciled = variants_reconciled && part.reconciled;
    const double part_wall = part.totals.wall_seconds;
    variant_sessions_per_sec[v] =
        part_wall > 0.0 ? static_cast<double>(part.totals.sessions) / part_wall
                        : 0.0;
    std::printf("  %-12s alone: %6zu sessions  %8.0f sessions/s\n",
                session::variant_name(static_cast<session::Variant>(v)),
                slice.size(), variant_sessions_per_sec[v]);
  }

  std::vector<std::pair<std::string, double>> fields;
  fields.emplace_back("sessions", static_cast<double>(fleet.totals.sessions));
  fields.emplace_back("wall_seconds", wall);
  fields.emplace_back("sessions_per_sec", sessions_per_sec);
  fields.emplace_back("events_total", static_cast<double>(fleet.totals.events));
  fields.emplace_back("events_per_sec", events_per_sec);
  fields.emplace_back("slots_total", static_cast<double>(fleet.totals.slots));
  fields.emplace_back("peak_rss_mb", peak_rss_mb());
  fields.emplace_back("reconciled", fleet.reconciled ? 1.0 : 0.0);
  for (std::size_t v = 0; v < session::kVariantCount; ++v) {
    const std::string key =
        std::string("mix_") +
        session::variant_name(static_cast<session::Variant>(v));
    fields.emplace_back(key, static_cast<double>(mix[v]));
  }
  for (std::size_t v = 0; v < session::kVariantCount; ++v) {
    const std::string key =
        std::string("sessions_per_sec_") +
        session::variant_name(static_cast<session::Variant>(v));
    fields.emplace_back(key, variant_sessions_per_sec[v]);
  }
  util::write_bench_json(smoke ? "fleet_smoke" : "fleet", fields);

  // Gates.
  bool ok = true;
  if (!fleet.reconciled) {
    std::fprintf(stderr, "GATE FAIL: rollup does not reconcile with per-session sums\n");
    ok = false;
  }
  if (!variants_reconciled) {
    std::fprintf(stderr, "GATE FAIL: a per-variant rollup does not reconcile\n");
    ok = false;
  }
  if (fleet.reports.size() != n) {
    std::fprintf(stderr, "GATE FAIL: %zu reports for %zu specs\n",
                 fleet.reports.size(), n);
    ok = false;
  }
  if (empty_sessions != 0) {
    std::fprintf(stderr, "GATE FAIL: %zu sessions dispatched zero events\n",
                 empty_sessions);
    ok = false;
  }
  return ok ? 0 : 1;
}
