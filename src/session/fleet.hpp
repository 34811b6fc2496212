// The fleet simulator: 10k–100k isolated sessions striped across the
// driver pool — the ROADMAP's "millions of users" story in miniature
// (LP-per-session, ROOT-Sim style; DESIGN.md §16).
//
// Determinism contract: every session runs on its own isolated Context
// (private RNG streams, clock, metrics registry) and builds its own
// slot grid or event::Scheduler, chunk index → session range is the static
// ThreadPool::chunk_range geometry, telemetry accumulates into a
// shard-per-chunk ShardedRegistry merged in shard order — so the whole
// FleetResult (Report fields AND JSONL metric exports AND the rolled-up
// registry) is byte-identical at any driver thread count, and identical
// to running every session alone.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "obs/registry.hpp"
#include "session/runner.hpp"
#include "session/spec.hpp"
#include "util/thread_pool.hpp"

namespace cyclops::session {

/// Per-session execution knobs shared by the fleet driver and alone
/// runs (tests call run_session directly with the same values to build
/// their byte-equality baselines).
struct SessionExecution {
  /// Capture obs::to_jsonl(session registry) into Report::metrics_jsonl.
  /// Off by default: a 100k-session fleet does not want 100k strings.
  bool capture_metrics = false;
  /// Fold the session registry into this rollup shard after the run.
  obs::Registry* rollup = nullptr;
};

/// Runs ONE session end to end: isolated context seeded from the spec,
/// factory → prepare → run, fleet_{sessions,events,slots}_total counters
/// stamped into the session registry (so rollups reconcile against
/// per-session sums by construction), metrics captured/merged per
/// `exec`.  This is the only session execution path — the fleet chunk
/// body and the alone-run baselines both call it, which is what makes
/// "fleet == alone, byte for byte" a structural property.
Report run_session(const SessionSpec& spec, const RunnerFactory& factory,
                   const SessionExecution& exec = {});

struct FleetConfig {
  /// Chunks handed to ThreadPool::run_chunked; 0 → 4× driver threads
  /// (enough slack for the atomic dispenser to absorb stragglers).
  std::size_t chunks = 0;
  bool capture_metrics = false;  ///< Fill every Report::metrics_jsonl.
};

struct FleetTotals {
  std::uint64_t sessions = 0;
  std::uint64_t events = 0;  ///< Sum of Report::events.
  std::uint64_t slots = 0;   ///< Sum of Report::slots.
  double wall_seconds = 0.0; ///< Driver wall time (never determinism-checked).
};

struct FleetResult {
  std::vector<Report> reports;  ///< reports[i] ↔ specs[i].
  /// Every session registry folded together: per-chunk shards merged in
  /// shard-index order (ShardedRegistry::merge_into).
  std::unique_ptr<obs::Registry> rollup;
  FleetTotals totals;
  /// fleet_{sessions,events,slots}_total in `rollup` exactly equal the
  /// per-session sums in `totals`.
  bool reconciled = false;
};

/// Stripes `specs` across `pool` (default: the global driver pool).
FleetResult run_fleet(const std::vector<SessionSpec>& specs,
                      const RunnerFactory& factory,
                      const FleetConfig& config = {},
                      util::ThreadPool* pool = nullptr);

}  // namespace cyclops::session
