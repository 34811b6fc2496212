// Test-only oracles: the legacy fixed-step loops the production link
// simulators are held bit-exact against.
//
//   * run_link_simulation_fixed_step — the original 0.5 ms closed loop
//     (scene ray trace + SFP state machine + open-coded window
//     accumulators).  link::run_link_simulation must reproduce its
//     per-window output exactly (tests/session_core_test,
//     bench/fig13_10g_pure).
//   * evaluate_trace_fixed_step — the §5.4 per-slot loop.
//     link::evaluate_trace_events must reproduce its slot counts and
//     frame clustering exactly (tests/event_test, bench/fig16_trace_cdf).
//
// They live here, not in src/, so the production API carries one
// implementation of each job; tests and the two equivalence benches link
// cyclops_oracle.
#pragma once

#include <vector>

#include "core/tp_controller.hpp"
#include "link/fso_link.hpp"
#include "link/slot_eval.hpp"
#include "motion/profile.hpp"
#include "motion/trace.hpp"
#include "sim/prototype.hpp"

namespace cyclops::oracle {

/// The fixed-step closed loop, as it ran before the event session core
/// (link::run_link_simulation's signature without its log and stats: the
/// start-up polish fans out over `ctx.pool()`).
link::RunResult run_link_simulation_fixed_step(
    sim::Prototype& proto, core::TpController& controller,
    const motion::MotionProfile& profile, const runtime::Context& ctx,
    const link::SimOptions& options = {});

/// The fixed-step §5.4 trace evaluator.
link::SlotEvalResult evaluate_trace_fixed_step(
    const motion::Trace& trace, const link::SlotEvalConfig& config);

/// evaluate_trace_fixed_step over a dataset, serially, merged in trace
/// order exactly as link::evaluate_dataset merges (events stays 0).
link::DatasetEvalResult evaluate_dataset_fixed_step(
    const std::vector<motion::Trace>& traces,
    const link::SlotEvalConfig& config);

}  // namespace cyclops::oracle
