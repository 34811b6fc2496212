// Discrete-event engine for the §5.4 trace-driven connectivity study
// (evaluate_trace_events here; evaluate_dataset, declared in
// slot_eval.hpp, fans it out over a pool).  One report event per trace
// interval; each dispatch settles a connected interval with two compares
// against thresholds set once per report gap, finds any other interval's
// off/on slot runs by probing and bisecting the monotone per-slot
// predicate the fixed-step oracle (tests/oracle) shares, and tallies them
// straight into the §5.4 30-slot frame accumulator.  Dispatch is
// devirtualized via Scheduler::run_single (DESIGN.md §13).  The result is
// bit-identical to the oracle's.
#pragma once

#include <cstdint>

#include "event/trace_hook.hpp"
#include "link/slot_eval.hpp"
#include "obs/registry.hpp"

namespace cyclops::link {

/// Event types of the trace evaluator (payload i64 = interval index).
enum TraceEvalEventType : event::EventType {
  kEvReportInterval = 1,  ///< TP report at a trace sample; starts an interval.
};

struct EventEvalStats {
  std::uint64_t dispatched = 0;
  std::uint64_t scheduled = 0;
};

namespace detail {
/// Intervals a report gap takes through the full bound-first test before
/// the evaluator sets up that gap's screen (DESIGN.md §13).  A set-up
/// costs about what the screen saves over this many intervals, so a gap
/// that seldom repeats never pays for one.
inline constexpr int kScreenAfterIntervals = 128;
}  // namespace detail

/// Evaluates one trace on the event engine.  `stats` (optional) receives
/// the engine's event counts; `extra_hook` (optional) is attached to the
/// scheduler for custom observability (counters, JSONL trace).
///
/// `registry` (optional) receives eval-plane metrics: eval_traces_total,
/// eval_intervals_total, eval_bisect_iters_total, eval_{on,off}_runs_total,
/// eval_{slots,off_slots}_total, eval_events_dispatched_total counters and
/// the eval_link_off_run_ms histogram.  Each tallies in plain integers and
/// is recorded once when the trace finishes (the histogram once per
/// distinct off-run length).  Every recorded value derives from per-trace
/// integers, so tallies summed over traces record bit-identically at any
/// thread count (the acceptance criterion evaluate_dataset tests).
///
/// Throws std::invalid_argument when `config.slot_ms` is not finite and
/// positive, or when the trace's slots (one gap's, or its total) do not
/// fit in an int.
SlotEvalResult evaluate_trace_events(const motion::Trace& trace,
                                     const SlotEvalConfig& config,
                                     EventEvalStats* stats = nullptr,
                                     event::TraceHook* extra_hook = nullptr,
                                     obs::Registry* registry = nullptr);

}  // namespace cyclops::link
