// Discrete-event core: the event record shared by the queue, scheduler,
// processes, and trace hooks.
//
// The engine dispatches each occurrence at its exact microsecond time:
// the Fig-16 evaluator's report intervals, the stream pipeline's frames
// and vsyncs, online recalibration's slots and refits.
// Determinism rules (see DESIGN.md §9):
//   * events are ordered by (time, schedule sequence) — ties dispatch in
//     FIFO schedule order, never by pointer value or hash order;
//   * a Scheduler is a single-threaded object; fan-out parallelism runs
//     one engine per trace/session via util::parallel_for.
#pragma once

#include <cstdint>

#include "util/sim_clock.hpp"

namespace cyclops::event {

/// Index of a registered Process within its Scheduler.
using ProcessId = std::uint32_t;

/// Domain-defined discriminator; each subsystem declares its own enum
/// (e.g. link::TraceEvalEventType) and interprets the payload accordingly.
using EventType = std::uint32_t;

inline constexpr ProcessId kNoProcess = 0xffffffffu;

/// One scheduled occurrence.  The POD payload (i64/f64) covers slot
/// counts, TX indices, and powers without a heap allocation per event.
struct Event {
  util::SimTimeUs time = 0;
  EventType type = 0;
  ProcessId target = kNoProcess;
  std::int64_t i64 = 0;
  double f64 = 0.0;
};

}  // namespace cyclops::event
