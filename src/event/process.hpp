// The process model: a Process is a stateful handler registered with one
// Scheduler; the scheduler dispatches each event to its target process
// with the simulation clock already advanced to the event's time.
//
// Writing a Process (DESIGN.md §9 has the full rules):
//   * keep all mutable state inside the process (or a shared per-engine
//     state struct) — never in globals, so engines can fan out in parallel;
//   * schedule follow-up events only at times >= scheduler.now();
//   * rely on FIFO tie-breaking for same-time ordering: whatever is
//     scheduled first, dispatches first.
#pragma once

namespace cyclops::event {

class Scheduler;
struct Event;

class Process {
 public:
  virtual ~Process() = default;

  /// Called with the clock at ev.time.  May schedule further events.
  virtual void handle(Scheduler& sched, const Event& ev) = 0;
};

}  // namespace cyclops::event
