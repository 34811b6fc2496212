// The event loop: owns the clock and the pending-event queue, dispatches
// typed events to registered processes, and hands out cancellable Timer
// handles.  One Scheduler == one deterministic simulation; parallel
// workloads run one scheduler per trace/session (see DESIGN.md §9).
//
// Hot-path structure (DESIGN.md §13): run()/run_until() hoist the
// hook-presence check out of the loop and batch clock updates into a
// single store per event; run_single<P>() additionally devirtualizes
// dispatch for the one-process-per-engine pattern the per-trace
// evaluators use.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "event/event.hpp"
#include "event/event_queue.hpp"
#include "event/process.hpp"
#include "event/trace_hook.hpp"
#include "util/sim_clock.hpp"

namespace cyclops::event {

/// Cancellable handle for a scheduled event.  Value type: copying it does
/// not duplicate the event; cancelling any copy cancels the one event.
class Timer {
 public:
  Timer() = default;
  /// False for default-constructed handles (never scheduled).
  bool valid() const noexcept { return id_ != 0; }

 private:
  friend class Scheduler;
  explicit Timer(EventQueue::Id id) : id_(id) {}
  EventQueue::Id id_ = 0;
};

class Scheduler {
 public:
  /// With a clock (typically what session::bind_session_clock returns
  /// for a runtime::Context) the scheduler rides it, so the session
  /// timeline outlives this scheduler and other components can read the
  /// same `now`; the clock must outlive the scheduler, and events must
  /// respect whatever time it already shows.  nullptr (the per-trace
  /// case: every parallel eval engine owns an independent timeline)
  /// means a private clock starting at 0.
  explicit Scheduler(util::SimClock* clock = nullptr) noexcept
      : clock_(clock != nullptr ? clock : &own_clock_) {}
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Registers a handler (non-owning; the process must outlive the
  /// scheduler).  Returns the id events use as their `target`.
  ProcessId add_process(Process* process);

  /// Observability hook (non-owning).  Hooks fire in registration order.
  void add_hook(TraceHook* hook);

  /// Schedules `ev` at ev.time (must be >= now()).
  Timer schedule(const Event& ev);

  /// Schedules `ev` at now() + dt (dt >= 0); ev.time is overwritten.
  Timer schedule_after(util::SimTimeUs dt, Event ev);

  /// Cancels a pending event.  Returns false when the event already
  /// dispatched or was already cancelled — safe to call either way.
  bool cancel(const Timer& timer);

  /// Replaces `timer`'s pending event with `ev`: cancel(timer) followed
  /// by timer = schedule(ev), hooks and counters included.  When `timer`
  /// was invalid or already fired, plain schedule semantics apply.
  /// Returns true when a pending event was superseded.
  bool reschedule(Timer& timer, const Event& ev);

  /// Dispatches the next event, advancing the clock to its time.
  /// Returns false when no live events remain.
  bool step();

  /// Dispatches every event with time <= t_end, then advances the clock
  /// to t_end.  Returns the number of events dispatched.
  std::uint64_t run_until(util::SimTimeUs t_end);

  /// Dispatches until the queue drains.
  std::uint64_t run();

  /// Devirtualized drain for single-process engines: `proc` must be this
  /// scheduler's only registered process (and `P` its final type), and no
  /// hooks may be registered.  The qualified call lets the compiler
  /// statically dispatch — and inline — the handler.
  template <typename P>
  std::uint64_t run_single(P& proc) {
    assert(processes_.size() == 1 && processes_[0] == &proc &&
           "run_single requires exactly the one registered process");
    assert(hooks_.empty() && "run_single skips hooks; use run()");
    std::uint64_t n = 0;
    Event ev;
    while (queue_.pop_next(ev)) {
      clock_->advance_to(ev.time);
      ++dispatched_;
      proc.P::handle(*this, ev);
      ++n;
    }
    return n;
  }

  util::SimTimeUs now() const noexcept { return clock_->now(); }
  bool empty() const noexcept { return queue_.empty(); }
  std::uint64_t dispatched() const noexcept { return dispatched_; }
  std::uint64_t scheduled() const noexcept { return scheduled_; }

  /// Label of a registered process (for trace hooks).
  const char* process_name(ProcessId id) const noexcept;

 private:
  void dispatch(const Event& ev);

  EventQueue queue_;
  util::SimClock own_clock_;   // backing storage for the self-clocked mode
  util::SimClock* clock_;      // the timeline actually advanced
  std::vector<Process*> processes_;
  std::vector<TraceHook*> hooks_;
  std::uint64_t dispatched_ = 0;
  std::uint64_t scheduled_ = 0;
};

}  // namespace cyclops::event
