// The event loop: owns the clock and the pending-event queue and
// dispatches typed events to registered processes.  One Scheduler == one
// deterministic simulation; parallel workloads run one scheduler per
// trace/session (see DESIGN.md §9).
//
// Hot-path structure (DESIGN.md §13): run() hoists the hook-presence
// check out of the loop and batches clock updates into a single store
// per event; run_single<P>() additionally devirtualizes dispatch for the
// one-process-per-engine pattern the per-trace evaluators and the stream
// pipeline use.
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
  void schedule(const Event& ev);

  /// Schedules `ev` at now() + dt (dt >= 0); ev.time is overwritten.
  void schedule_after(util::SimTimeUs dt, Event ev);

  /// Dispatches until the queue drains, advancing the clock to each
  /// event's time.  Returns the number of events dispatched.
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
  std::uint64_t dispatched() const noexcept { return dispatched_; }
  std::uint64_t scheduled() const noexcept { return scheduled_; }

 private:
  EventQueue queue_;
  util::SimClock own_clock_;   // backing storage for the self-clocked mode
  util::SimClock* clock_;      // the timeline actually advanced
  std::vector<Process*> processes_;
  std::vector<TraceHook*> hooks_;
  std::uint64_t dispatched_ = 0;
  std::uint64_t scheduled_ = 0;
};

}  // namespace cyclops::event
