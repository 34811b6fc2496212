#include "event/scheduler.hpp"

#include <cassert>

namespace cyclops::event {

ProcessId Scheduler::add_process(Process* process) {
  assert(process != nullptr);
  processes_.push_back(process);
  return static_cast<ProcessId>(processes_.size() - 1);
}

void Scheduler::add_hook(TraceHook* hook) {
  assert(hook != nullptr);
  hooks_.push_back(hook);
}

void Scheduler::schedule(const Event& ev) {
  assert(ev.time >= clock_->now() && "cannot schedule into the past");
  assert(ev.target < processes_.size() && "event targets no process");
  ++scheduled_;
  for (TraceHook* hook : hooks_) hook->on_schedule(*this, ev);
  queue_.push(ev);
}

void Scheduler::schedule_after(util::SimTimeUs dt, Event ev) {
  assert(dt >= 0);
  ev.time = clock_->now() + dt;
  schedule(ev);
}

std::uint64_t Scheduler::run() {
  std::uint64_t n = 0;
  Event ev;
  if (hooks_.empty()) {
    // Hook check hoisted; one clock store per event.
    while (queue_.pop_next(ev)) {
      clock_->advance_to(ev.time);
      ++dispatched_;
      processes_[ev.target]->handle(*this, ev);
      ++n;
    }
    return n;
  }
  while (queue_.pop_next(ev)) {
    clock_->advance_to(ev.time);
    ++dispatched_;
    for (TraceHook* hook : hooks_) hook->on_dispatch(*this, ev);
    assert(ev.target < processes_.size());
    processes_[ev.target]->handle(*this, ev);
    ++n;
  }
  return n;
}

}  // namespace cyclops::event
