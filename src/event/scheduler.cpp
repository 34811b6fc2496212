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

Timer Scheduler::schedule(const Event& ev) {
  assert(ev.time >= clock_->now() && "cannot schedule into the past");
  assert(ev.target < processes_.size() && "event targets no process");
  ++scheduled_;
  for (TraceHook* hook : hooks_) hook->on_schedule(*this, ev);
  return Timer(queue_.push(ev));
}

Timer Scheduler::schedule_after(util::SimTimeUs dt, Event ev) {
  assert(dt >= 0);
  ev.time = clock_->now() + dt;
  return schedule(ev);
}

bool Scheduler::cancel(const Timer& timer) {
  if (!timer.valid() || !queue_.cancel(timer.id_)) return false;
  for (TraceHook* hook : hooks_) hook->on_cancel(*this, Event{});
  return true;
}

void Scheduler::dispatch(const Event& ev) {
  clock_->advance_to(ev.time);
  ++dispatched_;
  for (TraceHook* hook : hooks_) hook->on_dispatch(*this, ev);
  assert(ev.target < processes_.size());
  processes_[ev.target]->handle(*this, ev);
}

bool Scheduler::step() {
  Event ev;
  if (!queue_.pop_next(ev)) return false;
  dispatch(ev);
  return true;
}

std::uint64_t Scheduler::run_until(util::SimTimeUs t_end) {
  std::uint64_t n = 0;
  const Event* next;
  if (hooks_.empty()) {
    // Hook check hoisted; one clock store per event.
    while ((next = queue_.peek()) != nullptr && next->time <= t_end) {
      const Event ev = queue_.pop();
      clock_->advance_to(ev.time);
      ++dispatched_;
      processes_[ev.target]->handle(*this, ev);
      ++n;
    }
  } else {
    while ((next = queue_.peek()) != nullptr && next->time <= t_end) {
      dispatch(queue_.pop());
      ++n;
    }
  }
  if (t_end > clock_->now()) clock_->advance_to(t_end);
  return n;
}

std::uint64_t Scheduler::run() {
  std::uint64_t n = 0;
  if (hooks_.empty()) {
    Event ev;
    while (queue_.pop_next(ev)) {
      clock_->advance_to(ev.time);
      ++dispatched_;
      processes_[ev.target]->handle(*this, ev);
      ++n;
    }
    return n;
  }
  while (step()) ++n;
  return n;
}

}  // namespace cyclops::event
