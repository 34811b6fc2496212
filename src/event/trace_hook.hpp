// Observability for the event engine: hooks see every schedule and
// dispatch.  The interface ships no implementation; callers attach their
// own (the default methods do nothing).
#pragma once

#include "event/event.hpp"

namespace cyclops::event {

class Scheduler;

class TraceHook {
 public:
  virtual ~TraceHook() = default;
  virtual void on_schedule(const Scheduler&, const Event&) {}
  virtual void on_dispatch(const Scheduler&, const Event&) {}
};

}  // namespace cyclops::event
