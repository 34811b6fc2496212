// The context-to-timeline step every session runner shares: a session
// rides its runtime::Context's clock, reset to 0, so other components
// reading ctx.clock() see the session's `now`.
//
//   util::SimClock& clock = *session::bind_session_clock(ctx);  // slot grid
//   event::Scheduler sched(session::bind_session_clock(ctx));   // events
//
// Each session builds its own timeline; a scheduled session holds at most
// a handful of pending events, so there is no queue worth reusing across
// sessions (DESIGN.md §13, §16).
#pragma once

#include "runtime/context.hpp"
#include "util/sim_clock.hpp"

namespace cyclops::session {

/// Resets the session clock (a context represents one session timeline;
/// the session starts at t=0) and returns it for link::detail::
/// run_slot_grid or event::Scheduler's constructor.
inline util::SimClock* bind_session_clock(const runtime::Context& ctx) {
  ctx.clock().reset();
  return &ctx.clock();
}

}  // namespace cyclops::session
