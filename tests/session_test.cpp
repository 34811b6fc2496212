// The generic session layer (src/session): binding a session's
// scheduler to its context clock, and run_session's uniform accounting.
// The fleet-scale determinism contract (fleet == alone, byte for byte, at
// any driver width) lives in tests/fleet_test.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "event/scheduler.hpp"
#include "obs/export.hpp"
#include "obs/registry.hpp"
#include "runtime/context.hpp"
#include "session/catalog.hpp"
#include "session/fleet.hpp"
#include "session/lifecycle.hpp"

namespace cyclops {
namespace {

/// Schedules a follow-up event `count` times, recording dispatch times.
class ChainProcess final : public event::Process {
 public:
  explicit ChainProcess(int count) : remaining_(count) {}

  void handle(event::Scheduler& sched, const event::Event& ev) override {
    times.push_back(ev.time);
    if (--remaining_ > 0) {
      event::Event next = ev;
      next.time = ev.time + 7;
      sched.schedule(next);
    }
  }

  std::vector<util::SimTimeUs> times;

 private:
  int remaining_;
};

void drive_chain(event::Scheduler& sched, int count,
                 std::vector<util::SimTimeUs>* out) {
  ChainProcess chain(count);
  const event::ProcessId pid = sched.add_process(&chain);
  event::Event first;
  first.time = 3;
  first.type = 1;
  first.target = pid;
  sched.schedule(first);
  sched.run();
  if (out != nullptr) *out = chain.times;
}

TEST(SessionClockTest, SchedulerRidesBoundClockOrItsOwn) {
  // A context clock that already moved: binding resets it to 0, and the
  // scheduler built on it advances that clock in place.
  runtime::Context ctx = runtime::Context::isolated({.seed = 3});
  ctx.clock().advance_to(5000);
  util::SimClock* clock = session::bind_session_clock(ctx);
  ASSERT_EQ(clock, &ctx.clock());
  EXPECT_EQ(clock->now(), 0);
  std::vector<util::SimTimeUs> bound_run;
  {
    event::Scheduler sched(clock);
    drive_chain(sched, 4, &bound_run);
  }
  EXPECT_EQ(ctx.clock().now(), 3 + 3 * 7)
      << "runs must drive the bound clock";

  // No clock: the scheduler keeps a private clock starting at 0 and
  // dispatches the same timeline.
  event::Scheduler own(nullptr);
  EXPECT_EQ(own.now(), 0);
  std::vector<util::SimTimeUs> own_run;
  drive_chain(own, 4, &own_run);
  EXPECT_EQ(own_run, bound_run);
  EXPECT_EQ(own.now(), 3 + 3 * 7);
}

TEST(RunSessionTest, StampsSpecAndAccountingCounters) {
  session::SessionSpec spec;
  spec.variant = session::Variant::kChannel;
  spec.seed = 17;
  spec.duration_s = 0.5;

  obs::Registry rollup;
  session::SessionExecution exec;
  exec.capture_metrics = true;
  exec.rollup = &rollup;
  const session::Report report =
      session::run_session(spec, session::catalog_factory(), exec);

  EXPECT_EQ(report.variant, session::Variant::kChannel);
  EXPECT_EQ(report.seed, 17u);
  EXPECT_GT(report.events, 0u);
  EXPECT_GT(report.slots, 0u);
  EXPECT_EQ(rollup.counter("fleet_sessions_total").value(), 1u);
  EXPECT_EQ(rollup.counter("fleet_events_total").value(), report.events);
  EXPECT_EQ(rollup.counter("fleet_slots_total").value(), report.slots);
  EXPECT_NE(report.metrics_jsonl.find("fleet_events_total"),
            std::string::npos);
}

TEST(RunSessionTest, EveryCatalogVariantRuns) {
  for (std::size_t v = 0; v < session::kVariantCount; ++v) {
    session::SessionSpec spec;
    spec.variant = static_cast<session::Variant>(v);
    spec.seed = 23 + v;
    spec.duration_s = 0.1;
    const session::Report report =
        session::run_session(spec, session::catalog_factory());
    EXPECT_GT(report.events, 0u)
        << session::variant_name(spec.variant) << " dispatched no events";
    EXPECT_GT(report.slots, 0u)
        << session::variant_name(spec.variant) << " reported no slots";
    EXPECT_EQ(report.variant, spec.variant);
  }
}

// A non-positive slot step is rejected, not run: every variant that reads
// step_us throws, since a step that does not move time forward would
// loop forever.
TEST(RunSessionTest, NonPositiveStepThrows) {
  const session::Variant variants[] = {
      session::Variant::kLink,   session::Variant::kChannel,
      session::Variant::kHetero, session::Variant::kMultiTx,
      session::Variant::kStream, session::Variant::kOnlineRecal};
  const util::SimTimeUs bad_steps[] = {0, -1000};
  for (const session::Variant variant : variants) {
    for (const util::SimTimeUs step : bad_steps) {
      SCOPED_TRACE(session::variant_name(variant));
      session::SessionSpec spec;
      spec.variant = variant;
      spec.duration_s = 0.1;
      spec.step_us = step;
      EXPECT_THROW(session::run_session(spec, session::catalog_factory()),
                   std::invalid_argument)
          << step;
    }
  }
}

// Each slot plane's own counters, folded into the rollup, equal the Report
// its runner returns — per plane, what fleet_{events,slots}_total give the
// whole fleet.
TEST(RunSessionTest, PlaneCountersReconcileWithReport) {
  struct PlaneCounters {
    session::Variant variant;
    const char* slots;
    const char* events;  ///< nullptr: the plane counts no events.
    obs::Labels labels;
  };
  const PlaneCounters planes[] = {
      {session::Variant::kLink, "session_slots_total",
       "session_events_dispatched_total", {}},
      {session::Variant::kChannel, "channel_session_slots_total",
       "channel_session_events_dispatched_total",
       {{"channel", "mmwave-60ghz"}}},
      {session::Variant::kHetero, "hetero_slots_total",
       "hetero_events_dispatched_total", {}},
      {session::Variant::kMultiTx, "multi_tx_slots_total",
       "multi_tx_events_dispatched_total", {}},
      {session::Variant::kOnlineRecal, "cal_slots_total", nullptr, {}},
  };
  for (const PlaneCounters& plane : planes) {
    SCOPED_TRACE(session::variant_name(plane.variant));
    session::SessionSpec spec;
    spec.variant = plane.variant;
    spec.seed = 31;
    spec.duration_s = 0.2;
    obs::Registry rollup;
    session::SessionExecution exec;
    exec.rollup = &rollup;
    const session::Report report =
        session::run_session(spec, session::catalog_factory(), exec);
    ASSERT_GT(report.slots, 0u);
    EXPECT_EQ(rollup.counter(plane.slots, plane.labels).value(),
              report.slots);
    if (plane.events != nullptr) {
      EXPECT_EQ(rollup.counter(plane.events, plane.labels).value(),
                report.events);
    }
  }
}

}  // namespace
}  // namespace cyclops
