// The generic session layer (src/session): binding a session's
// scheduler to its context clock, and run_session's uniform accounting.
// The fleet-scale determinism contract (fleet == alone, byte for byte, at
// any driver width) lives in tests/fleet_test.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "event/scheduler.hpp"
#include "obs/config.hpp"
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
  if constexpr (obs::kEnabled) {
    EXPECT_GT(report.slots, 0u);
    EXPECT_EQ(rollup.counter("fleet_sessions_total").value(), 1u);
    EXPECT_EQ(rollup.counter("fleet_events_total").value(), report.events);
    EXPECT_EQ(rollup.counter("fleet_slots_total").value(), report.slots);
    EXPECT_NE(report.metrics_jsonl.find("fleet_events_total"),
              std::string::npos);
  }
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
    // The runner's own count, so it holds in CYCLOPS_OBS=OFF builds too.
    EXPECT_GT(report.slots, 0u)
        << session::variant_name(spec.variant) << " reported no slots";
    EXPECT_EQ(report.variant, spec.variant);
  }
}

}  // namespace
}  // namespace cyclops
