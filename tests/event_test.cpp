// Tests for the discrete-event engine (src/event) and the event-driven
// §5.4 trace evaluator: queue ordering and FIFO ties, timer cancellation,
// trace hooks, bit-identity with the fixed-step oracle, determinism
// across thread counts, and the handover edge cases.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "event/event_queue.hpp"
#include "event/scheduler.hpp"
#include "event/trace_hook.hpp"
#include "fixed_step.hpp"
#include "handover_manager.hpp"
#include "link/event_eval.hpp"
#include "link/handover.hpp"
#include "link/handover.hpp"
#include "link/slot_eval.hpp"
#include "motion/trace_generator.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace cyclops {
namespace {

// ---- EventQueue ----

event::Event make_event(util::SimTimeUs time, std::int64_t payload = 0) {
  event::Event ev;
  ev.time = time;
  ev.type = 1;
  ev.target = 0;
  ev.i64 = payload;
  return ev;
}

TEST(EventQueueTest, PopsInTimeOrder) {
  event::EventQueue queue;
  queue.push(make_event(3000));
  queue.push(make_event(1000));
  queue.push(make_event(2000));
  EXPECT_EQ(queue.size(), 3u);
  EXPECT_EQ(queue.pop().time, 1000);
  EXPECT_EQ(queue.pop().time, 2000);
  EXPECT_EQ(queue.pop().time, 3000);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueTest, EqualTimesPopFifo) {
  event::EventQueue queue;
  queue.push(make_event(500, 0));
  queue.push(make_event(500, 1));
  queue.push(make_event(100, -1));
  queue.push(make_event(500, 2));
  EXPECT_EQ(queue.pop().i64, -1);
  // The three t=500 events come back in push order, not heap order.
  EXPECT_EQ(queue.pop().i64, 0);
  EXPECT_EQ(queue.pop().i64, 1);
  EXPECT_EQ(queue.pop().i64, 2);
}

TEST(EventQueueTest, CancelSkipsEntry) {
  event::EventQueue queue;
  queue.push(make_event(1000, 1));
  const event::EventQueue::Id mid = queue.push(make_event(2000, 2));
  queue.push(make_event(3000, 3));
  EXPECT_TRUE(queue.cancel(mid));
  EXPECT_FALSE(queue.cancel(mid));  // double-cancel is a no-op
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.pop().i64, 1);
  EXPECT_EQ(queue.pop().i64, 3);
  EXPECT_TRUE(queue.empty());
  EXPECT_FALSE(queue.cancel(0));  // the reserved invalid id
}

TEST(EventQueueTest, CancelHeadBeforePeek) {
  event::EventQueue queue;
  const event::EventQueue::Id head = queue.push(make_event(100));
  queue.push(make_event(200, 7));
  EXPECT_TRUE(queue.cancel(head));
  ASSERT_NE(queue.peek(), nullptr);
  EXPECT_EQ(queue.peek()->i64, 7);
}

// ---- Scheduler ----

/// Records every event it handles (time + payload).
class RecorderProcess final : public event::Process {
 public:
  void handle(event::Scheduler& sched, const event::Event& ev) override {
    times.push_back(sched.now());
    payloads.push_back(ev.i64);
  }

  std::vector<util::SimTimeUs> times;
  std::vector<std::int64_t> payloads;
};

TEST(SchedulerTest, DispatchesInOrderAndAdvancesClock) {
  event::Scheduler sched;
  RecorderProcess recorder;
  const event::ProcessId id = sched.add_process(&recorder);

  event::Event ev = make_event(2000, 2);
  ev.target = id;
  sched.schedule(ev);
  ev.time = 1000;
  ev.i64 = 1;
  sched.schedule(ev);

  EXPECT_EQ(sched.run(), 2u);
  EXPECT_EQ(recorder.payloads, (std::vector<std::int64_t>{1, 2}));
  EXPECT_EQ(recorder.times, (std::vector<util::SimTimeUs>{1000, 2000}));
  EXPECT_EQ(sched.now(), 2000);
  EXPECT_EQ(sched.dispatched(), 2u);
  EXPECT_EQ(sched.scheduled(), 2u);
}

TEST(SchedulerTest, CancelledTimerNeverFires) {
  event::Scheduler sched;
  RecorderProcess recorder;
  const event::ProcessId id = sched.add_process(&recorder);

  event::Event ev = make_event(0, 1);
  ev.target = id;
  const event::Timer timer = sched.schedule_after(5000, ev);
  EXPECT_TRUE(timer.valid());
  ev.i64 = 2;
  sched.schedule_after(7000, ev);

  EXPECT_TRUE(sched.cancel(timer));
  EXPECT_FALSE(sched.cancel(timer));  // already cancelled
  EXPECT_EQ(sched.run(), 1u);
  EXPECT_EQ(recorder.payloads, (std::vector<std::int64_t>{2}));
  EXPECT_FALSE(sched.cancel(timer));  // already popped: harmless
  EXPECT_FALSE(sched.cancel(event::Timer{}));  // never scheduled
}

TEST(SchedulerTest, RunUntilStopsAtBoundary) {
  event::Scheduler sched;
  RecorderProcess recorder;
  const event::ProcessId id = sched.add_process(&recorder);
  for (int i = 1; i <= 4; ++i) {
    event::Event ev = make_event(i * 1000, i);
    ev.target = id;
    sched.schedule(ev);
  }
  EXPECT_EQ(sched.run_until(2500), 2u);
  EXPECT_EQ(sched.now(), 2500);  // clock lands on the boundary, not 2000
  EXPECT_EQ(recorder.payloads, (std::vector<std::int64_t>{1, 2}));
  // An event exactly at the boundary is included by the next call.
  EXPECT_EQ(sched.run_until(3000), 1u);
  EXPECT_EQ(sched.now(), 3000);
  EXPECT_EQ(sched.run(), 1u);
}

TEST(SchedulerTest, ChainedEventsKeepFifoWithinTime) {
  // A process that, when handling payload 0 at time t, schedules payloads
  // 1 and 2 at the same t: they must dispatch after any event already
  // queued for t (FIFO by schedule order).
  class Chainer final : public event::Process {
   public:
    void handle(event::Scheduler& sched, const event::Event& ev) override {
      order.push_back(ev.i64);
      if (ev.i64 == 0) {
        event::Event next = ev;
        next.i64 = 10;
        sched.schedule(next);
        next.i64 = 11;
        sched.schedule(next);
      }
    }
    std::vector<std::int64_t> order;
  };

  event::Scheduler sched;
  Chainer chainer;
  const event::ProcessId id = sched.add_process(&chainer);
  event::Event ev = make_event(1000, 0);
  ev.target = id;
  sched.schedule(ev);
  ev.i64 = 5;  // queued before the chained ones exist
  sched.schedule(ev);
  sched.run();
  EXPECT_EQ(chainer.order, (std::vector<std::int64_t>{0, 5, 10, 11}));
}

/// Test-local hook: totals plus per-type dispatch counts.
class CountingHook final : public event::TraceHook {
 public:
  void on_schedule(const event::Scheduler&, const event::Event&) override {
    ++scheduled;
  }
  void on_cancel(const event::Scheduler&, const event::Event&) override {
    ++cancelled;
  }
  void on_dispatch(const event::Scheduler&, const event::Event& ev) override {
    ++by_type[ev.type];
  }
  std::uint64_t dispatched() const {
    std::uint64_t n = 0;
    for (const auto& [type, count] : by_type) n += count;
    return n;
  }

  std::uint64_t scheduled = 0;
  std::uint64_t cancelled = 0;
  std::map<event::EventType, std::uint64_t> by_type;
};

TEST(TraceHookTest, CounterSeesAllTraffic) {
  event::Scheduler sched;
  CountingHook counter;
  sched.add_hook(&counter);
  RecorderProcess recorder;
  const event::ProcessId id = sched.add_process(&recorder);

  event::Event a = make_event(1000);
  a.type = 7;
  a.target = id;
  sched.schedule(a);
  event::Event b = make_event(2000);
  b.type = 9;
  b.target = id;
  sched.schedule(b);
  b.time = 3000;
  const event::Timer timer = sched.schedule(b);
  sched.cancel(timer);
  sched.run();

  EXPECT_EQ(counter.scheduled, 3u);
  EXPECT_EQ(counter.cancelled, 1u);
  EXPECT_EQ(counter.dispatched(), 2u);
  EXPECT_EQ(counter.by_type[7], 1u);
  EXPECT_EQ(counter.by_type[9], 1u);
  ASSERT_EQ(counter.by_type.size(), 2u);
}

// ---- Event-driven §5.4 evaluator ----

std::vector<motion::Trace> small_fig16_dataset(int count) {
  util::Rng rng(2022);
  const geom::Pose base{geom::Mat3::identity(), {0.0, 0.8, 1.2}};
  motion::TraceGeneratorConfig gen_config;  // fig16 population
  gen_config.max_linear_mps = 0.19;
  gen_config.shift_peak_mps = 0.17;
  gen_config.shift_rate_hz = 0.22;
  return motion::generate_dataset(base, count, gen_config, rng,
                                  util::ThreadPool::serial());
}

TEST(EventEvalTest, MatchesFixedStepExactlyPerTrace) {
  const auto traces = small_fig16_dataset(25);
  const link::SlotEvalConfig config;  // §5.4 constants

  std::uint64_t total_dispatched = 0;
  int total_slots = 0;
  for (const auto& trace : traces) {
    link::EventEvalStats stats;
    const link::SlotEvalResult ev =
        link::evaluate_trace_events(trace, config, &stats);
    const link::SlotEvalResult fs =
        oracle::evaluate_trace_fixed_step(trace, config);
    // Bit-identical: same slot counts AND the same §5.4 frame clustering.
    ASSERT_EQ(ev.total_slots, fs.total_slots);
    ASSERT_EQ(ev.off_slots, fs.off_slots);
    ASSERT_EQ(ev.off_per_dirty_frame, fs.off_per_dirty_frame);
    EXPECT_EQ(stats.dispatched, stats.scheduled);
    total_dispatched += stats.dispatched;
    total_slots += fs.total_slots;
  }
  // The point of the engine: fewer events than slots.  Each 10 ms report
  // interval (~10 slots) costs one report event plus at most a few run
  // events, so the ratio sits near 0.3 — assert it stays well below 1.
  EXPECT_GT(total_dispatched, 0u);
  EXPECT_LT(total_dispatched, static_cast<std::uint64_t>(total_slots) / 2);
}

TEST(EventEvalTest, DispatchThroughEvaluateTraceMatches) {
  const auto traces = small_fig16_dataset(3);
  const link::SlotEvalConfig config;
  const link::SlotEvalResult ev =
      link::evaluate_trace_events(traces[0], config);
  const link::SlotEvalResult fs =
      oracle::evaluate_trace_fixed_step(traces[0], config);
  EXPECT_EQ(ev.off_slots, fs.off_slots);
  EXPECT_EQ(ev.total_slots, fs.total_slots);
  EXPECT_EQ(ev.off_per_dirty_frame, fs.off_per_dirty_frame);
}

TEST(EventEvalTest, DatasetPooledResultsMatchAcrossEngines) {
  const auto traces = small_fig16_dataset(25);
  const link::SlotEvalConfig config;

  const link::DatasetEvalResult ev =
      link::evaluate_dataset(traces, config, util::ThreadPool::serial());
  const link::DatasetEvalResult fs =
      oracle::evaluate_dataset_fixed_step(traces, config);
  EXPECT_EQ(ev.per_trace_off_fraction, fs.per_trace_off_fraction);
  EXPECT_EQ(ev.pooled.total_slots, fs.pooled.total_slots);
  EXPECT_EQ(ev.pooled.off_slots, fs.pooled.off_slots);
  EXPECT_EQ(ev.pooled.off_per_dirty_frame, fs.pooled.off_per_dirty_frame);
  EXPECT_GT(ev.events, 0u);
  EXPECT_EQ(fs.events, 0u);
}

TEST(EventEvalTest, DatasetDeterministicAcrossThreadCounts) {
  const auto traces = small_fig16_dataset(25);
  const link::SlotEvalConfig config;  // event engine

  util::ThreadPool one(1), two(2), def(0);
  const link::DatasetEvalResult r1 =
      link::evaluate_dataset(traces, config, one);
  const link::DatasetEvalResult r2 =
      link::evaluate_dataset(traces, config, two);
  const link::DatasetEvalResult rn =
      link::evaluate_dataset(traces, config, def);

  EXPECT_EQ(r1.per_trace_off_fraction, r2.per_trace_off_fraction);
  EXPECT_EQ(r1.per_trace_off_fraction, rn.per_trace_off_fraction);
  EXPECT_EQ(r1.pooled.off_per_dirty_frame, r2.pooled.off_per_dirty_frame);
  EXPECT_EQ(r1.pooled.off_per_dirty_frame, rn.pooled.off_per_dirty_frame);
  EXPECT_EQ(r1.pooled.off_slots, rn.pooled.off_slots);
  EXPECT_EQ(r1.events, r2.events);
  EXPECT_EQ(r1.events, rn.events);
}

TEST(EventEvalTest, EmptyAndTinyTracesAreSafe) {
  const link::SlotEvalConfig config;
  motion::Trace empty;
  const link::SlotEvalResult r0 = link::evaluate_trace_events(empty, config);
  EXPECT_EQ(r0.total_slots, 0);
  EXPECT_EQ(r0.off_slots, 0);

  motion::Trace one;
  one.samples.push_back({});
  const link::SlotEvalResult r1 = link::evaluate_trace_events(one, config);
  const link::SlotEvalResult r1f =
      oracle::evaluate_trace_fixed_step(one, config);
  EXPECT_EQ(r1.total_slots, r1f.total_slots);
  EXPECT_EQ(r1.off_slots, r1f.off_slots);
}

// ---- Sweeps across each tolerance (the bound-first path) ----

/// A trace of 10 ms intervals taking each of `moves` steps out and back:
/// even samples sit at `base`, sample 2k + 1 at `moved(base, k)`.
template <typename Moved>
motion::Trace there_and_back_trace(const geom::Pose& base, std::size_t moves,
                                   Moved&& moved) {
  motion::Trace trace;
  for (std::size_t k = 0; k <= 2 * moves; ++k) {
    trace.samples.push_back({static_cast<util::SimTimeUs>(k * 10000),
                             k % 2 == 0 ? base : moved(base, k / 2)});
  }
  return trace;
}

/// Rates (per ms) at which slot t_eff ms into the drift budget crosses the
/// tolerance: budget / t_eff for every slot time the §5.4 config probes
/// (t = 3..10 ms after the carry region, gap + 1 and gap + 2 ms inside
/// it), each swept over ±`span` in relative steps of `step`.
std::vector<double> critical_rate_sweep(double budget, double span,
                                        double step) {
  std::vector<double> rates;
  for (int t_eff = 3; t_eff <= 12; ++t_eff) {
    for (double rel = -span; rel <= span; rel += step) {
      rates.push_back(budget / t_eff * (1.0 + rel));
    }
  }
  return rates;
}

void expect_matches_fixed_step(const motion::Trace& trace,
                               const link::SlotEvalConfig& config) {
  const link::SlotEvalResult ev = link::evaluate_trace_events(trace, config);
  const link::SlotEvalResult fs =
      oracle::evaluate_trace_fixed_step(trace, config);
  EXPECT_EQ(ev.total_slots, fs.total_slots);
  EXPECT_EQ(ev.off_slots, fs.off_slots);
  EXPECT_EQ(ev.off_per_dirty_frame, fs.off_per_dirty_frame);
  // The sweep straddles the tolerance: some slots off, some on.
  EXPECT_GT(fs.off_slots, 0);
  EXPECT_LT(fs.off_slots, fs.total_slots);
}

TEST(EventEvalTest, RotatingSweepAcrossAngularToleranceMatchesFixedStep) {
  util::Rng rng(31);
  const geom::Pose base{geom::Mat3::rotation({0.3, -0.5, 0.8}, 0.9),
                        {0.0, 0.8, 1.2}};
  // §5.4's 8.73 mrad tolerance (≈ 5 mrad per interval at the crossing),
  // and a wide one where the crossing sits near 0.4 rad per interval.
  link::SlotEvalConfig wide;
  wide.residual_angular_rad = 0.1;
  wide.angular_tolerance_rad = 0.6;
  for (const link::SlotEvalConfig& config : {link::SlotEvalConfig{}, wide}) {
    const double budget =
        config.angular_tolerance_rad - config.residual_angular_rad;
    const std::vector<double> rates = critical_rate_sweep(budget, 1e-5, 1e-7);
    const motion::Trace trace = there_and_back_trace(
        base, rates.size(), [&](const geom::Pose& b, std::size_t k) {
          const geom::Vec3 axis{rng.normal(), rng.normal(), rng.normal()};
          return geom::Pose{
              b.rotation() * geom::Mat3::rotation(axis, rates[k] * 10.0),
              b.translation()};
        });
    expect_matches_fixed_step(trace, config);
  }
}

TEST(EventEvalTest, DriftingSweepAcrossLateralToleranceMatchesFixedStep) {
  util::Rng rng(32);
  const geom::Pose base{geom::Mat3::rotation({0.3, -0.5, 0.8}, 0.9),
                        {0.0, 0.8, 1.2}};
  const link::SlotEvalConfig config;
  const std::vector<double> rates = critical_rate_sweep(
      config.lateral_tolerance_m - config.residual_lateral_m, 1e-5, 1e-7);
  const motion::Trace trace = there_and_back_trace(
      base, rates.size(), [&](const geom::Pose& b, std::size_t k) {
        const geom::Vec3 dir =
            geom::Vec3{rng.normal(), rng.normal(), rng.normal()}.normalized();
        return geom::Pose{b.rotation(),
                          b.translation() + dir * (rates[k] * 10.0)};
      });
  expect_matches_fixed_step(trace, config);
}

// ---- HandoverManager edge cases (slot-polled oracle, tests/oracle) ----

TEST(HandoverManagerEdgeTest, ZeroTxConfigIsSafe) {
  oracle::HandoverManager manager(0, link::HandoverConfig{});
  const std::vector<double> none;
  EXPECT_EQ(manager.step(0, none), -1);
  EXPECT_EQ(manager.step(1000, none), -1);
  EXPECT_EQ(manager.switches(), 0);
}

TEST(HandoverManagerEdgeTest, BackToBackHandoversInsideOneSlot) {
  // With zero switch delay the manager can hand over twice at the same
  // instant: 0 -> 2 (best), then 2 -> 1 when the powers flip within the
  // same 1 ms slot.
  link::HandoverConfig config;
  config.switch_delay_s = 0.0;
  config.hysteresis_db = 3.0;
  oracle::HandoverManager manager(3, config);
  EXPECT_EQ(manager.step(0, std::vector<double>{-10.0, -12.0, -5.0}), 2);
  EXPECT_EQ(manager.step(0, std::vector<double>{-10.0, -1.0, -25.0}), 1);
  EXPECT_EQ(manager.switches(), 2);
}

TEST(HandoverManagerEdgeTest, SwitchDelayBlocksSecondHandover) {
  link::HandoverConfig config;
  config.switch_delay_s = 0.2;
  oracle::HandoverManager manager(2, config);
  EXPECT_EQ(manager.step(0, std::vector<double>{-30.0, -10.0}), -1);
  // Mid-switch: even a huge reversal cannot trigger another handover.
  EXPECT_EQ(manager.step(1000, std::vector<double>{-1.0, -40.0}), -1);
  EXPECT_EQ(manager.switches(), 1);
  EXPECT_EQ(manager.step(200000, std::vector<double>{-40.0, -10.0}), 1);
}

// ---- HandoverProcess (event-driven, cancellable switch timer) ----

TEST(HandoverProcessTest, ZeroTxConfigIsSafe) {
  event::Scheduler sched;
  const runtime::Context ctx = runtime::Context::isolated();
  link::HandoverProcess handover(0, link::HandoverConfig{}, sched, ctx);
  const std::vector<double> none;
  EXPECT_EQ(handover.on_powers(none), -1);
  sched.run();
  EXPECT_EQ(handover.switches(), 0);
}

TEST(HandoverProcessTest, CommitsAtExactTimerTime) {
  event::Scheduler sched;
  link::HandoverConfig config;
  config.switch_delay_s = 0.05;
  link::SessionLog log;
  const runtime::Context ctx = runtime::Context::isolated();
  link::HandoverProcess handover(2, config, sched, ctx, &log);

  const std::vector<double> flipped{-30.0, -10.0};
  EXPECT_EQ(handover.on_powers(flipped), -1);  // switch started at t=0
  EXPECT_TRUE(handover.switching());
  EXPECT_EQ(handover.active(), 0);  // not committed yet

  sched.run();  // fires the switch-done timer
  EXPECT_EQ(sched.now(), util::us_from_s(0.05));
  EXPECT_EQ(handover.active(), 1);
  EXPECT_FALSE(handover.switching());
  EXPECT_EQ(handover.switches(), 1);
  ASSERT_EQ(log.count(link::SessionEventKind::kHandover), 1);
  EXPECT_EQ(log.events().front().time, util::us_from_s(0.05));
}

TEST(HandoverProcessTest, BackToBackHandoversInsideOneSlot) {
  event::Scheduler sched;
  link::HandoverConfig config;
  config.switch_delay_s = 0.0;  // instant, as in the legacy manager
  link::SessionLog log;
  const runtime::Context ctx = runtime::Context::isolated();
  link::HandoverProcess handover(3, config, sched, ctx, &log);

  EXPECT_EQ(handover.on_powers(std::vector<double>{-10.0, -12.0, -5.0}), 2);
  EXPECT_EQ(handover.on_powers(std::vector<double>{-10.0, -1.0, -25.0}), 1);
  EXPECT_EQ(handover.switches(), 2);
  EXPECT_EQ(log.count(link::SessionEventKind::kHandover), 2);
  EXPECT_EQ(log.events()[0].time, log.events()[1].time);  // same slot
}

TEST(HandoverProcessTest, ReacquisitionCancelsPendingSwitch) {
  event::Scheduler sched;
  link::HandoverConfig config;
  config.switch_delay_s = 0.2;
  config.cancel_on_reacquire = true;
  link::SessionLog log;
  const runtime::Context ctx = runtime::Context::isolated();
  link::HandoverProcess handover(2, config, sched, ctx, &log);

  // TX0 drops below the threshold: a drop-triggered switch starts.
  EXPECT_EQ(handover.on_powers(std::vector<double>{-40.0, -20.0}), -1);
  EXPECT_TRUE(handover.switching());
  EXPECT_EQ(handover.started(), 1);

  // 50 ms later (before the 200 ms timer) TX0 recovers: switch abandoned.
  sched.run_until(util::us_from_ms(50.0));
  EXPECT_EQ(handover.on_powers(std::vector<double>{-12.0, -20.0}), 0);
  EXPECT_FALSE(handover.switching());
  EXPECT_EQ(handover.cancelled_switches(), 1);
  EXPECT_EQ(handover.switches(), 0);
  EXPECT_EQ(handover.active(), 0);  // still serving from the old TX

  sched.run();  // the cancelled timer must never fire
  EXPECT_EQ(handover.active(), 0);
  EXPECT_EQ(log.count(link::SessionEventKind::kHandover), 0);
  ASSERT_EQ(log.count(link::SessionEventKind::kReacquisition), 1);
  EXPECT_EQ(log.events().front().time, util::us_from_ms(50.0));
}

TEST(HandoverProcessTest, NoCancelWithoutOptIn) {
  event::Scheduler sched;
  link::HandoverConfig config;
  config.switch_delay_s = 0.2;
  config.cancel_on_reacquire = false;  // legacy-equivalent mode
  const runtime::Context ctx = runtime::Context::isolated();
  link::HandoverProcess handover(2, config, sched, ctx);

  EXPECT_EQ(handover.on_powers(std::vector<double>{-40.0, -20.0}), -1);
  sched.run_until(util::us_from_ms(50.0));
  // Old TX recovered, but without the opt-in the switch completes anyway.
  EXPECT_EQ(handover.on_powers(std::vector<double>{-12.0, -20.0}), -1);
  sched.run();
  EXPECT_EQ(handover.active(), 1);
  EXPECT_EQ(handover.switches(), 1);
}

TEST(HandoverProcessTest, MatchesLegacyManagerOnSlotSequence) {
  // Drive the legacy manager and the event process with the identical
  // 1 ms-slot power sequence (cancel_on_reacquire off): every serving
  // decision and the final switch count must agree.
  link::HandoverConfig config;
  config.switch_delay_s = 0.021;  // lands mid-slot and on boundaries
  oracle::HandoverManager manager(2, config);
  event::Scheduler sched;
  const runtime::Context ctx = runtime::Context::isolated();
  link::HandoverProcess process(2, config, sched, ctx);

  util::Rng rng(7);
  std::vector<double> powers(2);
  for (int slot = 0; slot < 400; ++slot) {
    const util::SimTimeUs now = slot * 1000;
    // Piecewise scene: TX0 strong, then occluded, then back; TX1 noisy.
    powers[0] = (slot >= 120 && slot < 200) ? -60.0 : -10.0 + rng.uniform();
    powers[1] = -16.0 + 3.0 * rng.uniform();
    const int legacy = manager.step(now, powers);
    sched.run_until(now);
    const int event_serving = process.on_powers(powers);
    ASSERT_EQ(event_serving, legacy) << "slot " << slot;
  }
  EXPECT_EQ(process.switches(), manager.switches());
  EXPECT_GE(process.switches(), 2);  // the scenario actually hands over
}

}  // namespace
}  // namespace cyclops
