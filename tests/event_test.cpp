// Tests for the discrete-event engine (src/event) and the event-driven
// §5.4 trace evaluator: queue ordering and FIFO ties, timer cancellation,
// trace hooks, bit-identity with the fixed-step oracle, determinism
// across thread counts, and the handover edge cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <numbers>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "event/event_queue.hpp"
#include "event/scheduler.hpp"
#include "event/trace_hook.hpp"
#include "fixed_step.hpp"
#include "handover_manager.hpp"
#include "link/event_eval.hpp"
#include "link/handover.hpp"
#include "link/slot_eval.hpp"
#include "motion/trace_generator.hpp"
#include "obs/export.hpp"
#include "obs/registry.hpp"
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

/// Checks the evaluator against the fixed-step oracle; returns the oracle's
/// result.
link::SlotEvalResult expect_equals_fixed_step(
    const motion::Trace& trace, const link::SlotEvalConfig& config) {
  const link::SlotEvalResult ev = link::evaluate_trace_events(trace, config);
  const link::SlotEvalResult fs =
      oracle::evaluate_trace_fixed_step(trace, config);
  EXPECT_EQ(ev.total_slots, fs.total_slots);
  EXPECT_EQ(ev.off_slots, fs.off_slots);
  EXPECT_EQ(ev.off_per_dirty_frame, fs.off_per_dirty_frame);
  return fs;
}

void expect_matches_fixed_step(const motion::Trace& trace,
                               const link::SlotEvalConfig& config) {
  const link::SlotEvalResult fs = expect_equals_fixed_step(trace, config);
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

// ---- The per-gap screen at its edges ----

/// A random walk with one sample per gap of `gaps_ms`, taking lateral and
/// angular steps of up to twice §5.4's tolerance budgets (so about half
/// the intervals cross the lateral tolerance and half the angular one).
motion::Trace random_walk(const std::vector<double>& gaps_ms,
                          util::Rng& rng) {
  const link::SlotEvalConfig c;
  const double lat_budget = c.lateral_tolerance_m - c.residual_lateral_m;
  const double ang_budget = c.angular_tolerance_rad - c.residual_angular_rad;
  geom::Pose pose{geom::Mat3::rotation({0.3, -0.5, 0.8}, 0.9),
                  {0.0, 0.8, 1.2}};
  util::SimTimeUs t = 0;
  motion::Trace trace;
  trace.samples.push_back({t, pose});
  for (const double gap_ms : gaps_ms) {
    t += util::us_from_ms(gap_ms);
    const geom::Vec3 dir =
        geom::Vec3{rng.normal(), rng.normal(), rng.normal()}.normalized();
    const geom::Vec3 axis{rng.normal(), rng.normal(), rng.normal()};
    pose = geom::Pose{pose.rotation() *
                          geom::Mat3::rotation(axis,
                                               ang_budget * rng.uniform(0, 2)),
                      pose.translation() +
                          dir * (lat_budget * rng.uniform(0, 2))};
    trace.samples.push_back({t, pose});
  }
  return trace;
}

/// `trace` after detail::kScreenAfterIntervals still intervals of `gap_us`
/// at its first pose, so that gap's screen is set up before the trace
/// proper starts.
motion::Trace after_screen_set_up(const motion::Trace& trace,
                                  util::SimTimeUs gap_us = 10000) {
  const motion::TimedPose& first = trace.samples.front();
  motion::Trace out;
  for (int k = link::detail::kScreenAfterIntervals; k > 0; --k) {
    out.samples.push_back({first.time - k * gap_us, first.pose});
  }
  out.samples.insert(out.samples.end(), trace.samples.begin(),
                     trace.samples.end());
  return out;
}

TEST(EventEvalTest, GapsThatChangeAlongATraceMatchFixedStep) {
  // Each gap three intervals running, in enough rounds that every gap's
  // screen is set up and then reused while the others come and go; -5
  // and 0 ms are skipped.
  std::vector<double> gaps_ms;
  for (int round = 0;
       round < link::detail::kScreenAfterIntervals / 3 + 20; ++round) {
    for (const double gap : {-5.0, 0.0, 1.0, 5.0, 10.0, 10.001, 33.0, 1000.0}) {
      gaps_ms.insert(gaps_ms.end(), 3, gap);
    }
  }
  util::Rng rng(33);
  expect_matches_fixed_step(random_walk(gaps_ms, rng),
                            link::SlotEvalConfig{});
}

TEST(EventEvalTest, GapsThatSeldomRepeatMatchFixedStep) {
  // 10 ms until its screen is set up; 2000 gaps jittered over 9..11 ms in
  // whole µs, more distinct gaps than the evaluator holds, so 10 ms makes
  // room; 10 ms again until its screen is set up anew; then 90 Hz in
  // whole µs (11111 and 11112).
  util::Rng jitter(36);
  std::vector<double> gaps_ms(link::detail::kScreenAfterIntervals + 100,
                              10.0);
  for (int i = 0; i < 2000; ++i) {
    gaps_ms.push_back(std::round(jitter.uniform(9000.0, 11000.0)) * 1e-3);
  }
  gaps_ms.insert(gaps_ms.end(), link::detail::kScreenAfterIntervals + 100,
                 10.0);
  for (int k = 1; k <= 2000; ++k) {
    gaps_ms.push_back(
        (std::floor(k * 1e6 / 90) - std::floor((k - 1) * 1e6 / 90)) * 1e-3);
  }
  util::Rng rng(37);
  expect_matches_fixed_step(random_walk(gaps_ms, rng),
                            link::SlotEvalConfig{});
}

/// The end probes of a 10 ms interval under `config`: each region's last
/// slot, with its drift time (gap + t inside the carry region).
struct EndProbe {
  int slot;
  double t_eff_ms;
};
std::vector<EndProbe> end_probes(const link::SlotEvalConfig& config) {
  link::detail::IntervalModel model;
  model.gap_ms = 10.0;
  model.config = &config;
  const int slots = std::max(1, static_cast<int>(10.0 / config.slot_ms));
  int carry = 0;
  while (carry < slots && model.in_carry(carry)) ++carry;
  std::vector<EndProbe> probes;
  const auto t_ms = [&config](int s) { return (s + 1) * config.slot_ms; };
  if (carry > 0) probes.push_back({carry - 1, 10.0 + t_ms(carry - 1)});
  if (slots > carry) probes.push_back({slots - 1, t_ms(slots - 1)});
  return probes;
}

/// `steps` doubles, one ulp apart, centred on `centre`.
std::vector<double> ulp_sweep(double centre, int steps) {
  double x = centre;
  for (int i = 0; i < steps / 2; ++i) x = std::nextafter(x, 0.0);
  std::vector<double> xs;
  for (int i = 0; i < steps; ++i) {
    xs.push_back(x);
    x = std::nextafter(x, 1.0);
  }
  return xs;
}

TEST(EventEvalTest, AGapTakingOverAnotherGapsEntryMatchesFixedStep) {
  // The evaluator holds 16 gap entries, so some of the gaps 10.001 ..
  // 10.032 ms share one with 10 ms.  After each of them has its screen
  // set up, 10 ms intervals step just past 10 ms's lowest lateral
  // crossing, which a longer gap's thresholds would pass as connected.
  const link::SlotEvalConfig config;
  const double budget =
      config.lateral_tolerance_m - config.residual_lateral_m;
  double t_eff_ms = 0.0;
  for (const EndProbe& probe : end_probes(config)) {
    t_eff_ms = std::max(t_eff_ms, probe.t_eff_ms);
  }
  const double x = budget / t_eff_ms * 10.0 * (1.0 + 1e-9);
  const geom::Pose base{geom::Mat3::identity(), {0.0, 0.0, 0.0}};
  const motion::Trace steps = there_and_back_trace(
      base, 4, [x](const geom::Pose& b, std::size_t) {
        return geom::Pose{b.rotation(), {x, 0.0, 0.0}};
      });
  for (util::SimTimeUs other_us = 10001; other_us <= 10032; ++other_us) {
    SCOPED_TRACE(other_us);
    expect_matches_fixed_step(after_screen_set_up(steps, other_us), config);
  }
}

TEST(EventEvalTest, LateralStepsSweptByTheUlpAcrossEachEndProbeMatch) {
  // From the origin along x, so d² is the rounded square x² of each step,
  // and again with y² ≈ one ulp of x² added: consecutive steps' squares
  // lie one or two ulps apart, so together they take every d² in reach.
  const geom::Pose base{geom::Mat3::identity(), {0.0, 0.0, 0.0}};
  link::SlotEvalConfig no_carry;
  no_carry.tp_latency_ms = 0.0;
  for (const link::SlotEvalConfig& config :
       {link::SlotEvalConfig{}, no_carry}) {
    const double budget =
        config.lateral_tolerance_m - config.residual_lateral_m;
    for (const EndProbe& probe : end_probes(config)) {
      const std::vector<double> steps =
          ulp_sweep(budget / probe.t_eff_ms * 10.0, 512);
      // The sweep straddles this probe's crossing.
      link::detail::IntervalModel model;
      model.gap_ms = 10.0;
      model.config = &config;
      model.lat_rate = steps.front() / 10.0;
      EXPECT_FALSE(model.off_at(probe.slot));
      model.lat_rate = steps.back() / 10.0;
      EXPECT_TRUE(model.off_at(probe.slot));
      const motion::Trace trace = after_screen_set_up(there_and_back_trace(
          base, 2 * steps.size(), [&](const geom::Pose& b, std::size_t k) {
            const double x = steps[k / 2];
            const double x2 = x * x;
            const double y =
                k % 2 == 0 ? 0.0
                           : std::sqrt(std::nextafter(x2, 1.0) - x2);
            return geom::Pose{b.rotation(), {x, y, 0.0}};
          }));
      expect_matches_fixed_step(trace, config);
    }
  }
}

TEST(EventEvalTest, AngularStepsSweptByTheUlpAcrossEachEndProbeMatch) {
  // Rotations about z by cos c: the nine-product trace is 2c + 1, so q
  // moves by about one ulp of it per two ulps of c.
  const auto about_z = [](double c) {
    const double s = std::sqrt(1.0 - c * c);
    geom::Mat3 r;
    r.m[0][0] = c;
    r.m[0][1] = -s;
    r.m[1][0] = s;
    r.m[1][1] = c;
    return geom::Pose{r, {0.0, 0.0, 0.0}};
  };
  const geom::Pose base = geom::Pose::identity();
  link::SlotEvalConfig no_carry;
  no_carry.tp_latency_ms = 0.0;
  for (const link::SlotEvalConfig& config :
       {link::SlotEvalConfig{}, no_carry}) {
    const double budget =
        config.angular_tolerance_rad - config.residual_angular_rad;
    for (const EndProbe& probe : end_probes(config)) {
      const double angle = budget / probe.t_eff_ms * 10.0;
      // Two crossings per probe: the exact angle's, and the bound's
      // (k·√q = angle, q = 2 − 2c + Σ|aᵢⱼbᵢⱼ|·2⁻⁴⁸ with that sum ≈ 3).
      const double k = std::numbers::pi / 3.0;
      const double q = (angle / k) * (angle / k);
      for (const bool exact : {true, false}) {
        const double centre =
            exact ? std::cos(angle) : 1.0 - (q - 3.0 * 0x1p-48) / 2.0;
        const std::vector<double> cs = ulp_sweep(centre, 512);
        const auto rate = [&](double c) {
          const geom::Pose moved = about_z(c);
          return (exact ? geom::rotation_distance(base, moved)
                        : geom::rotation_bound_from_q(
                              geom::rotation_bound_q(base, moved))) /
                 10.0;
        };
        link::detail::IntervalModel model;
        model.gap_ms = 10.0;
        model.config = &config;
        model.ang_rate = rate(cs.back());  // largest c: smallest angle
        EXPECT_FALSE(model.off_at(probe.slot)) << exact;
        model.ang_rate = rate(cs.front());
        EXPECT_TRUE(model.off_at(probe.slot)) << exact;
        const motion::Trace trace = after_screen_set_up(there_and_back_trace(
            base, cs.size(), [&](const geom::Pose&, std::size_t i) {
              return about_z(cs[i]);
            }));
        // At the bound's crossing the exact angle is ≈ 5 % short of it, so
        // the oracle may read every slot connected there.
        if (exact) {
          expect_matches_fixed_step(trace, config);
        } else {
          expect_equals_fixed_step(trace, config);
        }
      }
    }
  }
}

TEST(EventEvalTest, ConfigsTheScreenCannotServeMatchFixedStep) {
  std::vector<link::SlotEvalConfig> configs;
  link::SlotEvalConfig c;
  c.residual_lateral_m = c.lateral_tolerance_m;  // on at zero rate, barely
  configs.push_back(c);
  c.residual_lateral_m = 1.5 * c.lateral_tolerance_m;  // off at zero rate
  configs.push_back(c);
  c = {};
  c.residual_angular_rad = c.angular_tolerance_rad;
  configs.push_back(c);
  c.residual_angular_rad = 1.5 * c.angular_tolerance_rad;
  configs.push_back(c);
  c = {};
  c.tp_latency_ms = 0.0;  // no carry region
  configs.push_back(c);
  c = {};
  c.slot_ms = 20.0;  // one slot per 10 ms interval
  configs.push_back(c);

  const std::vector<double> gaps_ms(400, 10.0);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    util::Rng rng(34);
    const link::SlotEvalResult fs =
        expect_equals_fixed_step(random_walk(gaps_ms, rng), configs[i]);
    EXPECT_GT(fs.off_slots, 0) << i;
  }
}

TEST(EventEvalTest, NonFiniteTranslationsAndRotationsMatchFixedStep) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  util::Rng rng(35);
  const link::SlotEvalConfig config;
  motion::Trace trace =
      after_screen_set_up(random_walk(std::vector<double>(240, 10.0), rng));
  // Every fourth sample past the warm-up gets one non-finite value: a
  // translation component or a rotation entry, cycling through NaN, +inf
  // and -inf.
  const double values[] = {kNan, kInf, -kInf};
  for (std::size_t i = link::detail::kScreenAfterIntervals + 4, n = 0;
       i < trace.samples.size(); i += 4, ++n) {
    const geom::Pose& pose = trace.samples[i].pose;
    geom::Mat3 r = pose.rotation();
    geom::Vec3 t = pose.translation();
    const double v = values[n % 3];
    if ((n / 3) % 2 == 0) {
      (n % 2 == 0 ? t.x : t.z) = v;
    } else {
      r.m[n % 3][(n / 2) % 3] = v;
    }
    trace.samples[i].pose = geom::Pose{r, t};
  }
  expect_matches_fixed_step(trace, config);
}

TEST(EventEvalTest, RejectsSlotsThatAreNotFiniteAndPositive) {
  const auto traces = small_fig16_dataset(1);
  for (const double slot_ms :
       {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity()}) {
    link::SlotEvalConfig config;
    config.slot_ms = slot_ms;
    EXPECT_THROW(link::evaluate_trace_events(traces[0], config),
                 std::invalid_argument)
        << slot_ms;
    EXPECT_THROW(link::evaluate_dataset(traces, config,
                                        util::ThreadPool::serial()),
                 std::invalid_argument)
        << slot_ms;
  }
}

TEST(EventEvalTest, RejectsTracesWhoseSlotCountLeavesInt) {
  const link::SlotEvalConfig config;  // 1 ms slots
  const auto still = [](std::initializer_list<double> times_ms) {
    motion::Trace trace;
    for (const double t_ms : times_ms) {
      trace.samples.push_back({util::us_from_ms(t_ms), geom::Pose{}});
    }
    return trace;
  };
  constexpr double kIntMax = std::numeric_limits<int>::max();
  // One interval of INT_MAX slots fits; one more slot does not.
  const link::SlotEvalResult most =
      link::evaluate_trace_events(still({0.0, kIntMax}), config);
  EXPECT_EQ(most.total_slots, std::numeric_limits<int>::max());
  EXPECT_EQ(most.off_slots, 0);
  EXPECT_THROW(link::evaluate_trace_events(still({0.0, kIntMax + 1}), config),
               std::invalid_argument);
  EXPECT_THROW(link::evaluate_trace_events(still({0.0, 3e12}), config),
               std::invalid_argument);
  // Two intervals that fit alone, but not in one trace's total, nor two
  // such traces in one dataset's; and an off run past the total.
  EXPECT_THROW(
      link::evaluate_trace_events(still({0.0, 1.5e9, 3e9}), config),
      std::invalid_argument);
  motion::Trace then_off = still({0.0, 2.1e9, 2.2e9});
  then_off.samples.back().pose =
      geom::Pose{geom::Mat3::identity(), {1.0, 0.0, 0.0}};
  EXPECT_THROW(link::evaluate_trace_events(then_off, config),
               std::invalid_argument);
  EXPECT_THROW(link::evaluate_dataset({still({0.0, 1.5e9}),
                                       still({0.0, 1.5e9})},
                                      config, util::ThreadPool::serial()),
               std::invalid_argument);
  // Times so far apart that their signed difference would overflow: the
  // gap forward is too many slots, the gap back is skipped.
  constexpr util::SimTimeUs kFar = 9'000'000'000'000'000'000;
  motion::Trace far;
  far.samples.push_back({-kFar, geom::Pose{}});
  far.samples.push_back({kFar, geom::Pose{}});
  EXPECT_THROW(link::evaluate_trace_events(far, config),
               std::invalid_argument);
  std::swap(far.samples[0], far.samples[1]);
  EXPECT_EQ(link::evaluate_trace_events(far, config).total_slots, 0);
}

TEST(EventEvalTest, EvalMetricsOnFig16SubsetArePinned) {
  // The values the evaluator counted before the per-gap screen: a path
  // that changes the probe count, the run split or an off run's length
  // moves them.
  const auto traces = small_fig16_dataset(25);
  obs::Registry registry;
  link::evaluate_dataset(traces, link::SlotEvalConfig{},
                         util::ThreadPool::serial(), &registry);
  const std::string expected = R"txt({"kind":"counter","name":"eval_bisect_iters_total","labels":{},"value":312538}
{"kind":"counter","name":"eval_events_dispatched_total","labels":{},"value":4700}
{"kind":"counter","name":"eval_intervals_total","labels":{},"value":150000}
{"kind":"counter","name":"eval_off_runs_total","labels":{},"value":7509}
{"kind":"counter","name":"eval_off_slots_total","labels":{},"value":12141}
{"kind":"counter","name":"eval_on_runs_total","labels":{},"value":151737}
{"kind":"counter","name":"eval_slots_total","labels":{},"value":1500000}
{"kind":"counter","name":"eval_traces_total","labels":{},"value":25}
{"kind":"histogram","name":"eval_link_off_run_ms","labels":{},"bounds":[1,1.5848931924611136,2.5118864315095801,3.9810717055349722,6.3095734448019334,10,15.848931924611133,25.118864315095795,39.810717055349734,63.095734448019329,100,158.48931924611142,251.18864315095797,398.10717055349733,630.957344480193,1000,1584.893192461114,2511.8864315095798,3981.0717055349733,6309.5734448019302,10000],"buckets":[3029,0,4328,152,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"count":7509,"min":1,"max":3}
)txt";
  EXPECT_EQ(obs::to_jsonl(registry), expected);
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
