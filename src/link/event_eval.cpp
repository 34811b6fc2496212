#include "link/event_eval.hpp"

#include <algorithm>
#include <cstddef>

#include "event/scheduler.hpp"
#include "obs/config.hpp"

namespace cyclops::link {
namespace {

/// Hoisted eval-plane metric handles, looked up once per trace.  Each
/// counter takes one add when the trace finishes (the per-interval counts
/// are plain tallies in TraceEvalProcess); the histogram records per off
/// run.  All null when no registry was passed; dead weight in
/// CYCLOPS_OBS=OFF builds.
struct EvalMetrics {
  obs::Counter* traces = nullptr;
  obs::Counter* slots = nullptr;
  obs::Counter* off_slots = nullptr;
  obs::Counter* events_dispatched = nullptr;
  obs::Counter* intervals = nullptr;
  obs::Counter* bisect_iters = nullptr;
  obs::Counter* on_runs = nullptr;
  obs::Counter* off_runs = nullptr;
  obs::Histogram* off_run_ms = nullptr;

  explicit EvalMetrics(obs::Registry* registry) {
    if constexpr (obs::kEnabled) {
      if (registry != nullptr) {
        traces = &registry->counter("eval_traces_total");
        slots = &registry->counter("eval_slots_total");
        off_slots = &registry->counter("eval_off_slots_total");
        events_dispatched = &registry->counter("eval_events_dispatched_total");
        intervals = &registry->counter("eval_intervals_total");
        bisect_iters = &registry->counter("eval_bisect_iters_total");
        on_runs = &registry->counter("eval_on_runs_total");
        off_runs = &registry->counter("eval_off_runs_total");
        // Off runs last 1 slot .. ~10 s of slots; log buckets in ms.
        off_run_ms = &registry->histogram(
            "eval_link_off_run_ms", obs::HistogramSpec::log_scale(1.0, 1e4, 5));
      }
    }
  }
};

/// First s in [lo, hi) where `pred(s)` holds, or hi when none.  Requires
/// a monotone predicate (false... then true...), which IntervalModel
/// guarantees per region — see the off_at comment in slot_eval.hpp.
/// Probes the region's LAST slot first: ~99% of slots are connected
/// (fig16 reports 98.6% operational), so the overwhelmingly common
/// all-false region resolves in a single probe instead of log2(slots).
/// The endpoint answers are exact by the same monotonicity that justifies
/// the bisection, so the result is bit-identical to a plain binary
/// search.  `iters` tallies probe count for the eval metrics.
template <typename Pred>
int first_true(int lo, int hi, Pred&& pred, std::uint64_t& iters) {
  if (lo >= hi) return lo;
  ++iters;
  if (!pred(hi - 1)) return hi;  // pred false across the whole region
  if (hi - lo == 1) return lo;
  ++iters;
  if (pred(lo)) return lo;  // boundary at (or before) the region start
  // Boundary strictly inside (lo, hi-1]: bisect the open interior with
  // the known-true top pinned.
  lo += 1;
  int top = hi - 1;
  while (lo < top) {
    const int mid = lo + (top - lo) / 2;
    ++iters;
    if (pred(mid)) {
      top = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

/// The fused per-trace evaluator: ONE process, ONE event per report
/// interval.  Each dispatch computes the interval's drift rates, bisects
/// for the first disconnected slot in each latency region, tallies the
/// resulting on/off runs straight into the §5.4 frame accumulator (no
/// run events — the runs are already known in slot order), and chains the
/// next report.  Runs on Scheduler::run_single for devirtualized dispatch.
class TraceEvalProcess final : public event::Process {
 public:
  TraceEvalProcess(const motion::Trace& trace, const SlotEvalConfig& config,
                   const EvalMetrics& metrics)
      : trace_(trace), config_(config), metrics_(metrics) {
    // The carry boundary depends only on the config — in_carry compares
    // (s+1)*slot_ms against tp_latency_ms, never the interval's rates —
    // so its bisection hoists out of the per-interval hot path entirely.
    // The scan runs the exact same predicate the per-interval bisection
    // would, so min(carry_limit_, slots) is bit-identical to
    // first_true(0, slots, !in_carry).
    detail::IntervalModel probe;
    probe.config = &config_;
    while (carry_limit_ < (1 << 20) && probe.in_carry(carry_limit_)) {
      ++carry_limit_;
    }
  }

  void set_self(event::ProcessId self) { self_ = self; }

  /// Intervals per report event (ISSUE-6 attack 4, timer churn): the
  /// report chain is strictly sequential — no other event type exists in
  /// this engine — so consecutive report timers coalesce into one event
  /// covering a run of intervals, the same batching precedent
  /// QuantizedFsoProcess sets for PHY slots.  Each interval's report time
  /// is still computed exactly (max-clamped against non-monotone sample
  /// times), and the interval model never reads the clock, so the tallies
  /// are bit-identical at any batch size.
  static constexpr std::size_t kIntervalsPerEvent = 32;

  void handle(event::Scheduler& sched, const event::Event& ev) override {
    std::size_t i = static_cast<std::size_t>(ev.i64);
    const std::size_t batch_end =
        std::min(trace_.samples.size(), i + kIntervalsPerEvent);
    util::SimTimeUs t_report = sched.now();
    for (; i < batch_end; ++i) {
      eval_interval(i);
      // Clamp for traces with non-increasing timestamps (the fixed-step
      // oracle tolerates them by skipping the interval; we must not
      // schedule into the past).
      t_report = std::max(t_report, trace_.samples[i].time);
    }
    if (i < trace_.samples.size()) {
      event::Event next;
      next.time = t_report;
      next.type = kEvReportInterval;
      next.target = self_;
      next.i64 = static_cast<std::int64_t>(i);
      sched.schedule(next);
    }
  }

 private:
  void eval_interval(std::size_t i) {
    const auto& prev = trace_.samples[i - 1];
    const auto& cur = trace_.samples[i];
    ++intervals_;

    detail::IntervalModel model;
    model.gap_ms = util::us_to_ms(cur.time - prev.time);
    model.config = &config_;
    if (model.gap_ms > 0.0) {
      model.lat_rate =
          geom::translation_distance(prev.pose, cur.pose) / model.gap_ms;
      model.ang_rate =
          geom::rotation_distance(prev.pose, cur.pose) / model.gap_ms;

      const int slots =
          std::max(1, static_cast<int>(model.gap_ms / config_.slot_ms));
      // Carry-region boundary: slots [0, carry) still accumulate on the
      // previous interval's budget.  The boundary is config-only, so it
      // was bisected once at construction; both off_at region predicates
      // are monotone, so two bisections find the exact first off slot of
      // each region.
      const int carry = std::min(carry_limit_, slots);
      const int off_a = first_true(
          0, carry, [&model](int s) { return model.off_at(s); },
          bisect_iters_);
      const int off_b = first_true(
          carry, slots, [&model](int s) { return model.off_at(s); },
          bisect_iters_);

      // Fully-connected interval (the ~99% case per fig16): both regions
      // bisected to "no off slot", so the whole interval is one on-run —
      // exactly what the general segment-merge below would emit.
      if (off_a == carry && off_b == slots) {
        tally_run(false, slots);
        ++on_runs_;
        return;
      }

      // Tally the interval as maximal same-state runs, in slot order:
      // [0,off_a) on, [off_a,carry) off, [carry,off_b) on, [off_b,slots)
      // off — with same-state neighbors (adjacent via an empty middle
      // segment, e.g. a fully-connected interval) merged into one run.
      // The runs feed the frame accumulator directly; the old design
      // round-tripped each one through a scheduled event to a second
      // process, doubling queue traffic for no information gain.
      const int bounds[5] = {0, off_a, carry, off_b, slots};
      int pend_begin = -1, pend_end = 0;
      bool pend_off = false;
      const auto emit = [&] {
        if (pend_begin < 0) return;
        tally_run(pend_off, pend_end - pend_begin);
        if (!pend_off) {
          ++on_runs_;
          return;
        }
        ++off_runs_;
        if constexpr (obs::kEnabled) {
          if (metrics_.off_run_ms != nullptr) {
            // run length in ms derives from integers x config constants,
            // so the recorded value is thread-count independent.
            metrics_.off_run_ms->record((pend_end - pend_begin) *
                                        config_.slot_ms);
          }
        }
      };
      for (int k = 1; k <= 4; ++k) {
        const bool off = (k % 2) == 0;  // segments alternate on/off.
        if (bounds[k] <= bounds[k - 1]) continue;
        if (pend_begin >= 0 && off == pend_off) {
          pend_end = bounds[k];  // coalesce with the previous segment
          continue;
        }
        emit();
        pend_begin = bounds[k - 1];
        pend_end = bounds[k];
        pend_off = off;
      }
      emit();
    }
  }

 public:
  /// Call once after the scheduler drains: flushes the final partial frame
  /// and adds the trace's tallies to their counters.
  SlotEvalResult finish(std::uint64_t dispatched) {
    if (slots_in_frame_ > 0) flush();
    if constexpr (obs::kEnabled) {
      if (metrics_.traces != nullptr) {
        metrics_.traces->inc();
        metrics_.slots->inc(static_cast<std::uint64_t>(result_.total_slots));
        metrics_.off_slots->inc(static_cast<std::uint64_t>(result_.off_slots));
        metrics_.events_dispatched->inc(dispatched);
        metrics_.intervals->inc(intervals_);
        metrics_.bisect_iters->inc(bisect_iters_);
        metrics_.on_runs->inc(on_runs_);
        metrics_.off_runs->inc(off_runs_);
      }
    }
    return std::move(result_);
  }

 private:
  /// Frame accounting, identical arithmetic to the old FrameAccountant
  /// process (and the fixed-step loop): runs arrive in slot order, each
  /// split across the 30-slot frame boundaries it spans.
  void tally_run(bool off, int count) {
    result_.total_slots += count;
    while (count > 0) {
      const int take = std::min(count, detail::kFrameSlots - slots_in_frame_);
      slots_in_frame_ += take;
      if (off) off_in_frame_ += take;
      if (slots_in_frame_ == detail::kFrameSlots) flush();
      count -= take;
    }
  }

  void flush() {
    if (off_in_frame_ > 0) result_.off_per_dirty_frame.push_back(off_in_frame_);
    result_.off_slots += off_in_frame_;
    slots_in_frame_ = 0;
    off_in_frame_ = 0;
  }

  const motion::Trace& trace_;
  const SlotEvalConfig& config_;
  const EvalMetrics& metrics_;
  event::ProcessId self_ = event::kNoProcess;
  int carry_limit_ = 0;  ///< first slot past the carry region (config-only)
  SlotEvalResult result_;
  int slots_in_frame_ = 0;
  int off_in_frame_ = 0;
  // Eval-metric tallies: plain integers per interval, flushed by finish().
  std::uint64_t intervals_ = 0;
  std::uint64_t bisect_iters_ = 0;
  std::uint64_t on_runs_ = 0;
  std::uint64_t off_runs_ = 0;
};

}  // namespace

SlotEvalResult evaluate_trace_events(const motion::Trace& trace,
                                     const SlotEvalConfig& config,
                                     EventEvalStats* stats,
                                     event::TraceHook* extra_hook,
                                     obs::Registry* registry) {
  if constexpr (!obs::kEnabled) registry = nullptr;
  if (trace.samples.size() < 2) return {};

  event::Scheduler sched;
  if (extra_hook) sched.add_hook(extra_hook);

  EvalMetrics metrics(registry);
  TraceEvalProcess eval(trace, config, metrics);
  const event::ProcessId eval_id = sched.add_process(&eval);
  eval.set_self(eval_id);

  event::Event first;
  first.time = trace.samples.front().time;
  first.type = kEvReportInterval;
  first.target = eval_id;
  first.i64 = 1;
  sched.schedule(first);
  if (extra_hook) {
    sched.run();  // hooked path: generic loop so every dispatch is traced
  } else {
    sched.run_single(eval);  // devirtualized fast path
  }

  if (stats) {
    stats->dispatched = sched.dispatched();
    stats->scheduled = sched.scheduled();
  }
  return eval.finish(sched.dispatched());
}

}  // namespace cyclops::link
