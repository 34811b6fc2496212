#include "link/event_eval.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <utility>

#include "event/scheduler.hpp"
#include "geom/pose.hpp"

namespace cyclops::link {

namespace {

/// One registry's eval-plane metric handles, looked up by the first trace
/// that has an interval and reused by later traces (evaluate_dataset keeps
/// one per chunk shard).  All null without a registry.
struct EvalMetrics {
  explicit EvalMetrics(obs::Registry* r) : registry(r) {}
  void resolve() {
    if (registry == nullptr || traces != nullptr) return;
    // Off runs last 1 slot .. ~10 s of slots; log buckets in ms.
    static const obs::HistogramSpec kOffRunSpec =
        obs::HistogramSpec::log_scale(1.0, 1e4, 5);
    traces = &registry->counter("eval_traces_total");
    slots = &registry->counter("eval_slots_total");
    off_slots = &registry->counter("eval_off_slots_total");
    events_dispatched = &registry->counter("eval_events_dispatched_total");
    intervals = &registry->counter("eval_intervals_total");
    bisect_iters = &registry->counter("eval_bisect_iters_total");
    on_runs = &registry->counter("eval_on_runs_total");
    off_runs = &registry->counter("eval_off_runs_total");
    off_run_ms = &registry->histogram("eval_link_off_run_ms", kOffRunSpec);
  }

  obs::Registry* registry;
  obs::Counter *traces = nullptr, *slots = nullptr, *off_slots = nullptr,
               *events_dispatched = nullptr, *intervals = nullptr,
               *bisect_iters = nullptr, *on_runs = nullptr,
               *off_runs = nullptr;
  obs::Histogram* off_run_ms = nullptr;
};

/// First s in [lo, hi) where `pred(s)` holds, or hi when none, for a
/// predicate monotone per region (false... then true...; see off_at in
/// slot_eval.hpp).  Probes the region's LAST slot first, so the common
/// all-false region (fig16: 98.6 % operational) takes one probe; by the
/// same monotonicity the answer equals a plain binary search's.  `iters`
/// tallies probes for the eval metrics.
template <typename Pred>
int first_true(int lo, int hi, Pred&& pred, std::uint64_t& iters) {
  if (lo >= hi) return lo;
  ++iters;
  if (!pred(hi - 1)) return hi;  // pred false across the whole region
  if (hi - lo == 1) return lo;
  ++iters;
  if (pred(lo)) return lo;  // boundary at (or before) the region start
  // Boundary inside (lo, hi-1]: bisect with the known-true top pinned.
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

/// The fused per-trace evaluator: one process, one event per run of report
/// intervals.  Each interval's on/off runs go straight into the §5.4 frame
/// accumulator, in slot order.  Runs on Scheduler::run_single.
class TraceEvalProcess final : public event::Process {
 public:
  TraceEvalProcess(const motion::Trace& trace, const SlotEvalConfig& config,
                   const EvalMetrics& metrics)
      : trace_(trace), config_(config), metrics_(metrics) {
    // The carry boundary depends only on the config (in_carry never reads
    // the rates), so one scan of the same predicate here gives
    // min(carry_limit_, slots) == first_true(0, slots, !in_carry).
    detail::IntervalModel probe;
    probe.config = &config_;
    while (carry_limit_ < (1 << 20) && probe.in_carry(carry_limit_)) {
      ++carry_limit_;
    }
  }

  void set_self(event::ProcessId self) { self_ = self; }

  /// Intervals per report event: the report chain is strictly sequential,
  /// so consecutive report timers coalesce into one event covering a run
  /// of intervals.  Each report time is still exact (max-clamped against
  /// non-monotone sample times), and the interval model never reads the
  /// clock, so the tallies are bit-identical at any batch size.
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
    if (!(model.gap_ms > 0.0)) return;
    model.lat_rate =
        geom::translation_distance(prev.pose, cur.pose) / model.gap_ms;
    const int slots =
        std::max(1, static_cast<int>(model.gap_ms / config_.slot_ms));
    // Slots [0, carry) still accumulate on the previous interval's budget.
    // off_at is monotone in each region, so two bisections find the exact
    // first off slot of each.
    const int carry = std::min(carry_limit_, slots);
    const auto off = [&model](int s) { return model.off_at(s); };

    // Fully-connected interval (~96 % of fig16's): first_true probes each
    // region's last slot first, and off_at is monotone non-decreasing in
    // ang_rate, so when both probes read connected at an upper bound on
    // the angle they read connected at the exact angle too.  The interval
    // is then one on-run, and first_true would have counted one probe per
    // non-empty region; rotation_distance is never taken.
    model.ang_rate =
        geom::rotation_distance_bound(prev.pose, cur.pose) / model.gap_ms;
    if (!(carry > 0 && off(carry - 1)) && !(slots > carry && off(slots - 1))) {
      bisect_iters_ += (carry > 0 ? 1 : 0) + (slots > carry ? 1 : 0);
      close_run(false, slots);
      return;
    }
    model.ang_rate =
        geom::rotation_distance(prev.pose, cur.pose) / model.gap_ms;
    const int off_a = first_true(0, carry, off, bisect_iters_);
    const int off_b = first_true(carry, slots, off, bisect_iters_);

    // Tally the interval as maximal same-state runs, in slot order:
    // [0,off_a) on, [off_a,carry) off, [carry,off_b) on, [off_b,slots) off,
    // an empty segment merging its neighbours into one run.
    const int bounds[5] = {0, off_a, carry, off_b, slots};
    int begin = 0;
    bool run_off = false;
    for (int k = 1; k <= 4; ++k) {
      if (bounds[k] == bounds[k - 1]) continue;
      const bool segment_off = k % 2 == 0;
      if (segment_off != run_off && bounds[k - 1] > begin) {
        close_run(run_off, bounds[k - 1] - begin);
        begin = bounds[k - 1];
      }
      run_off = segment_off;
    }
    close_run(run_off, slots - begin);
  }

 public:
  /// Call once after the scheduler drains: flushes the final partial frame
  /// and adds the trace's tallies to their counters.
  SlotEvalResult finish(std::uint64_t dispatched) {
    if (slots_in_frame_ > 0) flush();
    if (metrics_.traces != nullptr) {
      metrics_.traces->inc();
      metrics_.slots->inc(static_cast<std::uint64_t>(result_.total_slots));
      metrics_.off_slots->inc(static_cast<std::uint64_t>(result_.off_slots));
      metrics_.events_dispatched->inc(dispatched);
      metrics_.intervals->inc(intervals_);
      metrics_.bisect_iters->inc(bisect_iters_);
      metrics_.on_runs->inc(on_runs_);
      metrics_.off_runs->inc(off_runs_);
      for (int length = 1; length < kShortRun; ++length) {
        if (short_off_runs_[length] == 0) continue;
        metrics_.off_run_ms->record(length * config_.slot_ms,
                                    short_off_runs_[length]);
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

  /// A run's tallies.  An off run's histogram value, its length in ms, is
  /// integers x config constants, so thread-count independent; runs under
  /// kShortRun slots are counted per length and recorded by finish().
  void close_run(bool off, int length) {
    tally_run(off, length);
    if (!off) {
      ++on_runs_;
      return;
    }
    ++off_runs_;
    if (metrics_.off_run_ms == nullptr) return;
    if (length < kShortRun) {
      ++short_off_runs_[length];
    } else {
      metrics_.off_run_ms->record(length * config_.slot_ms);
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
  static constexpr int kShortRun = 64;
  std::array<std::uint64_t, kShortRun> short_off_runs_{};
};

/// evaluate_trace_events recording into `metrics`.
SlotEvalResult evaluate_trace(const motion::Trace& trace,
                              const SlotEvalConfig& config,
                              EvalMetrics& metrics, EventEvalStats* stats,
                              event::TraceHook* extra_hook) {
  if (trace.samples.size() < 2) return {};
  metrics.resolve();

  event::Scheduler sched;
  if (extra_hook) sched.add_hook(extra_hook);

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

}  // namespace

SlotEvalResult evaluate_trace_events(const motion::Trace& trace,
                                     const SlotEvalConfig& config,
                                     EventEvalStats* stats,
                                     event::TraceHook* extra_hook,
                                     obs::Registry* registry) {
  EvalMetrics metrics(registry);
  return evaluate_trace(trace, config, metrics, stats, extra_hook);
}

DatasetEvalResult evaluate_dataset(const std::vector<motion::Trace>& traces,
                                   const SlotEvalConfig& config,
                                   util::ThreadPool& pool,
                                   obs::Registry* registry) {
  // One engine per trace, each writing only its own slot, merged in trace
  // order; each chunk records into its own registry shard (static chunk
  // ranges, integer metric updates), folded in chunk order below.  Several
  // chunks per executor, pulled from the pool's dispenser, so a straggler
  // trace can't idle the other workers; each slot is cache-line aligned so
  // adjacent traces finishing on different threads don't false-share.
  struct alignas(64) PerTrace {
    SlotEvalResult result;
    std::uint64_t events = 0;
  };
  const std::size_t chunks =
      std::min(traces.size(), 4 * pool.thread_count());
  std::vector<PerTrace> per_trace(traces.size());
  obs::ShardedRegistry shards(registry != nullptr ? std::max<std::size_t>(
                                                        1, chunks)
                                                  : 1);
  pool.run_chunked(
      traces.size(), chunks,
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        EvalMetrics metrics(registry != nullptr ? &shards.shard(chunk)
                                                : nullptr);
        for (std::size_t i = begin; i < end; ++i) {
          PerTrace out;
          EventEvalStats stats;
          out.result = evaluate_trace(traces[i], config, metrics, &stats,
                                      nullptr);
          out.events = stats.dispatched;
          per_trace[i] = std::move(out);
        }
      });
  if (registry != nullptr) shards.merge_into(*registry);

  DatasetEvalResult result;
  result.per_trace_off_fraction.reserve(traces.size());
  for (const PerTrace& p : per_trace) {
    const SlotEvalResult& r = p.result;
    result.per_trace_off_fraction.push_back(r.off_fraction());
    result.pooled.total_slots += r.total_slots;
    result.pooled.off_slots += r.off_slots;
    result.pooled.off_per_dirty_frame.insert(
        result.pooled.off_per_dirty_frame.end(), r.off_per_dirty_frame.begin(),
        r.off_per_dirty_frame.end());
    result.events += p.events;
  }
  return result;
}

}  // namespace cyclops::link
