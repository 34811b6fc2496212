#include "link/event_eval.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "event/scheduler.hpp"
#include "geom/pose.hpp"

namespace cyclops::link {

namespace {

/// The eval-plane metrics of some traces, in plain integers: each trace's
/// evaluator adds to its chunk's tally, and a registry gets the sum once
/// (record_into), so attaching one costs nine lookups per call.  Every
/// value is a count or a count of integer-length runs, so the sum and what
/// record_into writes are the same at any thread count.
struct EvalTally {
  static constexpr int kShortRun = 64;

  void add(const EvalTally& o) {
    traces += o.traces;
    slots += o.slots;
    off_slots += o.off_slots;
    events_dispatched += o.events_dispatched;
    intervals += o.intervals;
    bisect_iters += o.bisect_iters;
    on_runs += o.on_runs;
    off_runs += o.off_runs;
    for (int length = 1; length < kShortRun; ++length) {
      short_off_runs[length] += o.short_off_runs[length];
    }
    long_off_runs.insert(long_off_runs.end(), o.long_off_runs.begin(),
                         o.long_off_runs.end());
  }

  /// Writes the tallies into `registry`; nothing when no trace had an
  /// interval.  An off run's histogram value is its length in ms.
  void record_into(obs::Registry& registry, double slot_ms) const {
    if (traces == 0) return;
    // Off runs last 1 slot .. ~10 s of slots; log buckets in ms.
    static const obs::HistogramSpec kOffRunSpec =
        obs::HistogramSpec::log_scale(1.0, 1e4, 5);
    registry.counter("eval_traces_total").inc(traces);
    registry.counter("eval_slots_total").inc(slots);
    registry.counter("eval_off_slots_total").inc(off_slots);
    registry.counter("eval_events_dispatched_total").inc(events_dispatched);
    registry.counter("eval_intervals_total").inc(intervals);
    registry.counter("eval_bisect_iters_total").inc(bisect_iters);
    registry.counter("eval_on_runs_total").inc(on_runs);
    registry.counter("eval_off_runs_total").inc(off_runs);
    obs::Histogram& off_run_ms =
        registry.histogram("eval_link_off_run_ms", kOffRunSpec);
    for (int length = 1; length < kShortRun; ++length) {
      if (short_off_runs[length] == 0) continue;
      off_run_ms.record(length * slot_ms, short_off_runs[length]);
    }
    for (const int length : long_off_runs) off_run_ms.record(length * slot_ms);
  }

  std::uint64_t traces = 0, slots = 0, off_slots = 0, events_dispatched = 0,
                intervals = 0, bisect_iters = 0, on_runs = 0, off_runs = 0;
  /// Off runs counted per length under kShortRun slots, and the longer
  /// runs' lengths.
  std::array<std::uint64_t, kShortRun> short_off_runs{};
  std::vector<int> long_off_runs;
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

/// The largest x in [+0, +inf] where `pred(x)` holds, for a predicate that
/// holds at +0 and is monotone in x (true... then false...).  Non-negative
/// doubles sort like their bit patterns, so this bisects over those.
template <typename Pred>
double last_true(Pred&& pred) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (pred(kInf)) return kInf;
  std::uint64_t lo = 0;  // bits of +0: pred holds
  std::uint64_t hi = std::bit_cast<std::uint64_t>(kInf);
  while (hi - lo > 1) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    (pred(std::bit_cast<double>(mid)) ? lo : hi) = mid;
  }
  return std::bit_cast<double>(lo);
}

/// The fused per-trace evaluator: one process, one event per run of report
/// intervals.  Each interval's on/off runs go straight into the §5.4 frame
/// accumulator, in slot order.  Runs on Scheduler::run_single.
class TraceEvalProcess final : public event::Process {
 public:
  TraceEvalProcess(const motion::Trace& trace, const SlotEvalConfig& config,
                   EvalTally& tally)
      : trace_(trace), config_(config), tally_(tally) {
    // Slots [0, carry_limit_) of any interval still accumulate on the
    // previous interval's budget: in_carry reads only the config and is
    // monotone, so one bisection finds the boundary for every gap.
    detail::IntervalModel model;
    model.config = &config_;
    std::uint64_t unused = 0;
    carry_limit_ = first_true(
        0, std::numeric_limits<int>::max(),
        [&model](int s) { return !model.in_carry(s); }, unused);
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
  /// What a report gap fixes (DESIGN.md §13): the slot geometry, set when
  /// the gap first comes up, and the screen's two thresholds, set once the
  /// gap has taken detail::kScreenAfterIntervals intervals.  An interval
  /// whose squared translation distance is at most max_d2 and whose bound
  /// argument q (geom::rotation_bound_q) is at most max_q reads connected
  /// at both end probes of the bound-first test, and no other interval
  /// does; until set up both are -inf, which fails every compare.
  struct GapScreen {
    std::uint64_t gap_us = 0;  ///< 0: an empty entry
    double gap_ms = 0.0;
    int slots = 0;
    int carry = 0;      ///< slots [0, carry) ride the carry-over branch
    int probes = 0;     ///< non-empty regions: first_true's probes when on
    int intervals = 0;  ///< taken so far, counted up to the set-up
    double max_d2 = -std::numeric_limits<double>::infinity();
    double max_q = -std::numeric_limits<double>::infinity();
  };

  /// Gap entries, one per hash slot: a new gap takes its slot over.  A
  /// trace at a fixed rate has one or two gaps (90 Hz in whole µs takes
  /// 11111 and 11112; the multiplicative hash sends adjacent gaps to
  /// different slots), so each is set up once per trace; a gap that
  /// seldom repeats pays for its geometry and never for a screen.
  static constexpr int kGapSlotBits = 4;

  /// The entry of `gap_us`, its slot geometry set when it is new.
  GapScreen& gap_entry(std::uint64_t gap_us) {
    GapScreen& g =
        gaps_[(gap_us * 0x9E3779B97F4A7C15u) >> (64 - kGapSlotBits)];
    if (g.gap_us == gap_us) return g;
    g = GapScreen{};
    const double gap_ms = static_cast<double>(gap_us) * 1e-3;  // us_to_ms
    const double slots = gap_ms / config_.slot_ms;
    if (!(slots < 0x1p31)) {
      throw std::invalid_argument(
          "evaluate_trace_events: a report gap of " + std::to_string(gap_us) +
          " us holds more slots than an int counts");
    }
    g.gap_us = gap_us;
    g.gap_ms = gap_ms;
    g.slots = std::max(1, static_cast<int>(slots));
    g.carry = std::min(carry_limit_, g.slots);
    g.probes = (g.carry > 0 ? 1 : 0) + (g.slots > g.carry ? 1 : 0);
    return g;
  }

  /// The bound-first test at the given rates: both regions' last slots
  /// read connected.
  bool end_probes_connected(const GapScreen& g, double lat_rate,
                            double ang_rate) const {
    detail::IntervalModel model;
    model.gap_ms = g.gap_ms;
    model.lat_rate = lat_rate;
    model.ang_rate = ang_rate;
    model.config = &config_;
    return !(g.carry > 0 && model.off_at(g.carry - 1)) &&
           !(g.slots > g.carry && model.off_at(g.slots - 1));
  }

  /// Sets `g`'s thresholds.  The bound-first test splits into a lateral and
  /// an angular half when the config is on at zero rates; each half is
  /// monotone in its rate, and the rate in d² or q (IEEE sqrt, ×, ÷ and +
  /// are monotone), so a largest passing value bounds each exactly.  A
  /// config that is off at zero rates keeps -inf.
  void set_up_screen(GapScreen& g) const {
    if (!end_probes_connected(g, 0.0, 0.0)) return;
    g.max_d2 = last_true([&](double d2) {
      return end_probes_connected(g, std::sqrt(d2) / g.gap_ms, 0.0);
    });
    g.max_q = last_true([&](double q) {
      return end_probes_connected(
          g, 0.0, geom::rotation_bound_from_q(q) / g.gap_ms);
    });
  }

  /// A connected interval: one on run, and the one probe per non-empty
  /// region that first_true would have counted.
  void close_connected(const GapScreen& g) {
    tally_.bisect_iters += static_cast<std::uint64_t>(g.probes);
    close_run(false, g.slots);
  }

  void eval_interval(std::size_t i) {
    const auto& prev = trace_.samples[i - 1];
    const auto& cur = trace_.samples[i];
    ++tally_.intervals;

    if (cur.time <= prev.time) return;  // a gap <= 0 holds no slots
    // The gap in unsigned arithmetic: exact even where the signed
    // difference of two far-apart times would overflow.
    const std::uint64_t gap_us = static_cast<std::uint64_t>(cur.time) -
                                 static_cast<std::uint64_t>(prev.time);
    if (gap_us != gap_->gap_us) gap_ = &gap_entry(gap_us);
    GapScreen& g = *gap_;

    // Fully-connected interval (~96 % of fig16's): two compares settle it.
    // d² is the value translation_distance takes the root of.
    const double d2 =
        (prev.pose.translation() - cur.pose.translation()).norm2();
    const double q = geom::rotation_bound_q(prev.pose, cur.pose);
    if (d2 <= g.max_d2 && q <= g.max_q) {
      close_connected(g);
      return;
    }

    const double lat_rate = std::sqrt(d2) / g.gap_ms;
    const double bound_rate = geom::rotation_bound_from_q(q) / g.gap_ms;
    // Whether the angular term alone reads connected at both end probes at
    // the bound's rate.  If so (monotone in s per region, and in the rate)
    // it is false at every slot at the exact rate too: off_at answers the
    // same with either rate, and the exact angle is not taken.
    bool bound_decides = q <= g.max_q;
    if (g.intervals < detail::kScreenAfterIntervals) {
      // No thresholds yet: the tests they stand for, run directly.
      if (++g.intervals == detail::kScreenAfterIntervals) set_up_screen(g);
      if (end_probes_connected(g, lat_rate, bound_rate)) {
        close_connected(g);
        return;
      }
      bound_decides = end_probes_connected(g, 0.0, bound_rate);
    }
    detail::IntervalModel model;
    model.gap_ms = g.gap_ms;
    model.lat_rate = lat_rate;
    model.ang_rate =
        bound_decides
            ? bound_rate
            : geom::rotation_distance(prev.pose, cur.pose) / g.gap_ms;
    model.config = &config_;
    // off_at is monotone in each region, so two bisections find the exact
    // first off slot of each.
    const auto off = [&model](int s) { return model.off_at(s); };
    const int off_a = first_true(0, g.carry, off, tally_.bisect_iters);
    const int off_b = first_true(g.carry, g.slots, off, tally_.bisect_iters);

    // Tally the interval as maximal same-state runs, in slot order:
    // [0,off_a) on, [off_a,carry) off, [carry,off_b) on, [off_b,slots) off,
    // an empty segment merging its neighbours into one run.
    const int bounds[5] = {0, off_a, g.carry, off_b, g.slots};
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
    close_run(run_off, g.slots - begin);
  }

 public:
  /// Call once after the scheduler drains: flushes the final partial frame
  /// and adds the trace's totals to the tally.
  SlotEvalResult finish(std::uint64_t dispatched) {
    if (slots_in_frame_ > 0) flush();
    check_total(0);
    result_.total_slots = static_cast<int>(total_slots_);
    result_.off_slots = static_cast<int>(off_slots_);
    ++tally_.traces;
    tally_.slots += static_cast<std::uint64_t>(total_slots_);
    tally_.off_slots += static_cast<std::uint64_t>(off_slots_);
    tally_.events_dispatched += dispatched;
    return std::move(result_);
  }

 private:
  /// Frame accounting, identical arithmetic to the fixed-step loop's: runs
  /// arrive in slot order, each split across the 30-slot frame boundaries
  /// it spans.
  void tally_run(bool off, int count) {
    total_slots_ += count;
    while (count > 0) {
      const int take = std::min(count, detail::kFrameSlots - slots_in_frame_);
      slots_in_frame_ += take;
      if (off) off_in_frame_ += take;
      count -= take;
      if (slots_in_frame_ == detail::kFrameSlots) {
        flush();
        // Whole on frames flush nothing: skip them, so an on run of up to
        // INT_MAX slots costs the same as a short one.
        if (!off) count %= detail::kFrameSlots;
      }
    }
  }

  /// Throws unless the trace's slot total plus `more` fits in an int.
  void check_total(std::int64_t more) const {
    if (total_slots_ + more > std::numeric_limits<int>::max()) {
      throw std::invalid_argument(
          "evaluate_trace_events: the trace holds more slots than an int "
          "counts");
    }
  }

  /// A run's tallies.  An off run checks the slot total first: its frames
  /// are stored, so a trace past INT_MAX slots stops before they fill
  /// memory.
  void close_run(bool off, int length) {
    if (off) check_total(length);
    tally_run(off, length);
    if (!off) {
      ++tally_.on_runs;
      return;
    }
    ++tally_.off_runs;
    if (length < EvalTally::kShortRun) {
      ++tally_.short_off_runs[length];
    } else {
      tally_.long_off_runs.push_back(length);
    }
  }

  void flush() {
    if (off_in_frame_ > 0) result_.off_per_dirty_frame.push_back(off_in_frame_);
    off_slots_ += off_in_frame_;
    slots_in_frame_ = 0;
    off_in_frame_ = 0;
  }

  const motion::Trace& trace_;
  const SlotEvalConfig& config_;
  EvalTally& tally_;
  event::ProcessId self_ = event::kNoProcess;
  int carry_limit_ = 0;  ///< first slot past the carry region (config-only)
  std::array<GapScreen, std::size_t{1} << kGapSlotBits> gaps_{};
  GapScreen* gap_ = &gaps_[0];  ///< the last interval's entry
  SlotEvalResult result_;
  // Slot totals in 64 bits, checked against INT_MAX per off run and in
  // finish(), not per interval.
  std::int64_t total_slots_ = 0;
  std::int64_t off_slots_ = 0;
  int slots_in_frame_ = 0;
  int off_in_frame_ = 0;
};

/// evaluate_trace_events adding its eval metrics to `tally`.
SlotEvalResult evaluate_trace(const motion::Trace& trace,
                              const SlotEvalConfig& config, EvalTally& tally,
                              EventEvalStats* stats,
                              event::TraceHook* extra_hook) {
  if (trace.samples.size() < 2) return {};

  event::Scheduler sched;
  if (extra_hook) sched.add_hook(extra_hook);

  TraceEvalProcess eval(trace, config, tally);
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

/// Slot counts divide by slot_ms: it must be finite and positive.
void check_slot_ms(const SlotEvalConfig& config) {
  if (!(std::isfinite(config.slot_ms) && config.slot_ms > 0.0)) {
    throw std::invalid_argument(
        "evaluate_trace_events: slot_ms must be finite and positive");
  }
}

}  // namespace

SlotEvalResult evaluate_trace_events(const motion::Trace& trace,
                                     const SlotEvalConfig& config,
                                     EventEvalStats* stats,
                                     event::TraceHook* extra_hook,
                                     obs::Registry* registry) {
  check_slot_ms(config);
  EvalTally tally;
  SlotEvalResult result =
      evaluate_trace(trace, config, tally, stats, extra_hook);
  if (registry != nullptr) tally.record_into(*registry, config.slot_ms);
  return result;
}

DatasetEvalResult evaluate_dataset(const std::vector<motion::Trace>& traces,
                                   const SlotEvalConfig& config,
                                   util::ThreadPool& pool,
                                   obs::Registry* registry) {
  // One engine per trace, each writing only its own slot, merged in trace
  // order; each chunk adds its eval metrics to its own tally, summed in
  // chunk order below and recorded once.  Several chunks per executor,
  // pulled from the pool's dispenser, so a straggler trace can't idle the
  // other workers; each slot is cache-line aligned so adjacent traces
  // finishing on different threads don't false-share.
  check_slot_ms(config);
  struct alignas(64) PerTrace {
    SlotEvalResult result;
    std::uint64_t events = 0;
  };
  struct alignas(64) PerChunk {
    EvalTally tally;
  };
  const std::size_t chunks =
      std::min(traces.size(), 4 * pool.thread_count());
  std::vector<PerTrace> per_trace(traces.size());
  std::vector<PerChunk> per_chunk(chunks);
  pool.run_chunked(
      traces.size(), chunks,
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          PerTrace out;
          EventEvalStats stats;
          out.result = evaluate_trace(traces[i], config,
                                      per_chunk[chunk].tally, &stats, nullptr);
          out.events = stats.dispatched;
          per_trace[i] = std::move(out);
        }
      });
  if (registry != nullptr) {
    EvalTally sum;
    for (const PerChunk& c : per_chunk) sum.add(c.tally);
    sum.record_into(*registry, config.slot_ms);
  }

  DatasetEvalResult result;
  result.per_trace_off_fraction.reserve(traces.size());
  for (const PerTrace& p : per_trace) {
    const SlotEvalResult& r = p.result;
    if (r.total_slots >
        std::numeric_limits<int>::max() - result.pooled.total_slots) {
      throw std::invalid_argument(
          "evaluate_dataset: the dataset holds more slots than an int counts");
    }
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
