// trace_eval: one op is one link::evaluate_dataset pass over the §5.4 /
// Fig-16 dataset (500 × 60 s traces, fig16_trace_cdf's generator config)
// with an obs::Registry attached.  The traced run fans the same per-trace
// evaluations out itself, so each trace gets an `evaluate_trace` span;
// every pass must be bit-identical to the run's first one.
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "link/event_eval.hpp"
#include "link/slot_eval.hpp"
#include "motion/trace_generator.hpp"
#include "spans.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

using namespace cyclops;

constexpr int kTraces = 500;
constexpr int kTinyTraces = 20;
constexpr int kWindowPasses = 10;

/// fig16_trace_cdf's dataset recipe, seeded by the workload seed.
std::vector<motion::Trace> make_dataset(int n, std::uint64_t seed) {
  util::Rng rng(seed);
  const geom::Pose base{geom::Mat3::identity(), {0.0, 0.8, 1.2}};
  motion::TraceGeneratorConfig gen_config;
  gen_config.max_linear_mps = 0.19;
  gen_config.shift_peak_mps = 0.17;
  gen_config.shift_rate_hz = 0.22;
  return motion::generate_dataset(base, n, gen_config, rng,
                                  util::ThreadPool::global());
}

/// A pass's simulated output plus the obs counters it recorded.
struct Pass {
  link::DatasetEvalResult result;
  std::vector<std::uint64_t> counters;
};

std::vector<std::uint64_t> counter_values(const obs::Registry& registry) {
  std::vector<std::uint64_t> values;
  for (const auto& [key, counter] : registry.counters()) {
    values.push_back(counter->value());
  }
  return values;
}

bool same_pass(const Pass& a, const Pass& b) {
  const link::DatasetEvalResult& x = a.result;
  const link::DatasetEvalResult& y = b.result;
  return x.per_trace_off_fraction == y.per_trace_off_fraction &&
         x.pooled.total_slots == y.pooled.total_slots &&
         x.pooled.off_slots == y.pooled.off_slots &&
         x.pooled.off_per_dirty_frame == y.pooled.off_per_dirty_frame &&
         x.events == y.events && a.counters == b.counters;
}

class TraceEval {
 public:
  explicit TraceEval(const Options& options)
      : traces_n_(options.tiny ? kTinyTraces : kTraces), seed_(options.seed) {}

  void setup() {
    const auto t0 = Clock::now();
    traces_ = make_dataset(traces_n_, seed_);
    gen_ms_ = seconds_between(t0, Clock::now()) * 1e3;
    plain_pass(util::ThreadPool::global(), true);  // warm-up
  }

  /// The op as users call it: evaluate_dataset with a registry.
  Pass plain_pass(util::ThreadPool& pool, bool with_registry) const {
    Pass pass;
    obs::Registry registry;
    pass.result = link::evaluate_dataset(traces_, config_, pool,
                                         with_registry ? &registry : nullptr);
    pass.counters = counter_values(registry);
    return pass;
  }

  /// A copy of link::evaluate_dataset's fan-out (src/link/slot_eval.cpp:
  /// same chunk geometry, sharded registry merged in chunk order) with one
  /// span and one timing per trace.  It has to follow that function: the
  /// trace timings and spans describe this copy, while add_per_layer reads
  /// the link.eval_* counters from a plain evaluate_dataset pass.
  Pass traced_pass(std::uint64_t op) {
    util::ThreadPool& pool = util::ThreadPool::global();
    const std::size_t n = traces_.size();
    const std::size_t chunks = std::min(n, 4 * pool.thread_count());
    struct alignas(64) PerTrace {
      link::SlotEvalResult result;
      std::uint64_t events = 0;
      double us = 0.0;
    };
    std::vector<PerTrace> per_trace(n);
    obs::ShardedRegistry shards(std::max<std::size_t>(1, chunks));
    pool.run_chunked(n, chunks,
                     [&](std::size_t chunk, std::size_t begin, std::size_t end) {
                       for (std::size_t i = begin; i < end; ++i) {
                         ScopedSpan span("evaluate_trace", "", op, op);
                         const auto t0 = Clock::now();
                         link::EventEvalStats stats;
                         per_trace[i].result = link::evaluate_trace_events(
                             traces_[i], config_, &stats, nullptr,
                             &shards.shard(chunk));
                         per_trace[i].events = stats.dispatched;
                         per_trace[i].us =
                             seconds_between(t0, Clock::now()) * 1e6;
                       }
                     });
    Pass pass;
    obs::Registry registry;
    shards.merge_into(registry);
    pass.counters = counter_values(registry);
    link::DatasetEvalResult& r = pass.result;
    for (const PerTrace& p : per_trace) {
      r.per_trace_off_fraction.push_back(p.result.off_fraction());
      r.pooled.total_slots += p.result.total_slots;
      r.pooled.off_slots += p.result.off_slots;
      r.pooled.off_per_dirty_frame.insert(r.pooled.off_per_dirty_frame.end(),
                                          p.result.off_per_dirty_frame.begin(),
                                          p.result.off_per_dirty_frame.end());
      r.events += p.events;
      trace_us_.push_back(p.us);
    }
    return pass;
  }

  PhaseStats run_phase(double seconds, bool trace, Outcome& out) {
    SpanLog::instance().enable(trace);
    util::ThreadPool& pool = util::ThreadPool::global();
    const util::ThreadPool::Stats pool0 = pool.stats();
    PhaseStats phase(WindowStat::kMedian);
    phase.start();
    do {
      for (int w = 0; w < kWindowPasses; ++w) {
        const auto op0 = Clock::now();
        Pass pass;
        if (trace) {
          ScopedSpan span("pass", "", 0, 0);
          pass = traced_pass(span.id());
        } else {
          pass = plain_pass(pool, true);
        }
        phase.add_op(seconds_between(op0, Clock::now()) * 1e3);
        ++out.attempted;
        if (!reference_) reference_ = std::make_unique<Pass>(std::move(pass));
        else if (!same_pass(pass, *reference_)) ++out.failed;
      }
      phase.close_window();
    } while (phase.elapsed_s() < seconds);
    phase.finish();
    SpanLog::instance().enable(false);
    const util::ThreadPool::Stats pool1 = pool.stats();
    pool_wait_us_ = static_cast<double>(pool1.wait_us - pool0.wait_us);
    pool_parallel_jobs_ =
        static_cast<double>(pool1.parallel_jobs - pool0.parallel_jobs);
    return phase;
  }

  /// Once per run: the serial pool must reproduce the parallel passes.
  /// A mismatch means every op's output was wrong.
  void check_serial(Outcome& out) const {
    if (!same_pass(plain_pass(util::ThreadPool::serial(), true), *reference_)) {
      out.failed = out.attempted;
    }
  }

  /// One pass timed with and without the registry, alternating, medians.
  double obs_overhead(int pairs) const {
    std::vector<double> with, without;
    for (int i = 0; i < pairs; ++i) {
      for (bool reg : {true, false}) {
        const auto t0 = Clock::now();
        plain_pass(util::ThreadPool::global(), reg);
        (reg ? with : without).push_back(seconds_between(t0, Clock::now()));
      }
    }
    return median(with) / median(without) - 1.0;
  }

  void add_results(Outcome& out) const {
    const link::DatasetEvalResult& r = reference_->result;
    Digest digest;
    digest.add(r.per_trace_off_fraction);
    digest.add(static_cast<std::uint64_t>(r.pooled.total_slots));
    digest.add(static_cast<std::uint64_t>(r.pooled.off_slots));
    for (int n : r.pooled.off_per_dirty_frame) {
      digest.add(static_cast<std::uint64_t>(n));
    }
    digest.add(r.events);
    out.digest = digest.value();
    out.fidelity.push_back({{"up_fraction", 1.0 - r.pooled.off_fraction(), "frac"},
                            "Fig 16: 0.986 operational slots"});
  }

  void add_per_layer(Outcome& out, const PhaseStats& traced, bool tiny) const {
    out.per_layer.push_back(
        {"link.trace_us_p50", util::percentile(trace_us_, 50.0), "us"});
    out.per_layer.push_back(
        {"link.trace_us_p99", util::percentile(trace_us_, 99.0), "us"});
    // The evaluator's own counters, from one evaluate_dataset pass.
    obs::Registry registry;
    link::evaluate_dataset(traces_, config_, util::ThreadPool::global(),
                           &registry);
    const auto count = [&](const char* name) {
      return static_cast<double>(registry.counter(name).value());
    };
    const double intervals = count("eval_intervals_total");
    out.per_layer.push_back({"link.eval_intervals", intervals, "count/op"});
    out.per_layer.push_back(
        {"link.eval_bisect_iters_per_interval",
         intervals > 0.0 ? count("eval_bisect_iters_total") / intervals : 0.0,
         "count"});
    out.per_layer.push_back({"link.eval_events",
                             count("eval_events_dispatched_total"), "count/op"});
    out.per_layer.push_back(
        {"obs.eval_overhead_frac", obs_overhead(tiny ? 1 : 5), "frac"});
    out.per_layer.push_back(
        {"util.pool_wait_frac", pool_wait_us_ * 1e-6 / traced.wall_s(), "frac"});
    out.per_layer.push_back(
        {"util.pool_parallel_jobs",
         pool_parallel_jobs_ / static_cast<double>(traced.ops()), "count/op"});
    out.per_layer.push_back({"motion.dataset_gen_ms", gen_ms_, "ms"});
  }

 private:
  int traces_n_;
  std::uint64_t seed_;
  link::SlotEvalConfig config_;  // §5.4 constants, event engine
  std::vector<motion::Trace> traces_;
  double gen_ms_ = 0.0;
  std::unique_ptr<Pass> reference_;
  std::vector<double> trace_us_;
  double pool_wait_us_ = 0.0;
  double pool_parallel_jobs_ = 0.0;
};

}  // namespace

Outcome run_trace_eval(const Options& options) {
  Outcome out;
  TraceEval eval(options);
  eval.setup();
  const double setup_s = setup_seconds(options);
  if (options.setup_only) {
    out.end_to_end.push_back({"setup_s", setup_s, "s"});
    return out;
  }
  if (!options.trace) {
    add_end_to_end(out, setup_s, eval.run_phase(options.seconds, false, out));
  } else {
    const PhaseStats plain = eval.run_phase(options.seconds / 2, false, out);
    const PhaseStats traced = eval.run_phase(options.seconds / 2, true, out);
    eval.add_per_layer(out, traced, options.tiny);
    out.per_layer.push_back({"bench.trace_overhead_frac",
                             plain.ops_per_s() / traced.ops_per_s() - 1.0,
                             "frac"});
  }
  eval.check_serial(out);
  eval.add_results(out);
  return out;
}

}  // namespace perfbench
