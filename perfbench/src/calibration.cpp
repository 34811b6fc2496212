// calibration: one op is one full Stage-1 + Stage-2 calibration of a 10G
// prototype — cal::CalibrationEngine stepped to done() on a context that
// borrows the global pool (the Stage-1 Jacobians fan out across it) and
// owns a fresh registry (for the lm_* counters).  The input is a fixed
// set of prototypes, seeds counting up from the workload seed and
// skipping 42 (Table 2's seed, held out); ops cycle through it and each
// repeat must reproduce its seed's first result bit for bit.
#include <array>
#include <cmath>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cal/engine.hpp"
#include "common.hpp"
#include "core/evaluation.hpp"
#include "runtime/context.hpp"
#include "sim/prototype.hpp"
#include "spans.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

using namespace cyclops;

constexpr std::size_t kPrototypes = 6;
constexpr std::size_t kTinyPrototypes = 1;
constexpr std::uint64_t kHeldOutSeed = 42;

/// The phases a default-config calibration steps through (the blind
/// Stage-2 phases need CalibrationConfig::blind_stage2).
constexpr std::array<cal::Phase, 7> kPhases = {
    cal::Phase::kStage1TxCollect, cal::Phase::kStage1TxFit,
    cal::Phase::kStage1RxCollect, cal::Phase::kStage1RxFit,
    cal::Phase::kStage2Collect,   cal::Phase::kStage2Fit,
    cal::Phase::kStage2Retry};

bool all_finite(std::span<const double> values) {
  for (double v : values) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

std::uint64_t result_digest(const core::CalibrationResult& r) {
  Digest d;
  d.add(r.tx_stage1.model.params().pack());
  d.add(r.rx_stage1.model.params().pack());
  d.add(r.mapping.map_tx.params());
  d.add(r.mapping.map_rx.params());
  d.add(r.tx_stage1.avg_error_m);
  d.add(r.rx_stage1.avg_error_m);
  d.add(r.mapping.avg_coincidence_m);
  d.add(static_cast<std::uint64_t>(r.stage2_samples.size()));
  return d.value();
}

bool model_finite(const core::CalibrationResult& r) {
  return all_finite(r.tx_stage1.model.params().pack()) &&
         all_finite(r.rx_stage1.model.params().pack()) &&
         all_finite(r.mapping.map_tx.params()) &&
         all_finite(r.mapping.map_rx.params());
}

/// Per-op sums the traced run reports, keyed by phase.
struct PhaseTotals {
  double ms = 0.0;
  std::uint64_t steps = 0;
};

/// A calibrated prototype and its result: the fidelity evaluation input.
struct Calibrated {
  sim::Prototype proto;
  core::CalibrationResult result;
  std::uint64_t digest = 0;
};

class Calibration {
 public:
  explicit Calibration(const Options& options)
      : count_(options.tiny ? kTinyPrototypes : kPrototypes) {
    for (std::uint64_t s = options.seed; seeds_.size() < count_; ++s) {
      if (s != kHeldOutSeed) seeds_.push_back(s);
    }
  }

  void setup() {
    for (std::uint64_t s : seeds_) {
      protos_.push_back(sim::make_prototype(s, sim::prototype_10g_config()));
    }
    calibrate(0, false);  // warm-up
  }

  /// One op: calibrates a copy of prototype k.
  Calibrated calibrate(std::size_t k, bool trace, std::uint64_t op = 0) {
    sim::Prototype proto = protos_[k];
    obs::Registry registry;
    const runtime::Context ctx(util::ThreadPool::global(), registry, seeds_[k]);
    const util::Rng rng(seeds_[k] ^ 0x9e3779b97f4a7c15ULL);
    cal::CalibrationEngine engine(proto, core::CalibrationConfig{}, rng, ctx);
    if (!trace) {
      while (engine.step()) {
      }
    } else {
      step_traced(engine, registry, op);
    }
    lm_solves_ += registry.counter("lm_solves_total").value();
    lm_converged_ += registry.counter("lm_converged_total").value();
    core::CalibrationResult result = engine.take_result();
    const std::uint64_t digest = result_digest(result);
    return {std::move(proto), std::move(result), digest};
  }

  PhaseStats run_phase(double seconds, bool trace, Outcome& out) {
    SpanLog::instance().enable(trace);
    util::ThreadPool& pool = util::ThreadPool::global();
    const util::ThreadPool::Stats pool0 = pool.stats();
    lm_solves_ = lm_converged_ = lm_iterations_ = 0;
    phases_.clear();
    PhaseStats phase(WindowStat::kBest);
    phase.start();
    do {  // one window per cycle over the prototypes
      for (std::size_t k = 0; k < count_; ++k) {
        const auto op0 = Clock::now();
        Calibrated c = [&] {
          ScopedSpan span("calibration", "", 0, 0);
          return calibrate(k, trace, span.id());
        }();
        phase.add_op(seconds_between(op0, Clock::now()) * 1e3);
        ++out.attempted;
        // Stage-1 `converged` is false on every seed (the fits hit the
        // iteration cap), so only Stage 2 and finiteness decide failure.
        const bool ok = model_finite(c.result) && c.result.mapping.converged &&
                        (!reference_[k] || c.digest == reference_[k]->digest);
        if (!ok) ++out.failed;
        if (!reference_[k]) reference_[k] = std::move(c);
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

  /// Table-2 numbers per seed (untimed): Stage-1 errors from the fit
  /// reports, combined errors from core::evaluate_combined_errors with
  /// table2_gma_errors's protocol; medians over the seeds.
  void add_results(Outcome& out) {
    std::vector<double> stage1, tx, rx;
    Digest digest;
    for (std::size_t k = 0; k < count_; ++k) {
      if (!reference_[k]) reference_[k] = calibrate(k, false);
      Calibrated& c = *reference_[k];
      digest.add(c.digest);
      util::Rng rng(17);
      const core::CombinedErrors combined = core::evaluate_combined_errors(
          c.proto, c.result, 20, 0.15, 0.10, rng);
      stage1.push_back(
          0.5e3 * (c.result.tx_stage1.avg_error_m + c.result.rx_stage1.avg_error_m));
      tx.push_back(combined.tx.avg_m * 1e3);
      rx.push_back(combined.rx.avg_m * 1e3);
    }
    out.digest = digest.value();
    out.fidelity.push_back({{"stage1_err_mm", median(stage1), "mm"},
                            "Table 2: 1.57 (mean of TX 1.24, RX 1.90)"});
    out.fidelity.push_back({{"calib_err_tx_mm", median(tx), "mm"},
                            "Table 2: 2.18 combined TX"});
    out.fidelity.push_back({{"calib_err_rx_mm", median(rx), "mm"},
                            "Table 2: 4.54 combined RX"});
  }

  void add_per_layer(Outcome& out, const PhaseStats& traced) const {
    const double ops = static_cast<double>(traced.ops());
    for (cal::Phase p : kPhases) {
      const std::string name = cal::phase_name(p);
      const auto it = phases_.find(p);
      const PhaseTotals t = it != phases_.end() ? it->second : PhaseTotals{};
      out.per_layer.push_back({"cal.phase_ms." + name, t.ms / ops, "ms"});
      out.per_layer.push_back(
          {"cal.phase_steps." + name, static_cast<double>(t.steps) / ops, "count"});
    }
    const double solves = static_cast<double>(lm_solves_);
    out.per_layer.push_back({"opt.lm_solves", solves / ops, "count/op"});
    out.per_layer.push_back(
        {"opt.lm_iters_per_solve",
         solves > 0.0 ? static_cast<double>(lm_iterations_) / solves : 0.0,
         "count"});
    out.per_layer.push_back(
        {"opt.lm_converged_ratio",
         solves > 0.0 ? static_cast<double>(lm_converged_) / solves : 0.0,
         "frac"});
    out.per_layer.push_back(
        {"util.pool_wait_frac", pool_wait_us_ * 1e-6 / traced.wall_s(), "frac"});
    out.per_layer.push_back(
        {"util.pool_parallel_jobs", pool_parallel_jobs_ / ops, "count/op"});
  }

 private:
  /// Steps the engine with per-step timing.  Contiguous steps of one
  /// phase become one span.  LM iterations are counted exactly: every
  /// fit-phase step is one, except the Stage-2 retry phase's decision
  /// steps (its first step, and the step after each retry solve ends).
  void step_traced(cal::CalibrationEngine& engine, obs::Registry& registry,
                   std::uint64_t op) {
    const obs::Counter& solves = registry.counter("lm_solves_total");
    SpanLog& log = SpanLog::instance();
    cal::Phase open = engine.phase();
    std::int64_t open_start = SpanLog::now_ns();
    const auto close = [&](std::int64_t end) {
      log.record({log.next_id(), op, op, "phase", cal::phase_name(open),
                  open_start, end});
    };
    bool retry_decision = true;
    while (!engine.done()) {
      const cal::Phase p = engine.phase();
      const std::int64_t t0 = SpanLog::now_ns();
      if (p != open) {
        close(t0);
        open = p;
        open_start = t0;
      }
      const std::uint64_t solves_before = solves.value();
      engine.step();
      PhaseTotals& totals = phases_[p];
      totals.ms += static_cast<double>(SpanLog::now_ns() - t0) * 1e-6;
      ++totals.steps;
      switch (p) {
        case cal::Phase::kStage1TxFit:
        case cal::Phase::kStage1RxFit:
        case cal::Phase::kStage2Fit:
          ++lm_iterations_;
          break;
        case cal::Phase::kStage2Retry:
          if (!retry_decision) ++lm_iterations_;
          retry_decision = solves.value() != solves_before;
          break;
        default:
          break;
      }
    }
    close(SpanLog::now_ns());
  }

  std::size_t count_;
  std::vector<std::uint64_t> seeds_;
  std::vector<sim::Prototype> protos_;
  std::array<std::optional<Calibrated>, kPrototypes> reference_;
  std::map<cal::Phase, PhaseTotals> phases_;
  std::uint64_t lm_solves_ = 0, lm_converged_ = 0, lm_iterations_ = 0;
  double pool_wait_us_ = 0.0;
  double pool_parallel_jobs_ = 0.0;
};

}  // namespace

Outcome run_calibration(const Options& options) {
  Outcome out;
  Calibration calibration(options);
  calibration.setup();
  const double setup_s = setup_seconds(options);
  if (options.setup_only) {
    out.end_to_end.push_back({"setup_s", setup_s, "s"});
    return out;
  }
  if (!options.trace) {
    add_end_to_end(out, setup_s,
                   calibration.run_phase(options.seconds, false, out));
  } else {
    const PhaseStats plain =
        calibration.run_phase(options.seconds / 2, false, out);
    const PhaseStats traced =
        calibration.run_phase(options.seconds / 2, true, out);
    calibration.add_per_layer(out, traced);
    out.per_layer.push_back({"bench.trace_overhead_frac",
                             plain.ops_per_s() / traced.ops_per_s() - 1.0,
                             "frac"});
  }
  calibration.add_results(out);
  return out;
}

}  // namespace perfbench
