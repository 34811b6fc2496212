// Reproduces Fig 16 (§5.4): trace-driven connectivity of the 25G
// prototype over 500 one-minute head traces, simulated in 1 ms slots.
//
// Paper anchors: operational in 98.6 % of slots on average (per-trace
// range ~95-99.98 %), effective bandwidth ~23 Gbps, and >60 % of
// off-slots falling in 30-slot frames with fewer than 10 off-slots.
//
// Runs the study on the discrete-event evaluator (link::evaluate_dataset)
// and on the legacy fixed-step loop (the test-only oracle in
// tests/oracle), exits 1 unless they are bit-identical, and reports the
// event engine's throughput and speedup.
//
// Usage: fig16_trace_cdf [n_traces]
//   n_traces < 500 is the smoke-gate subset (scripts/check.sh runs 50);
//   subset runs write BENCH_fig16_smoke.json so the committed full-run
//   BENCH_fig16.json is never clobbered by a quick gate.
#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "bench_common.hpp"
#include "fixed_step.hpp"
#include "link/slot_eval.hpp"
#include "motion/trace_generator.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

using namespace cyclops;

namespace {

constexpr int kFullTraces = 500;

std::vector<motion::Trace> make_dataset(int n, util::ThreadPool& pool) {
  util::Rng rng(2022);
  const geom::Pose base{geom::Mat3::identity(), {0.0, 0.8, 1.2}};
  // The §5.4 dataset (Lo et al. 360° viewers) is a different population
  // than the paper's own Fig-3 speed study: it includes more vigorous
  // posture shifts, occasionally exceeding the Fig-3 "normal use" maxima.
  motion::TraceGeneratorConfig gen_config;
  gen_config.max_linear_mps = 0.19;
  gen_config.shift_peak_mps = 0.17;
  gen_config.shift_rate_hz = 0.22;
  return motion::generate_dataset(base, n, gen_config, rng, pool);
}

/// Best-of-2 wall time for a phase (re-running is safe: both engines are
/// pure functions of the dataset).  The min discards one-off scheduler
/// hiccups, so the speedup ratio the smoke gate checks is stable enough
/// to hold a floor against ±20% single-shot noise.
template <typename Phase>
double timed_best_of_2(const Phase& phase) {
  bench::Timer timer;
  phase();
  double best = timer.elapsed_ms();
  timer.reset();
  phase();
  best = std::min(best, timer.elapsed_ms());
  return best;
}

bool same_results(const link::DatasetEvalResult& a,
                  const link::DatasetEvalResult& b) {
  return a.per_trace_off_fraction == b.per_trace_off_fraction &&
         a.pooled.off_per_dirty_frame == b.pooled.off_per_dirty_frame &&
         a.pooled.total_slots == b.pooled.total_slots &&
         a.pooled.off_slots == b.pooled.off_slots;
}

}  // namespace

int main(int argc, char** argv) {
  const int n_traces =
      argc > 1 ? std::max(1, std::atoi(argv[1])) : kFullTraces;
  std::printf("== Fig 16: CDF of per-trace disconnected-slot fraction "
              "(25G, %d traces, 1 ms slots) ==\n\n",
              n_traces);

  const auto traces = make_dataset(n_traces, util::ThreadPool::global());

  const link::SlotEvalConfig config;  // §5.4 constants (25G tolerances)

  // Legacy fixed-step oracle, serial: the pre-event-engine baseline.
  link::DatasetEvalResult legacy;
  const double legacy_ms = timed_best_of_2([&] {
    legacy = oracle::evaluate_dataset_fixed_step(traces, config);
  });

  // Event engine, serial then parallel — all three must agree exactly.
  link::DatasetEvalResult event_serial;
  const double event_serial_ms = timed_best_of_2([&] {
    event_serial =
        link::evaluate_dataset(traces, config, util::ThreadPool::serial());
  });

  link::DatasetEvalResult event_parallel;
  const double event_parallel_ms = timed_best_of_2([&] {
    event_parallel =
        link::evaluate_dataset(traces, config, util::ThreadPool::global());
  });

  if (!same_results(legacy, event_serial)) {
    std::fprintf(stderr, "FATAL: event engine differs from fixed-step\n");
    return 1;
  }
  if (!same_results(event_serial, event_parallel) ||
      event_serial.events != event_parallel.events) {
    std::fprintf(stderr, "FATAL: parallel result differs from serial\n");
    return 1;
  }
  const link::DatasetEvalResult& result = event_parallel;

  const double threads =
      static_cast<double>(util::ThreadPool::global().thread_count());
  const double events_per_sec =
      static_cast<double>(result.events) / (event_parallel_ms * 1e-3);
  // Per-phase worker counts: the serial phases pin 1 executor by
  // construction; the parallel phase gets whatever CYCLOPS_THREADS /
  // hardware concurrency resolved to.  Recorded so a JSON diff across
  // machines is interpretable.
  bench::write_bench_json(
      n_traces == kFullTraces ? "fig16" : "fig16_smoke",
      {{"legacy_fixed_step_ms", legacy_ms},
       {"event_serial_ms", event_serial_ms},
       {"event_parallel_ms", event_parallel_ms},
       {"legacy_vs_event_speedup", legacy_ms / event_serial_ms},
       {"parallel_speedup", event_serial_ms / event_parallel_ms},
       {"legacy_threads", 1.0},
       {"event_serial_threads", 1.0},
       {"event_parallel_threads", threads},
       {"timing_reps", 2.0},
       {"events", static_cast<double>(result.events)},
       {"events_per_sec", events_per_sec},
       {"traces", static_cast<double>(traces.size())}});
  std::printf("fixed-step serial %.0f ms; event engine %.0f ms serial "
              "(%.2fx), %.0f ms on %d threads (%.2fx more)\n",
              legacy_ms, event_serial_ms, legacy_ms / event_serial_ms,
              event_parallel_ms, static_cast<int>(threads),
              event_serial_ms / event_parallel_ms);
  std::printf("%llu events dispatched (%.1f M events/s), outputs "
              "bit-identical across engines and thread counts\n\n",
              static_cast<unsigned long long>(result.events),
              events_per_sec / 1e6);

  const util::Cdf cdf(result.per_trace_off_fraction);
  std::printf("cdf_fraction, disconnected_slot_percent\n");
  for (int i = 1; i <= 20; ++i) {
    const double q = i / 20.0;
    std::printf("%.2f, %.3f\n", q, 100.0 * cdf.quantile(q));
  }

  const double operational = 1.0 - result.pooled.off_fraction();
  std::printf("\noverall operational slots: %.2f%% (paper: 98.6%%)\n",
              100.0 * operational);
  std::printf("per-trace operational range: %.2f%% .. %.2f%% "
              "(paper: 95%% .. 99.98%%)\n",
              100.0 * (1.0 - cdf.max()), 100.0 * (1.0 - cdf.min()));
  std::printf("effective bandwidth: %.1f Gbps of 23.5 (paper: ~23)\n",
              operational * 23.5);
  std::printf("off-slots in lightly-affected frames (<10 off of 30): "
              "%.0f%% (paper: >60%%)\n",
              100.0 * result.pooled.scattered_fraction(10));
  return 0;
}
