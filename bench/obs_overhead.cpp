// Overhead of the telemetry subsystem on the §5.4 evaluator hot path.
//
// Runs evaluate_dataset twice per repetition — without a registry and
// with one — and reports the best-of-N times.  In a CYCLOPS_OBS=OFF
// build the instrumented entry points null the registry before the hot
// loop, so the two paths execute the same code and the delta must be
// measurement noise; the binary exits non-zero if it is not.  In ON
// builds the delta is the real cost of the sharded recording (expected
// low single-digit percent: integer bucket increments and hoisted
// counter adds).
#include <cstdio>

#include "link/slot_eval.hpp"
#include "motion/trace_generator.hpp"
#include "obs/obs.hpp"
#include "util/bench_io.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

using namespace cyclops;

int main() {
  std::printf("== telemetry overhead on the Fig. 16 evaluator ==\n");
  std::printf("build mode: CYCLOPS_OBS=%s\n", obs::kEnabled ? "ON" : "OFF");

  const geom::Pose base{geom::Mat3::identity(), {0.0, 0.8, 1.2}};
  motion::TraceGeneratorConfig trace_config;
  trace_config.duration_s = 20.0;
  util::Rng rng(2022);
  const std::vector<motion::Trace> traces = motion::generate_dataset(
      base, 200, trace_config, rng, util::ThreadPool::global());
  const link::SlotEvalConfig config;

  // Warm-up (page in the traces, size the pool).
  link::evaluate_dataset(traces, config, util::ThreadPool::global());

  constexpr int kReps = 5;
  double best_off_ms = 1e300, best_on_ms = 1e300;
  std::uint64_t events = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    util::Timer timer;
    const link::DatasetEvalResult plain =
        link::evaluate_dataset(traces, config, util::ThreadPool::global());
    best_off_ms = std::min(best_off_ms, timer.elapsed_ms());

    obs::Registry registry;
    timer.reset();
    const link::DatasetEvalResult observed = link::evaluate_dataset(
        traces, config, util::ThreadPool::global(), &registry);
    best_on_ms = std::min(best_on_ms, timer.elapsed_ms());

    if (observed.pooled.off_slots != plain.pooled.off_slots ||
        observed.events != plain.events) {
      std::fprintf(stderr, "FATAL: instrumentation changed the sim output\n");
      return 1;
    }
    events = observed.events;
  }

  const double overhead = best_on_ms / best_off_ms - 1.0;
  util::write_bench_json("obs_overhead",
                         {{"obs_enabled", obs::kEnabled ? 1.0 : 0.0},
                          {"uninstrumented_ms", best_off_ms},
                          {"instrumented_ms", best_on_ms},
                          {"overhead_fraction", overhead},
                          {"events", static_cast<double>(events)}});
  std::printf("uninstrumented %.1f ms, instrumented %.1f ms "
              "(%+.2f%% overhead, best of %d)\n",
              best_off_ms, best_on_ms, 100.0 * overhead, kReps);

  if constexpr (!obs::kEnabled) {
    // Both paths run identical code in OFF builds; allow 10% for timer
    // noise on a shared machine.
    if (overhead > 0.10) {
      std::fprintf(stderr,
                   "FATAL: OBS=OFF build shows measurable overhead "
                   "(%.1f%%) — the no-op gating regressed\n",
                   100.0 * overhead);
      return 1;
    }
    std::printf("OFF build: overhead within noise, gating intact\n");
  }
  return 0;
}
