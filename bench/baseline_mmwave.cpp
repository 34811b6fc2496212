// Baseline: an 802.11ad mmWave VR link vs Cyclops on identical head
// traces — the paper's §1/§2 motivation ("current RF links ... are not
// able to provide desired data rates"), quantified.
//
// Both links run over the same 100 synthetic viewing traces.  The mmWave
// side rides the unified session core: phy::MmWaveChannel (MCS ladder,
// beam retraining) under link::run_channel_session, one event-scheduler
// session per trace with an isolated metrics registry — the same engine
// that runs the FSO link.  The mmWave model is given every benefit of the
// doubt (ideal rate adaptation, no interference); its ceiling is still an
// order of magnitude short of the raw-video requirement, while Cyclops
// delivers ~23 Gbps.
#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"
#include "link/event_eval.hpp"
#include "link/session_core.hpp"
#include "link/slot_eval.hpp"
#include "motion/trace.hpp"
#include "motion/trace_generator.hpp"
#include "phy/mmwave_channel.hpp"
#include "runtime/context.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

using namespace cyclops;

int main() {
  std::printf("== Baseline: 802.11ad mmWave vs Cyclops 25G on identical "
              "traces ==\n\n");

  util::Rng rng(2022);
  const geom::Pose base{geom::Mat3::identity(), {0.0, 0.8, 1.2}};
  const geom::Vec3 ap_position{0.0, 2.2, 0.0};
  const auto traces =
      motion::generate_dataset(base, 100, {}, rng, util::ThreadPool::global());

  const link::SlotEvalConfig cyclops_config;  // §5.4 parameters
  const double cyclops_goodput =
      phy::make_sfp_info(optics::sfp28_lr()).peak_rate_gbps;

  // Isolated: one bench, one metrics scope.
  const runtime::Context ctx = runtime::Context::isolated();
  // Best-of-2 wall time over the full 100-trace pass (the fig13/fig16
  // protocol); the reported stats are rep 0's — each rep starts fresh
  // RunningStats and retrain counts, so reps never accumulate into the
  // result fields.
  constexpr int kTimingReps = 2;
  util::RunningStats mmwave_gbps, cyclops_gbps;
  int total_retrains = 0;
  double pass_ms = 0.0;
  for (int rep = 0; rep < kTimingReps; ++rep) {
    util::RunningStats rep_mmwave, rep_cyclops;
    int rep_retrains = 0;
    bench::Timer timer;
    for (const auto& trace : traces) {
      // --- mmWave: the unified session core over the trace, one channel
      // (fresh beam-training state) per trace, 10 ms slots to match the
      // trace sampling. ---
      phy::MmWaveChannelConfig config;
      config.ap_position = ap_position;
      phy::MmWaveChannel channel(config, ctx);
      const motion::TraceMotion profile(trace);
      link::SimOptions options;
      options.step = 10000;
      const link::RunResult run =
          link::run_channel_session(channel, profile, ctx, options);
      channel.finish(util::us_from_s(profile.duration_s()));
      rep_mmwave.add(run.avg_rate_gbps);
      rep_retrains += channel.retrains();

      // --- Cyclops: §5.4 slot connectivity x the SFP28 goodput. ---
      const link::SlotEvalResult r =
          link::evaluate_trace_events(trace, cyclops_config);
      rep_cyclops.add((1.0 - r.off_fraction()) * cyclops_goodput);
    }
    const double rep_ms = timer.elapsed_ms();
    if (rep == 0) {
      mmwave_gbps = rep_mmwave;
      cyclops_gbps = rep_cyclops;
      total_retrains = rep_retrains;
      pass_ms = rep_ms;
    } else {
      pass_ms = std::min(pass_ms, rep_ms);
    }
  }

  std::printf("per-trace average goodput over %zu traces:\n", traces.size());
  std::printf("  802.11ad mmWave: %.2f Gbps (min %.2f, max %.2f), "
              "%.1f beam retrains/trace\n",
              mmwave_gbps.mean(), mmwave_gbps.min(), mmwave_gbps.max(),
              static_cast<double>(total_retrains) / traces.size());
  std::printf("  Cyclops 25G FSO: %.2f Gbps (min %.2f, max %.2f)\n",
              cyclops_gbps.mean(), cyclops_gbps.min(), cyclops_gbps.max());

  const double requirement = 24.0;  // raw 8K RGB at 30 fps (§2.1)
  std::printf("\nraw 8K/30fps requirement: %.0f Gbps -> mmWave delivers "
              "%.0f%%, Cyclops %.0f%%\n",
              requirement, 100.0 * mmwave_gbps.mean() / requirement,
              100.0 * cyclops_gbps.mean() / requirement);
  std::printf("advantage: %.1fx — the paper's case for FSO.\n",
              cyclops_gbps.mean() / mmwave_gbps.mean());
  bench::write_bench_json(
      "baseline_mmwave",
      {{"mmwave_mean_gbps", mmwave_gbps.mean()},
       {"cyclops_mean_gbps", cyclops_gbps.mean()},
       {"advantage_x", cyclops_gbps.mean() / mmwave_gbps.mean()},
       {"retrains_per_trace",
        static_cast<double>(total_retrains) / traces.size()},
       {"pass_ms", pass_ms},
       {"timing_reps", static_cast<double>(kTimingReps)}});
  return 0;
}
