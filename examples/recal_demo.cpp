// Online recalibration demo: a drift-injected serving session run twice
// from the same seed — once with the calibration frozen, once with the
// online recalibrator refitting the Stage-2 mapping in flight — printing
// per-window link margins so the recovery is visible, then the Prometheus
// cal_* view of the online run.
//
//   ./recal_demo [duration_s]
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

#include "cal/online.hpp"
#include "core/calibration.hpp"
#include "obs/export.hpp"
#include "obs/registry.hpp"
#include "runtime/context.hpp"
#include "sim/prototype.hpp"

using namespace cyclops;

namespace {

cal::OnlineRecalResult run(double duration_s, bool online,
                           const runtime::Context& ctx) {
  sim::Prototype proto = sim::make_prototype(211, sim::prototype_25g_config());
  const core::CalibrationResult calibration = core::truth_calibration(proto);
  cal::OnlineRecalConfig config;
  config.duration_s = duration_s;
  config.online = online;
  config.seed = 7;
  return cal::run_online_recal_session(proto, calibration, config, ctx);
}

/// Filters the full exposition down to the cal_* families (keeping the
/// `# TYPE` comments so the dump is still valid Prometheus text).
void print_cal_metrics(const obs::Registry& registry) {
  std::istringstream text(obs::to_prometheus(registry));
  std::string line;
  while (std::getline(text, line)) {
    const bool comment = line.rfind("# TYPE ", 0) == 0;
    const std::string& name = comment ? line.substr(7) : line;
    if (name.rfind("cal_", 0) == 0) std::printf("%s\n", line.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const double duration_s = argc > 1 ? std::atof(argv[1]) : 2.0;

  const cal::OnlineRecalResult frozen =
      run(duration_s, /*online=*/false, runtime::Context::isolated());
  const runtime::Context ctx = runtime::Context::isolated();
  const cal::OnlineRecalResult online = run(duration_s, /*online=*/true, ctx);

  std::printf("window  frozen_margin  online_margin  refit\n");
  const std::size_t n = std::min(frozen.window_stats.size(),
                                 online.window_stats.size());
  for (std::size_t i = 0; i < n; ++i) {
    std::printf("%5zu  %12.2f  %12.2f  %s\n", i,
                frozen.window_stats[i].avg_margin_db,
                online.window_stats[i].avg_margin_db,
                online.window_stats[i].refit_active ? "  *" : "");
  }

  std::printf("\nfrozen: early %.2f dB -> tail %.2f dB (up %.3f)\n",
              frozen.early_margin_db, frozen.tail_margin_db,
              frozen.up_fraction);
  std::printf("online: early %.2f dB -> tail %.2f dB (up %.3f), %d refits, "
              "%llu refit windows, %llu refit-down windows\n",
              online.early_margin_db, online.tail_margin_db,
              online.up_fraction, online.refits,
              static_cast<unsigned long long>(online.refit_windows),
              static_cast<unsigned long long>(online.refit_down_windows));
  const double lost = frozen.early_margin_db - frozen.tail_margin_db;
  if (lost > 0.0) {
    std::printf("margin recovered: %.1f%%\n",
                100.0 * (online.tail_margin_db - frozen.tail_margin_db) / lost);
  }

  std::printf("\ncal_* metrics (online run):\n");
  print_cal_metrics(ctx.registry());
  return 0;
}
