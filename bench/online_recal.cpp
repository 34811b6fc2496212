// Online recalibration under injected drift — the ROADMAP item-3 "slow
// die-off" scenario, run as twin sessions from the same seed:
//
//   frozen — the commissioning calibration serves unchanged while VRH-T
//            frame drift (ramp + step) and RX galvo gain drift accumulate;
//   online — identical slot stream, but cal::OnlineRecalibrator refits the
//            Stage-2 mapping in flight whenever DriftMonitor latches.
//
// The twins share every rng draw, so the delta between them is exactly the
// recalibration effect.  Hard gates (also run by scripts/check.sh smoke):
//   * refits >= 1              — the monitor actually triggered;
//   * refit_down_windows == 0  — no link-down slot while a refit was in
//                                flight (refit-without-outage);
//   * margin_recovered >= 0.9  — online's tail margin recovers >= 90 % of
//                                what the frozen calibration loses.
//
// An argv[1] duration below the full 2 s selects smoke mode, which writes
// BENCH_recal_smoke.json so the committed full-run BENCH_recal.json is
// never clobbered.  (Durations below ~1 s compress the drift ramp faster
// than a refit can converge, so the smoke floor is 1 s.)
#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "bench_common.hpp"
#include "cal/online.hpp"
#include "core/calibration.hpp"
#include "sim/prototype.hpp"

using namespace cyclops;

namespace {

constexpr double kFullDurationS = 2.0;
constexpr int kTimingReps = 2;

cal::OnlineRecalResult run_twin(double duration_s, bool online) {
  sim::Prototype proto = sim::make_prototype(211, sim::prototype_25g_config());
  // The commissioning calibration is ground truth, so every dB lost
  // later is attributable to the injected drift, not fit error.
  const core::CalibrationResult calibration = core::truth_calibration(proto);
  cal::OnlineRecalConfig config;
  config.duration_s = duration_s;
  config.online = online;
  config.seed = 7;
  return cal::run_online_recal_session(proto, calibration, config,
                                       runtime::Context::isolated());
}

}  // namespace

int main(int argc, char** argv) {
  double duration_s = kFullDurationS;
  if (argc > 1) duration_s = std::atof(argv[1]);
  const bool smoke = duration_s < kFullDurationS;

  std::printf("== Online recalibration: frozen vs online under drift "
              "(%.1f s twins) ==\n\n", duration_s);

  // Best-of-2 wall time over the twin pair (fig13/14/15 protocol); the
  // reported results are rep 0's — the runs are deterministic, so later
  // reps only re-measure time.
  cal::OnlineRecalResult frozen, online;
  double pair_ms = 0.0;
  for (int rep = 0; rep < kTimingReps; ++rep) {
    bench::Timer timer;
    cal::OnlineRecalResult rep_frozen = run_twin(duration_s, /*online=*/false);
    cal::OnlineRecalResult rep_online = run_twin(duration_s, /*online=*/true);
    const double rep_ms = timer.elapsed_ms();
    if (rep == 0) {
      frozen = std::move(rep_frozen);
      online = std::move(rep_online);
      pair_ms = rep_ms;
    } else {
      pair_ms = std::min(pair_ms, rep_ms);
    }
  }

  const double lost = frozen.early_margin_db - frozen.tail_margin_db;
  const double recovered =
      lost > 0.0 ? (online.tail_margin_db - frozen.tail_margin_db) / lost : 0.0;

  std::printf("frozen: early %.2f dB -> tail %.2f dB  (up %.3f, "
              "%llu down slots)\n",
              frozen.early_margin_db, frozen.tail_margin_db,
              frozen.up_fraction,
              static_cast<unsigned long long>(frozen.down_slots));
  std::printf("online: early %.2f dB -> tail %.2f dB  (up %.3f, "
              "%llu down slots)\n",
              online.early_margin_db, online.tail_margin_db,
              online.up_fraction,
              static_cast<unsigned long long>(online.down_slots));
  std::printf("refits %d  refit windows %llu  refit-down windows %llu\n",
              online.refits,
              static_cast<unsigned long long>(online.refit_windows),
              static_cast<unsigned long long>(online.refit_down_windows));
  std::printf("margin lost (frozen) %.2f dB, recovered (online) %.1f%%\n",
              lost, 100.0 * recovered);
  std::printf("twin pair: %.1f ms (best of %d)\n", pair_ms, kTimingReps);

  bench::write_bench_json(
      smoke ? "recal_smoke" : "recal",
      {{"duration_s", duration_s},
       {"frozen_early_margin_db", frozen.early_margin_db},
       {"frozen_tail_margin_db", frozen.tail_margin_db},
       {"frozen_up_fraction", frozen.up_fraction},
       {"online_tail_margin_db", online.tail_margin_db},
       {"online_up_fraction", online.up_fraction},
       {"margin_lost_db", lost},
       {"margin_recovered", recovered},
       {"refits", static_cast<double>(online.refits)},
       {"refit_windows", static_cast<double>(online.refit_windows)},
       {"refit_down_windows",
        static_cast<double>(online.refit_down_windows)},
       {"windows", static_cast<double>(online.windows)},
       {"pair_ms", pair_ms},
       {"timing_reps", static_cast<double>(kTimingReps)}});

  // Gates.
  bool ok = true;
  if (online.refits < 1) {
    std::fprintf(stderr, "GATE FAIL: no refit triggered (drift monitor never "
                         "latched)\n");
    ok = false;
  }
  if (online.refit_down_windows != 0) {
    std::fprintf(stderr, "GATE FAIL: %llu windows had a down slot during an "
                         "in-flight refit\n",
                 static_cast<unsigned long long>(online.refit_down_windows));
    ok = false;
  }
  if (lost <= 0.0) {
    std::fprintf(stderr, "GATE FAIL: frozen twin lost no margin — drift "
                         "injection is not biting\n");
    ok = false;
  }
  if (recovered < 0.9) {
    std::fprintf(stderr, "GATE FAIL: online recovered %.1f%% of lost margin "
                         "(< 90%%)\n", 100.0 * recovered);
    ok = false;
  }
  return ok ? 0 : 1;
}
