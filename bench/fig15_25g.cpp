// Reproduces Fig 15: 25G prototype throughput for purely linear, purely
// angular, and arbitrary (mixed) motions.
//
// Paper anchors: optimal ~23.5 Gbps below 25 cm/s or 25 deg/s (pure), and
// below ~15 cm/s with 15-20 deg/s simultaneously.
#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

using namespace cyclops;

namespace {
constexpr int kTimingReps = 2;
}  // namespace

int main() {
  std::printf("== Fig 15: 25G prototype under pure and mixed motions ==\n\n");

  const runtime::Context ctx = runtime::Context::isolated({.threads = 0});
  bench::CalibratedRig rig =
      bench::make_calibrated_rig(42, sim::prototype_25g_config(), ctx);
  const double goodput = rig.proto.scene.config().sfp.goodput_gbps;

  std::vector<double> linear_speeds;
  for (double v = 0.05; v <= 0.45 + 1e-9; v += 0.05) linear_speeds.push_back(v);
  std::vector<double> angular_speeds;
  for (double w = 5.0; w <= 45.0 + 1e-9; w += 5.0) {
    angular_speeds.push_back(util::deg_to_rad(w));
  }

  // Best-of-2 wall time over the full pass (linear + angular + mixed, the
  // fig13/fig16 protocol); the reported rows are rep 0's.
  std::vector<bench::SpeedSweepRow> linear_rows, angular_rows;
  bench::MixedCharacterization mixed;
  double sweep_ms = 0.0;
  for (int rep = 0; rep < kTimingReps; ++rep) {
    bench::Timer timer;
    auto rep_linear = bench::stroke_speed_sweep(
        rig, bench::StrokeKind::kLinear, linear_speeds, ctx);
    auto rep_angular = bench::stroke_speed_sweep(
        rig, bench::StrokeKind::kAngular, angular_speeds, ctx);
    auto rep_mixed = bench::characterize_mixed(
        rig, /*cap_linear=*/0.45, /*cap_angular=*/util::deg_to_rad(40.0),
        /*lin_limit=*/0.18, /*ang_limit=*/util::deg_to_rad(22.0),
        /*duration_s=*/120.0, /*seed=*/77, ctx);
    const double rep_ms = timer.elapsed_ms();
    if (rep == 0) {
      linear_rows = std::move(rep_linear);
      angular_rows = std::move(rep_angular);
      mixed = std::move(rep_mixed);
      sweep_ms = rep_ms;
    } else {
      sweep_ms = std::min(sweep_ms, rep_ms);
    }
  }

  // --- purely linear ---
  std::printf("linear_speed_cm_s, throughput_gbps, power_dbm\n");
  for (const auto& row : linear_rows) {
    std::printf("%.0f, %.2f, %.1f\n", row.speed * 100.0, row.throughput_gbps,
                row.power_dbm);
  }
  const double max_linear = bench::max_optimal_speed(linear_rows, goodput);
  std::printf("max linear speed with optimal throughput: %.0f cm/s "
              "(paper: ~25 cm/s)\n\n",
              max_linear * 100.0);

  // --- purely angular ---
  std::printf("angular_speed_deg_s, throughput_gbps, power_dbm\n");
  for (const auto& row : angular_rows) {
    std::printf("%.0f, %.2f, %.1f\n", util::rad_to_deg(row.speed),
                row.throughput_gbps, row.power_dbm);
  }
  const double max_angular = bench::max_optimal_speed(angular_rows, goodput);
  std::printf("max angular speed with optimal throughput: %.0f deg/s "
              "(paper: ~25 deg/s)\n\n",
              util::rad_to_deg(max_angular));

  // --- mixed (same bucketed methodology as Fig 14) ---
  std::printf("windows with angular < 22 deg/s, bucketed by linear speed:\n");
  std::printf("linear_bucket_cm_s, windows, aligned_fraction\n");
  for (const auto& b : mixed.by_linear) {
    if (b.windows == 0) continue;
    std::printf("%.1f-%.1f, %d, %.2f\n", b.speed_lo * 100.0,
                b.speed_lo * 100.0 + 4.5, b.windows, b.aligned_fraction());
  }
  std::printf("\nwindows with linear < 18 cm/s, bucketed by angular speed:\n");
  std::printf("angular_bucket_deg_s, windows, aligned_fraction\n");
  for (const auto& b : mixed.by_angular) {
    if (b.windows == 0) continue;
    std::printf("%.0f-%.0f, %d, %.2f\n", util::rad_to_deg(b.speed_lo),
                util::rad_to_deg(b.speed_lo) + 4.0, b.windows,
                b.aligned_fraction());
  }
  std::printf("\nmixed motions: sustained up to ~%.0f cm/s with ~%.0f deg/s "
              "(paper: ~15 cm/s and 15-20 deg/s)\n",
              mixed.sustained_linear_mps * 100.0,
              util::rad_to_deg(mixed.sustained_angular_rps));
  std::printf("full pass: %.0f ms (best of %d)\n", sweep_ms, kTimingReps);
  bench::write_bench_json(
      "fig15",
      {{"max_linear_cm_s", max_linear * 100.0},
       {"max_angular_deg_s", util::rad_to_deg(max_angular)},
       {"sustained_linear_cm_s", mixed.sustained_linear_mps * 100.0},
       {"sustained_angular_deg_s",
        util::rad_to_deg(mixed.sustained_angular_rps)},
       {"sweep_ms", sweep_ms},
       {"timing_reps", static_cast<double>(kTimingReps)}});
  return 0;
}
