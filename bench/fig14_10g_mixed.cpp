// Reproduces Fig 14: 10G throughput and received power under arbitrary
// (hand-held) user motion — simultaneous linear + angular movement.
//
// Paper anchor: optimal throughput is maintained for motions undergoing
// simultaneous linear and angular speeds below ~30 cm/s and ~16-18 deg/s;
// received power stays above -40 dBm up to 100 deg/s with 30 cm/s.
//
// Methodology: one long hand-held run; windows are bucketed by their
// measured speeds and a window counts as "aligned" when its worst-slot
// power stays above the SFP sensitivity (this separates alignment
// capability from the 2 s SFP re-acquisition tail that follows any drop).
#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"
#include "util/units.hpp"

using namespace cyclops;

namespace {
constexpr int kTimingReps = 2;
}  // namespace

int main() {
  std::printf("== Fig 14: 10G under arbitrary (mixed) motions ==\n\n");

  const runtime::Context ctx = runtime::Context::isolated({.threads = 0});
  bench::CalibratedRig rig =
      bench::make_calibrated_rig(42, sim::prototype_10g_config(), ctx);

  const double ang_limit = util::deg_to_rad(14.0);
  const double lin_limit = 0.25;
  // Best-of-2 wall time over the full characterization (the fig13/fig16
  // protocol: the min discards one-off scheduler hiccups); the reported
  // rows are rep 0's, so the result fields stay comparable across runs.
  bench::MixedCharacterization mixed;
  double characterize_ms = 0.0;
  for (int rep = 0; rep < kTimingReps; ++rep) {
    bench::Timer timer;
    auto rep_mixed = bench::characterize_mixed(
        rig, /*cap_linear=*/0.60, /*cap_angular=*/util::deg_to_rad(40.0),
        lin_limit, ang_limit, /*duration_s=*/300.0, /*seed=*/99, ctx);
    const double rep_ms = timer.elapsed_ms();
    if (rep == 0) {
      mixed = std::move(rep_mixed);
      characterize_ms = rep_ms;
    } else {
      characterize_ms = std::min(characterize_ms, rep_ms);
    }
  }

  std::printf("windows with angular < 14 deg/s, bucketed by linear speed:\n");
  std::printf("linear_bucket_cm_s, windows, aligned_fraction\n");
  for (const auto& b : mixed.by_linear) {
    if (b.windows == 0) continue;
    std::printf("%.0f-%.0f, %d, %.2f\n", b.speed_lo * 100.0,
                b.speed_lo * 100.0 + 6.0, b.windows, b.aligned_fraction());
  }

  std::printf("\nwindows with linear < 25 cm/s, bucketed by angular speed:\n");
  std::printf("angular_bucket_deg_s, windows, aligned_fraction\n");
  for (const auto& b : mixed.by_angular) {
    if (b.windows == 0) continue;
    std::printf("%.0f-%.0f, %d, %.2f\n", util::rad_to_deg(b.speed_lo),
                util::rad_to_deg(b.speed_lo) + 4.0, b.windows,
                b.aligned_fraction());
  }

  std::printf("\nsimultaneous speeds sustained with aligned link: "
              "~%.0f cm/s and ~%.0f deg/s (paper: ~30 cm/s and 16-18 "
              "deg/s)\n",
              mixed.sustained_linear_mps * 100.0,
              util::rad_to_deg(mixed.sustained_angular_rps));
  std::printf("characterization: %.0f ms (best of %d)\n", characterize_ms,
              kTimingReps);
  bench::write_bench_json(
      "fig14",
      {{"sustained_linear_cm_s", mixed.sustained_linear_mps * 100.0},
       {"sustained_angular_deg_s",
        util::rad_to_deg(mixed.sustained_angular_rps)},
       {"characterize_ms", characterize_ms},
       {"timing_reps", static_cast<double>(kTimingReps)}});
  return 0;
}
