// Reproduces Fig 13: 10G throughput and received power for purely linear
// and purely angular motions (rail / rotation-stage strokes of gradually
// increasing speed, 50 ms iperf windows).
//
// Paper anchors: optimal 9.4 Gbps up to ~33 cm/s linear (observed up to
// 39 cm/s) and ~16-18 deg/s angular (up to ~19 deg/s); received power
// stays above -25..-30 dBm inside those bounds.
//
// This bench also doubles as the closed-loop equivalence gate: every
// sweep runs on the production loop (link::run_link_simulation) AND on
// the test-only fixed-step oracle (tests/oracle, on an identically seeded
// twin rig), the two outputs must be bitwise equal (exit 1 otherwise),
// and both timings land in BENCH_fig13.json.  Timings are best-of-2 (the
// fig16 protocol: the min discards one-off scheduler hiccups so the ratio
// is stable against single-shot noise); both twin rigs run every rep so
// their consumed-randomness streams stay in lockstep.
#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "bench_common.hpp"
#include "fixed_step.hpp"
#include "util/units.hpp"

using namespace cyclops;

namespace {

constexpr int kTimingReps = 2;

/// Bitwise comparison (== on doubles; the claim is exact equality, not
/// tolerance) — aborts the bench on the first mismatch.
void require_identical(const std::vector<bench::SpeedSweepRow>& loop_rows,
                       const std::vector<bench::SpeedSweepRow>& oracle_rows,
                       const char* what) {
  bool ok = loop_rows.size() == oracle_rows.size();
  for (std::size_t i = 0; ok && i < loop_rows.size(); ++i) {
    const auto& a = loop_rows[i];
    const auto& b = oracle_rows[i];
    ok = a.speed == b.speed && a.throughput_gbps == b.throughput_gbps &&
         a.power_dbm == b.power_dbm && a.up_fraction == b.up_fraction;
  }
  if (!ok) {
    std::printf("LOOP MISMATCH in %s sweep: run_link_simulation output is "
                "not bitwise equal to the fixed-step oracle\n",
                what);
    std::exit(1);
  }
}

}  // namespace

int main() {
  std::printf("== Fig 13: 10G throughput/power vs linear and angular speed "
              "==\n\n");

  // Twin rigs: both loops consume tracker randomness, so each gets its
  // own identically seeded prototype (cf. tests/session_core_test).
  bench::CalibratedRig rig =
      bench::make_calibrated_rig(42, sim::prototype_10g_config());
  bench::CalibratedRig oracle_rig =
      bench::make_calibrated_rig(42, sim::prototype_10g_config());
  const double goodput = rig.proto.scene.config().sfp.goodput_gbps;

  std::vector<double> linear_speeds;
  for (double v = 0.05; v <= 0.90 + 1e-9; v += 0.05) linear_speeds.push_back(v);
  std::vector<double> angular_speeds;
  for (double w = 4.0; w <= 40.0 + 1e-9; w += 4.0) {
    angular_speeds.push_back(util::deg_to_rad(w));
  }

  // Best-of-2 over full (linear + angular) passes.  Each rep runs the
  // production loop AND the fixed-step oracle on their respective rigs,
  // so the twins see identical stroke sequences and stay comparable; the
  // reported rows are rep 0's (every rep is checked bitwise-equal
  // regardless).
  std::vector<bench::SpeedSweepRow> linear_rows, angular_rows;
  double loop_ms = 0.0, oracle_ms = 0.0;
  for (int rep = 0; rep < kTimingReps; ++rep) {
    bench::Timer timer;
    auto rep_linear = bench::stroke_speed_sweep(
        rig, bench::StrokeKind::kLinear, linear_speeds);
    double rep_loop_ms = timer.elapsed_ms();
    timer.reset();
    const auto linear_oracle = bench::stroke_speed_sweep(
        oracle_rig, bench::StrokeKind::kLinear, linear_speeds,
        oracle::run_link_simulation_fixed_step);
    double rep_oracle_ms = timer.elapsed_ms();
    require_identical(rep_linear, linear_oracle, "linear");

    timer.reset();
    auto rep_angular = bench::stroke_speed_sweep(
        rig, bench::StrokeKind::kAngular, angular_speeds);
    rep_loop_ms += timer.elapsed_ms();
    timer.reset();
    const auto angular_oracle = bench::stroke_speed_sweep(
        oracle_rig, bench::StrokeKind::kAngular, angular_speeds,
        oracle::run_link_simulation_fixed_step);
    rep_oracle_ms += timer.elapsed_ms();
    require_identical(rep_angular, angular_oracle, "angular");

    if (rep == 0) {
      linear_rows = std::move(rep_linear);
      angular_rows = std::move(rep_angular);
      loop_ms = rep_loop_ms;
      oracle_ms = rep_oracle_ms;
    } else {
      loop_ms = std::min(loop_ms, rep_loop_ms);
      oracle_ms = std::min(oracle_ms, rep_oracle_ms);
    }
  }

  std::printf("linear_speed_cm_s, throughput_gbps, power_dbm\n");
  for (const auto& row : linear_rows) {
    std::printf("%.0f, %.2f, %.1f\n", row.speed * 100.0, row.throughput_gbps,
                row.power_dbm);
  }
  const double max_linear = bench::max_optimal_speed(linear_rows, goodput);
  std::printf("max linear speed with optimal throughput: %.0f cm/s "
              "(paper: ~33-39 cm/s)\n\n",
              max_linear * 100.0);

  std::printf("angular_speed_deg_s, throughput_gbps, power_dbm\n");
  for (const auto& row : angular_rows) {
    std::printf("%.0f, %.2f, %.1f\n", util::rad_to_deg(row.speed),
                row.throughput_gbps, row.power_dbm);
  }
  const double max_angular = bench::max_optimal_speed(angular_rows, goodput);
  std::printf("max angular speed with optimal throughput: %.0f deg/s "
              "(paper: ~16-19 deg/s)\n\n",
              util::rad_to_deg(max_angular));

  std::printf("loop and oracle bitwise equal; production loop %.0f ms vs "
              "fixed-step oracle %.0f ms (best of %d, oracle/loop %.2fx)\n",
              loop_ms, oracle_ms, kTimingReps, oracle_ms / loop_ms);
  bench::write_bench_json(
      "fig13", {{"max_linear_cm_s", max_linear * 100.0},
                {"max_angular_deg_s", util::rad_to_deg(max_angular)},
                {"production_loop_ms", loop_ms},
                {"fixed_step_oracle_ms", oracle_ms},
                {"oracle_over_loop_time", oracle_ms / loop_ms},
                {"timing_reps", static_cast<double>(kTimingReps)}});
  return 0;
}
