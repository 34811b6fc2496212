// Ablation: tracking frequency vs tolerated movement speed.
//
// §5.2's conclusion: "a custom VRH-T with much higher tracking frequency
// will improve Cyclops's performance significantly."  This bench sweeps
// the tracker report period and measures the maximum angular stroke speed
// that keeps throughput optimal on the 10G prototype.
#include <cstdio>

#include "bench_common.hpp"
#include "util/units.hpp"

using namespace cyclops;

int main() {
  std::printf("== Ablation: tracker report period vs tolerated angular "
              "speed (10G) ==\n\n");
  std::printf("period_ms, max_angular_deg_s, max_linear_cm_s\n");
  const runtime::Context ctx = runtime::Context::isolated({.threads = 0});

  for (double period_ms : {2.0, 4.0, 8.0, 12.5, 20.0, 30.0}) {
    sim::PrototypeConfig config = sim::prototype_10g_config();
    config.tracker.period_ms = period_ms;
    config.tracker.period_jitter_ms = std::min(0.5, period_ms * 0.04);
    // A faster tracker implies a fresher fused position too.
    config.tracker.position_lag_ms = std::min(8.0, period_ms * 0.64);
    bench::CalibratedRig rig = bench::make_calibrated_rig(42, config, ctx);

    std::vector<double> ang;
    for (double w = 4.0; w <= 80.0 + 1e-9; w += 4.0) {
      ang.push_back(util::deg_to_rad(w));
    }
    const double max_ang = util::rad_to_deg(bench::max_optimal_speed(
        bench::stroke_speed_sweep(rig, bench::StrokeKind::kAngular, ang, ctx),
        rig.proto.scene.config().sfp.goodput_gbps));

    std::vector<double> lin;
    for (double v = 0.10; v <= 1.50 + 1e-9; v += 0.10) lin.push_back(v);
    const double max_lin =
        bench::max_optimal_speed(
            bench::stroke_speed_sweep(rig, bench::StrokeKind::kLinear, lin,
                                      ctx),
            rig.proto.scene.config().sfp.goodput_gbps) *
        100.0;

    std::printf("%.1f, %.0f, %.0f\n", period_ms, max_ang, max_lin);
  }

  std::printf("\nexpectation: tolerated speeds scale roughly inversely "
              "with the report period — the paper's case for a faster "
              "VRH-T.\n");
  return 0;
}
