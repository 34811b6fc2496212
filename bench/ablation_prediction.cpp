// Extension ablation: pose prediction vs the paper's react-only TP.
//
// §5.2's speed wall is (tracking period + pointing latency + position
// lag) x speed.  A constant-velocity Kalman predictor aims the beam at
// where the headset *will* be when the voltages land, buying back most of
// that wall with zero new hardware — complementary to the paper's
// "faster VRH-T" suggestion.
#include <cstdio>

#include "bench_common.hpp"
#include "util/units.hpp"

using namespace cyclops;

namespace {

double max_speed(bench::CalibratedRig& rig, bench::StrokeKind kind,
                 bool predict, const runtime::Context& ctx) {
  // Temporarily switch the controller config via a local sweep.
  std::vector<double> speeds;
  if (kind == bench::StrokeKind::kLinear) {
    for (double v = 0.10; v <= 1.50 + 1e-9; v += 0.10) speeds.push_back(v);
  } else {
    for (double w = 5.0; w <= 80.0 + 1e-9; w += 5.0) {
      speeds.push_back(util::deg_to_rad(w));
    }
  }

  double best = 0.0;
  for (double speed : speeds) {
    core::TpConfig config;
    config.predict_pose = predict;
    core::TpController controller(rig.calib.make_pointing_solver({}, ctx),
                                  config);
    std::unique_ptr<motion::MotionProfile> profile;
    if (kind == bench::StrokeKind::kLinear) {
      profile = std::make_unique<motion::LinearStrokeMotion>(
          rig.proto.nominal_rig_pose, geom::Vec3{1, 0, 0}, 0.12,
          std::vector<double>{speed});
    } else {
      profile = std::make_unique<motion::AngularStrokeMotion>(
          rig.proto.nominal_rig_pose, geom::Vec3{0, 1, 0},
          util::deg_to_rad(12.0), std::vector<double>{speed});
    }
    const link::RunResult run =
        link::run_link_simulation(rig.proto, controller, *profile, ctx);
    if (run.total_up_fraction > 0.98) best = speed;
  }
  return best;
}

}  // namespace

int main() {
  std::printf("== Extension: Kalman pose prediction vs react-only TP "
              "(10G) ==\n\n");

  const runtime::Context ctx = runtime::Context::isolated({.threads = 0});
  bench::CalibratedRig rig =
      bench::make_calibrated_rig(42, sim::prototype_10g_config(), ctx);

  const double lin_react =
      max_speed(rig, bench::StrokeKind::kLinear, false, ctx) * 100.0;
  const double lin_pred =
      max_speed(rig, bench::StrokeKind::kLinear, true, ctx) * 100.0;
  const double ang_react =
      util::rad_to_deg(max_speed(rig, bench::StrokeKind::kAngular, false, ctx));
  const double ang_pred =
      util::rad_to_deg(max_speed(rig, bench::StrokeKind::kAngular, true, ctx));

  std::printf("stroke tests (hard reversals — worst case for prediction):\n");
  std::printf("mode, max_linear_cm_s, max_angular_deg_s\n");
  std::printf("react-only (paper), %.0f, %.0f\n", lin_react, ang_react);
  std::printf("with prediction,    %.0f, %.0f\n", lin_pred, ang_pred);
  std::printf("(reversals make the velocity estimate momentarily stale, so "
              "stroke gains are modest: %.1fx / %.1fx)\n\n",
              lin_pred / std::max(lin_react, 1.0),
              ang_pred / std::max(ang_react, 1.0));

  // Smooth hand-held motion — the realistic regime, no hard reversals.
  std::printf("smooth mixed motion (caps 50 cm/s, 35 deg/s), link-up "
              "fraction:\n");
  for (const bool predict : {false, true}) {
    core::TpConfig config;
    config.predict_pose = predict;
    core::TpController controller(rig.calib.make_pointing_solver({}, ctx),
                                  config);
    motion::MixedRandomMotion::Config mc;
    mc.duration_s = 60.0;
    mc.max_linear_speed = 0.50;
    mc.max_angular_speed = util::deg_to_rad(35.0);
    mc.linear_speed_sigma = 0.25;
    mc.angular_speed_sigma = util::deg_to_rad(18.0);
    const motion::MixedRandomMotion profile(rig.proto.nominal_rig_pose, mc,
                                            util::Rng(33));
    link::SimOptions options;
    const link::RunResult run =
        link::run_link_simulation(rig.proto, controller, profile, ctx, options);
    // Count aligned windows (sensitivity-met), reacquisition-independent.
    int aligned = 0;
    for (const auto& w : run.windows) {
      if (w.power_ok_fraction >= 0.95) ++aligned;
    }
    std::printf("  %s: %.2f aligned-window fraction\n",
                predict ? "with prediction   " : "react-only (paper)",
                static_cast<double>(aligned) /
                    std::max<std::size_t>(run.windows.size(), 1));
  }
  std::printf("\nprediction is a software alternative to the paper's "
              "faster-VRH-T suggestion; it helps most on smooth motion and "
              "least at motion reversals.\n");
  return 0;
}
