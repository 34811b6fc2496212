// Baseline: traditional probe-based TP (FSONet-style dither-and-climb)
// vs Cyclops's learned pointing, on identical motion.
//
// §3's core claim: probe-based TP is "challenging and likely even
// infeasible" here, because (i) every probe observation costs a real
// DAQ/settle cycle (~1.8 ms) while the rig keeps moving, and (ii) the
// four voltages must be optimized jointly.  One maintenance round = 8
// probes ≈ 14.4 ms — about one VRH-T period — during which a
// 10 deg/s rotation moves the rig by ~2.5 mrad, half the RX tolerance.
#include <cstdio>

#include "bench_common.hpp"
#include "core/probe_tracker.hpp"
#include "util/units.hpp"

using namespace cyclops;

namespace {

/// Fraction of time the link would carry traffic (power >= sensitivity)
/// under probe-based TP, for a given angular stroke speed.
double probe_up_fraction(bench::CalibratedRig& rig, double angular_rps,
                         const runtime::Context& ctx) {
  const motion::AngularStrokeMotion profile(
      rig.proto.nominal_rig_pose, {0, 1, 0}, util::deg_to_rad(12.0),
      {angular_rps});
  const double sensitivity = rig.proto.scene.config().sfp.rx_sensitivity_dbm;

  // Start aligned (same protocol as the learned-TP runs).
  const core::ExhaustiveAligner aligner({}, ctx.pool());
  rig.proto.scene.set_rig_pose(profile.pose_at(0));
  sim::Voltages v = aligner.align(rig.proto.scene, {}).voltages;

  const core::ProbeTracker tracker(core::ProbeTpConfig{});
  util::SimTimeUs now = 0;
  const auto duration = util::us_from_s(profile.duration_s());
  int up = 0, total = 0;

  while (now < duration) {
    // One maintenance round: the rig moves between probes.
    const auto observe = [&](const sim::Voltages& probe) {
      now += tracker.config().probe_interval;
      rig.proto.scene.set_rig_pose(profile.pose_at(now));
      return rig.proto.scene.received_power_dbm(probe);
    };
    v = tracker.round(v, observe);
    // Check service at the end of the round.
    rig.proto.scene.set_rig_pose(profile.pose_at(now));
    ++total;
    if (rig.proto.scene.received_power_dbm(v) >= sensitivity) ++up;
  }
  rig.proto.scene.set_rig_pose(rig.proto.nominal_rig_pose);
  return total > 0 ? static_cast<double>(up) / total : 0.0;
}

double learned_up_fraction(bench::CalibratedRig& rig, double angular_rps,
                           const runtime::Context& ctx) {
  core::TpController controller(rig.calib.make_pointing_solver({}, ctx),
                                core::TpConfig{});
  const motion::AngularStrokeMotion profile(
      rig.proto.nominal_rig_pose, {0, 1, 0}, util::deg_to_rad(12.0),
      {angular_rps});
  return link::run_link_simulation(rig.proto, controller, profile, ctx)
      .total_up_fraction;
}

}  // namespace

int main() {
  std::printf("== Baseline: probe-based TP (FSONet-style) vs Cyclops's "
              "learned TP ==\n\n");
  std::printf("one probe round = %d observations x %.1f ms = %.1f ms\n\n",
              core::ProbeTracker::kProbesPerRound,
              core::ProbeTpConfig{}.probe_interval / 1000.0,
              core::ProbeTracker(core::ProbeTpConfig{}).round_duration() /
                  1000.0);

  const runtime::Context ctx = runtime::Context::isolated({.threads = 0});
  bench::CalibratedRig rig =
      bench::make_calibrated_rig(42, sim::prototype_10g_config(), ctx);

  std::printf("angular_speed_deg_s, probe_tp_up_fraction, "
              "learned_tp_up_fraction\n");
  for (double w : {1.0, 2.0, 4.0, 8.0, 12.0, 16.0}) {
    const double probe = probe_up_fraction(rig, util::deg_to_rad(w), ctx);
    const double learned = learned_up_fraction(rig, util::deg_to_rad(w), ctx);
    std::printf("%.0f, %.2f, %.2f\n", w, probe, learned);
  }

  std::printf("\nexpectation: probe-based TP collapses well below the VRH "
              "requirement (19 deg/s) while the learned TP holds to "
              "~16-18 deg/s — §3's infeasibility argument, quantified.\n");
  return 0;
}
