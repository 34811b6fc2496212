// Systems study: toward room-scale (walking) VR on Cyclops.
//
// Seated 360° viewing keeps heads under ~14 cm/s (Fig 3), squarely inside
// the prototype's envelope.  Walking VR does not: strolls hit ~0.5 m/s,
// beyond the react-only TP limit, and the head yaws across the TX cone.
// This bench stacks the repo's extensions to see how far they carry:
//
//   config A: the paper's system (one TX, react-only TP)
//   config B: + Kalman pose prediction
//   config C: + a second ceiling TX with handover (prediction on both)
//
// Calibration uses a wider Stage-2 box so the learned mapping covers the
// walk area.
#include <cstdio>

#include "bench_common.hpp"
#include "link/multi_tx.hpp"
#include "motion/trace_generator.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

using namespace cyclops;

namespace {

core::CalibrationConfig wide_calibration() {
  core::CalibrationConfig config;
  config.pose_position_extent = 0.60;  // span the walkable box
  config.pose_angle_extent = 0.12;
  config.stage2_samples = 40;          // more poses to cover more volume
  return config;
}

/// Aligned-window fraction of a single-TX run over the walking trace.
double single_tx_run(bool predict, const motion::Trace& trace,
                     const runtime::Context& ctx) {
  sim::Prototype proto = sim::make_prototype(42, sim::prototype_10g_config());
  util::Rng rng(7);
  const core::CalibrationResult calib =
      core::calibrate_prototype(proto, wide_calibration(), rng, ctx);
  core::TpConfig tp;
  tp.predict_pose = predict;
  core::TpController controller(calib.make_pointing_solver({}, ctx), tp);
  const motion::TraceMotion profile(trace);
  const link::RunResult run =
      link::run_link_simulation(proto, controller, profile, ctx);
  int aligned = 0;
  for (const auto& w : run.windows) {
    if (w.power_ok_fraction >= 0.95) ++aligned;
  }
  return run.windows.empty()
             ? 0.0
             : static_cast<double>(aligned) / run.windows.size();
}

}  // namespace

int main() {
  std::printf("== Room-scale study: walking VR over Cyclops ==\n\n");
  const runtime::Context ctx = runtime::Context::isolated({.threads = 0});

  // One walking trace shared by all configurations.  The walk box
  // (±0.6 m) deliberately exceeds a single GM cone's ~0.5 m coverage
  // radius at head height, so TX coverage binds as well as speed.
  util::Rng trace_rng(314);
  sim::Prototype reference =
      sim::make_prototype(42, sim::prototype_10g_config());
  motion::WalkingConfig walk;
  walk.area_half_extent = 0.60;
  const motion::Trace trace = motion::generate_walking_trace(
      reference.nominal_rig_pose, walk, trace_rng);
  const motion::TraceSpeeds speeds = motion::compute_speeds(trace);
  std::printf("walking trace: %.0f s; linear speed p50 %.0f cm/s, max "
              "%.0f cm/s; angular p50 %.0f deg/s, max %.0f deg/s\n\n",
              trace.duration_s(),
              util::percentile(speeds.linear_mps, 50.0) * 100.0,
              util::percentile(speeds.linear_mps, 100.0) * 100.0,
              util::rad_to_deg(util::percentile(speeds.angular_rps, 50.0)),
              util::rad_to_deg(util::percentile(speeds.angular_rps, 100.0)));

  const double react = single_tx_run(false, trace, ctx);
  std::printf("A. paper system (1 TX, react-only):      %.2f aligned "
              "windows\n",
              react);
  const double predicted = single_tx_run(true, trace, ctx);
  std::printf("B. + pose prediction:                    %.2f aligned "
              "windows\n",
              predicted);

  // C: two TXs with handover; both chains calibrated over the wide box.
  std::vector<link::TxChain> chains;
  {
    // Two TXs splitting the box left/right — each *aimed* at its own
    // half (the boresight targets rig_position), so the steering cones
    // tile the walk area instead of stacking on the center.
    sim::PrototypeConfig base = sim::prototype_10g_config();
    base.tx_position = {-0.45, 2.2, -0.2};
    base.rig_position = {-0.35, 0.8, 1.2};
    sim::PrototypeConfig second = sim::prototype_10g_config();
    second.tx_position = {0.45, 2.2, 0.2};
    second.rig_position = {0.35, 0.8, 1.2};
    sim::Prototype p0 = sim::make_prototype(42, base);
    sim::Prototype p1 = sim::make_prototype(43, second);
    util::Rng rng0(7), rng1(9);
    core::CalibrationResult c0 =
        core::calibrate_prototype(p0, wide_calibration(), rng0, ctx);
    core::CalibrationResult c1 =
        core::calibrate_prototype(p1, wide_calibration(), rng1, ctx);
    chains.emplace_back(std::move(p0), std::move(c0), ctx);
    chains.emplace_back(std::move(p1), std::move(c1), ctx);
  }
  const motion::TraceMotion profile(trace);
  link::MultiTxConfig mt;
  mt.handover.switch_delay_s = 0.1;
  mt.tp.predict_pose = true;
  const link::MultiTxResult multi =
      link::run_multi_tx_session(chains, profile, mt, nullptr,
                                 runtime::Context::isolated());
  std::printf("C. + second TX with handover:            %.2f served slots "
              "(%d switches; best single TX %.2f)\n",
              multi.served_fraction, multi.switches,
              multi.best_single_tx_fraction);

  std::printf("\nreading: walking exceeds the react-only envelope; "
              "prediction recovers most of it, and a second TX covers the "
              "yaw/coverage gaps — the §6 commercialization path, "
              "composed.\n");
  return 0;
}
