// Quickstart: build a 10G Cyclops prototype, calibrate it, and stream
// over a moving link.
//
//   1. make_prototype() assembles the simulated hardware (galvos, optics,
//      VRH tracker) with hidden ground truth.
//   2. calibrate_prototype() runs the paper's two learning stages.
//   3. run_link_simulation() closes the loop over a hand-held motion
//      profile and reports throughput.
// Every step runs on one runtime::Context the program owns: its pool for
// the searches and fits, its registry for their telemetry.
#include <cstdio>

#include "core/calibration.hpp"
#include "core/evaluation.hpp"
#include "link/fso_link.hpp"
#include "motion/profile.hpp"
#include "runtime/context.hpp"
#include "util/units.hpp"

using namespace cyclops;

int main() {
  std::printf("== Cyclops quickstart (10G diverging-beam link) ==\n\n");

  // 1. Hardware, and the context everything below runs on (a pool as wide
  //    as CYCLOPS_THREADS, plus a private metrics registry).
  sim::Prototype proto = sim::make_prototype(42, sim::prototype_10g_config());
  util::Rng rng(7);
  const runtime::Context ctx = runtime::Context::isolated({.threads = 0});

  // Sanity: what does a perfectly aligned link deliver?
  const core::ExhaustiveAligner aligner({}, ctx.pool());
  const core::AlignResult aligned = aligner.align(proto.scene, {});
  std::printf("exhaustive alignment: peak received power %.1f dBm "
              "(sensitivity %.0f dBm)\n",
              aligned.power_dbm, proto.scene.config().sfp.rx_sensitivity_dbm);

  // 2. Calibration (Stage 1 on the board rig, Stage 2 in place).
  core::CalibrationConfig calib_config;
  const core::CalibrationResult calib =
      core::calibrate_prototype(proto, calib_config, rng, ctx);
  std::printf("stage 1: TX board error %.2f mm avg, RX %.2f mm avg\n",
              util::m_to_mm(calib.tx_stage1.avg_error_m),
              util::m_to_mm(calib.rx_stage1.avg_error_m));
  std::printf("stage 2: mean Lemma-1 coincidence %.2f mm over %zu samples\n\n",
              util::m_to_mm(calib.mapping.avg_coincidence_m),
              calib.stage2_samples.size());

  // 3. Stream over hand-held motion.
  core::TpController controller(calib.make_pointing_solver({}, ctx),
                                core::TpConfig{});
  motion::MixedRandomMotion::Config motion_config;
  motion_config.duration_s = 10.0;
  motion_config.max_linear_speed = 0.25;
  motion_config.max_angular_speed = util::deg_to_rad(15.0);
  motion::MixedRandomMotion profile(proto.nominal_rig_pose, motion_config,
                                    util::Rng(99));

  const link::RunResult run =
      link::run_link_simulation(proto, controller, profile, ctx);
  std::printf("10 s hand-held stream: link up %.1f%% of slots, "
              "%d realignments, avg P iterations %.1f\n",
              100.0 * run.total_up_fraction, run.realignments,
              run.avg_pointing_iterations);
  double sum = 0.0;
  for (const auto& w : run.windows) sum += w.throughput_gbps;
  std::printf("mean window throughput: %.2f Gbps (optimal %.1f)\n",
              run.windows.empty() ? 0.0 : sum / run.windows.size(),
              proto.scene.config().sfp.goodput_gbps);
  return 0;
}
