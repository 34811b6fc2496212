// Walkthrough of Cyclops's two-stage learning pipeline (§4) with the
// intermediate numbers printed at each step:
//
//   Stage 1 (pre-deployment): learn each GMA's 25 physical parameters on
//   the grid-board rig from ~266 (x, y, v1, v2) samples.
//   Stage 2 (at deployment): learn the 12 mapping parameters from ~30
//   exhaustively-aligned 5-tuples using the Lemma-1 coincidence error.
//   Then: invert G computationally (G') and point in real time (P).
#include <cstdio>

#include "core/calibration.hpp"
#include "core/evaluation.hpp"
#include "core/gprime.hpp"
#include "util/units.hpp"

using namespace cyclops;

int main() {
  std::printf("== Cyclops calibration walkthrough ==\n\n");

  sim::Prototype proto = sim::make_prototype(7, sim::prototype_10g_config());
  util::Rng rng(11);
  const runtime::Context ctx = runtime::Context::isolated({.threads = 0});

  // ---- Stage 1, by hand, for the TX GMA ----
  std::printf("[stage 1] collecting board samples for the TX GMA...\n");
  const galvo::GalvoMirror tx_galvo(proto.tx_galvo_truth,
                                    galvo::gvs102_spec());
  const auto samples = core::collect_board_samples(
      tx_galvo, proto.k_from_tx_gma, core::BoardConfig{}, rng, ctx);
  std::printf("  %zu samples (19 x 14 interior grid points)\n",
              samples.size());
  std::printf("  example tuple: x=%.3f m, y=%.3f m -> v1=%.3f V, v2=%.3f V\n",
              samples[0].x, samples[0].y, samples[0].v1, samples[0].v2);

  const core::GmaModel guess =
      core::nominal_kspace_guess(proto.config.board_distance);
  double guess_error = 0.0;
  for (const auto& s : samples) guess_error += core::board_error(guess, s);
  std::printf("  CAD initial guess board error: %.2f mm avg\n",
              util::m_to_mm(guess_error / samples.size()));

  const core::KSpaceFitReport tx_fit =
      core::fit_kspace_model(samples, guess, {}, ctx);
  std::printf("  after Levenberg-Marquardt (%d iterations): %.2f mm avg, "
              "%.2f mm max\n\n",
              tx_fit.optimizer_iterations, util::m_to_mm(tx_fit.avg_error_m),
              util::m_to_mm(tx_fit.max_error_m));

  // ---- Full pipeline (stage 1 for both + stage 2) ----
  std::printf("[stage 2] full pipeline: exhaustive alignment at ~30 rig "
              "poses + joint 12-parameter fit...\n");
  core::CalibrationConfig config;
  const core::CalibrationResult calib =
      core::calibrate_prototype(proto, config, rng, ctx);
  std::printf("  collected %zu aligned 5-tuples\n",
              calib.stage2_samples.size());
  std::printf("  Lemma-1 coincidence after fit: %.2f mm avg, %.2f mm max\n",
              util::m_to_mm(calib.mapping.avg_coincidence_m),
              util::m_to_mm(calib.mapping.max_coincidence_m));
  std::printf("  learned TX mapping vs hidden truth: %.2f mm / %.2f mrad "
              "off\n",
              util::m_to_mm(geom::translation_distance(
                  calib.mapping.map_tx, proto.true_map_tx)),
              util::rad_to_mrad(geom::rotation_distance(
                  calib.mapping.map_tx, proto.true_map_tx)));

  // ---- G' inversion, purely computational ----
  const core::PointingSolver solver = calib.make_pointing_solver({}, ctx);
  const auto boresight = solver.tx_vr().trace(0.0, 0.0);
  const geom::Vec3 target = boresight->at(1.7);
  const core::GPrimeResult gp =
      core::GPrimeSolver({}, ctx).solve(solver.tx_vr(), target);
  std::printf("\n[G'] aim the TX beam through a target point: converged in "
              "%d iterations, miss %.4f mm\n",
              gp.iterations, util::m_to_mm(gp.miss_distance));

  // ---- P, end to end ----
  const geom::Pose psi = proto.tracker.report(0, proto.nominal_rig_pose).pose;
  const core::PointingResult p = solver.solve(psi, {});
  const double power = proto.scene.received_power_dbm(p.voltages);
  std::printf("[P]  pointing from a VRH report: %d iterations -> voltages "
              "(%.2f, %.2f, %.2f, %.2f) V -> received power %.1f dBm\n",
              p.iterations, p.voltages.tx1, p.voltages.tx2, p.voltages.rx1,
              p.voltages.rx2, power);
  std::printf("     (SFP sensitivity %.0f dBm: link %s)\n",
              proto.scene.config().sfp.rx_sensitivity_dbm,
              power >= proto.scene.config().sfp.rx_sensitivity_dbm
                  ? "UP"
                  : "DOWN");
  return 0;
}
