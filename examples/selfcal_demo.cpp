// Self-calibrating install: deploy Cyclops with zero manual measurement.
//
// The paper's Stage 2 seeds its optimizer from a hand-measured guess of
// the deployment geometry.  This demo flips on `blind_stage2`: the 12
// mapping parameters are recovered from the ~30 aligned tuples alone
// (multi-start SO(3) search anchored by the fact that an aligned beam
// passes through the headset), then verified by pointing the link.
#include <cstdio>

#include "core/calibration.hpp"
#include "util/units.hpp"

using namespace cyclops;

int main() {
  std::printf("== Self-calibrating install (no manual measurement) ==\n\n");

  sim::Prototype proto = sim::make_prototype(42, sim::prototype_10g_config());
  util::Rng rng(7);
  const runtime::Context ctx = runtime::Context::isolated({.threads = 0});

  core::CalibrationConfig config;
  config.blind_stage2 = true;  // ignore all deployment knowledge
  const core::CalibrationResult calib =
      core::calibrate_prototype(proto, config, rng, ctx);

  std::printf("stage 1: TX %.2f mm avg, RX %.2f mm avg board error\n",
              util::m_to_mm(calib.tx_stage1.avg_error_m),
              util::m_to_mm(calib.rx_stage1.avg_error_m));
  std::printf("blind stage 2: Lemma-1 residual %.2f mm avg over %zu "
              "tuples\n",
              util::m_to_mm(calib.mapping.avg_coincidence_m),
              calib.stage2_samples.size());
  std::printf("recovered TX mapping vs hidden truth: %.1f mm / %.1f mrad "
              "off\n\n",
              util::m_to_mm(geom::translation_distance(
                  calib.mapping.map_tx, proto.true_map_tx)),
              util::rad_to_mrad(geom::rotation_distance(
                  calib.mapping.map_tx, proto.true_map_tx)));

  // Proof: point the link from a fresh tracker report.
  const core::PointingSolver solver = calib.make_pointing_solver({}, ctx);
  const geom::Pose psi =
      proto.tracker.report(0, proto.nominal_rig_pose).pose;
  const core::PointingResult p = solver.solve(psi, {});
  const double power = proto.scene.received_power_dbm(p.voltages);
  std::printf("pointing from a fresh report: %.1f dBm (sensitivity %.0f) "
              "-> link %s\n",
              power, proto.scene.config().sfp.rx_sensitivity_dbm,
              power >= proto.scene.config().sfp.rx_sensitivity_dbm ? "UP"
                                                                   : "DOWN");
  return 0;
}
