// Ablation: does the voltage-dependent beam origin ("distortion" [58])
// actually matter?
//
// The paper (§4.1, footnote 6) insists the output origin p must be
// modeled as a function of the voltages, unlike earlier FSO systems
// [32, 33] that treat it as constant.  This bench freezes p at its
// zero-voltage value inside the pointing solver and measures what that
// costs in physical alignment, across increasing rig excursions from the
// nominal pose (larger excursions -> larger GM deflections -> more
// origin travel).
#include <cstdio>

#include "bench_common.hpp"
#include "core/pointing.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

using namespace cyclops;

int main() {
  std::printf("== Ablation: constant-origin (no-distortion) pointing vs "
              "the full model ==\n\n");

  const runtime::Context ctx = runtime::Context::isolated({.threads = 0});
  bench::CalibratedRig rig =
      bench::make_calibrated_rig(42, sim::prototype_10g_config(), ctx);
  const core::PointingSolver full = rig.calib.make_pointing_solver({}, ctx);
  const core::PointingSolver frozen(
      rig.calib.tx_stage1.model.with_frozen_origin(),
      rig.calib.rx_stage1.model.with_frozen_origin(), rig.calib.mapping.map_tx,
      rig.calib.mapping.map_rx, core::PointingOptions{}, ctx);

  std::printf("excursion_cm, full_power_dbm, frozen_power_dbm, "
              "full_err_mrad, frozen_err_mrad\n");
  util::Rng rng(9);
  for (double excursion = 0.05; excursion <= 0.30 + 1e-9; excursion += 0.05) {
    util::RunningStats full_power, frozen_power, full_err, frozen_err;
    for (int i = 0; i < 25; ++i) {
      const geom::Pose pose = core::random_rig_pose(
          rig.proto.nominal_rig_pose, excursion, excursion * 0.6, rng);
      rig.proto.scene.set_rig_pose(pose);
      const geom::Pose psi = rig.proto.tracker.report(0, pose).pose;

      const core::PointingResult a = full.solve(psi, {});
      const core::PointingResult b = frozen.solve(psi, {});
      if (!a.converged || !b.converged) continue;
      full_power.add(rig.proto.scene.received_power_dbm(a.voltages));
      frozen_power.add(rig.proto.scene.received_power_dbm(b.voltages));
      full_err.add(util::rad_to_mrad(rig.proto.scene.observe(a.voltages).psi));
      frozen_err.add(
          util::rad_to_mrad(rig.proto.scene.observe(b.voltages).psi));
    }
    std::printf("%.0f, %.1f, %.1f, %.2f, %.2f\n", excursion * 100.0,
                full_power.mean(), frozen_power.mean(), full_err.mean(),
                frozen_err.mean());
  }
  rig.proto.scene.set_rig_pose(rig.proto.nominal_rig_pose);

  std::printf("\nexpectation: the frozen-origin model loses power and "
              "accuracy as excursions grow — the paper's case for modeling "
              "the distortion.\n");
  return 0;
}
