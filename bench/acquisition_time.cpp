// Acquisition-time accounting, reproducing the paper's cost claims:
//
//  * footnote 3: "determining the (four) voltages that align the link
//    takes a few minutes of exhaustive search" — each search observation
//    costs a real DAQ write + settle + power read;
//  * §4.2: "the time taken (1-2 mins) by the search is tolerable" because
//    it happens ~30 times, once per Stage-2 sample;
//  * after calibration, P computes the aligning voltages in microseconds
//    and one DAQ cycle applies them — the whole reason to learn a model.
#include <cstdio>

#include "bench_common.hpp"
#include "core/exhaustive_aligner.hpp"
#include "core/pointing.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

using namespace cyclops;

int main() {
  std::printf("== Acquisition time: exhaustive search vs learned pointing "
              "==\n\n");

  // Each bench observation = DAQ conversion + GM settle + power read.
  const double per_observation_s = 1.8e-3;

  const runtime::Context ctx = runtime::Context::isolated({.threads = 0});
  bench::CalibratedRig rig =
      bench::make_calibrated_rig(42, sim::prototype_10g_config(), ctx);

  // Exhaustive alignment cost across random poses.
  const core::ExhaustiveAligner aligner({}, ctx.pool());
  util::Rng rng(5);
  util::RunningStats evals, seconds;
  for (int i = 0; i < 10; ++i) {
    const geom::Pose pose = core::random_rig_pose(
        rig.proto.nominal_rig_pose, 0.15, 0.10, rng);
    rig.proto.scene.set_rig_pose(pose);
    const core::AlignResult r = aligner.align(rig.proto.scene, {});
    if (!r.converged()) continue;
    evals.add(r.evaluations);
    seconds.add(r.evaluations * per_observation_s);
  }
  rig.proto.scene.set_rig_pose(rig.proto.nominal_rig_pose);
  std::printf("exhaustive search (cold): %.0f observations avg -> %.1f s "
              "per alignment on real hardware\n",
              evals.mean(), seconds.mean());
  std::printf("  (the paper's raster-style search: 1-2 min; ours uses a "
              "photodiode-guided sweep + simplex polish)\n");
  std::printf("stage-2 data collection: 30 samples x %.1f s ~ %.1f min of "
              "bench time, once per deployment\n\n",
              seconds.mean(), 30.0 * seconds.mean() / 60.0);

  // Learned pointing: one P solve + one DAQ application.
  const core::PointingSolver solver = rig.calib.make_pointing_solver({}, ctx);
  const geom::Pose psi =
      rig.proto.tracker.report(0, rig.proto.nominal_rig_pose).pose;
  const core::PointingResult p = solver.solve(psi, {});
  const core::TpConfig tp;
  std::printf("learned pointing: %d iterations, ~5 us compute + %.2f ms "
              "DAQ/settle = one realignment per tracker report\n",
              p.iterations, tp.pointing_latency_s() * 1e3);
  std::printf("speedup over exhaustive re-acquisition: ~%.0fx\n",
              seconds.mean() / tp.pointing_latency_s());
  std::printf("\nthis gap is the paper's core argument for learning P "
              "instead of searching per pose (footnote 3 / §4.2).\n");
  return 0;
}
