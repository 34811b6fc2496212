// Reproduces the §4.3 convergence claims:
//   * the G' iteration converges in 2-4 iterations;
//   * the pointing mechanism P converges in 2-5 iterations.
#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"
#include "core/gprime.hpp"
#include "core/pointing.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

using namespace cyclops;

int main() {
  std::printf("== §4.3 convergence: G' and P iteration counts ==\n\n");

  // The calibration behind the solver is the hot path here (LM Jacobians +
  // exhaustive-aligner sweeps); time it serial vs pooled.
  const runtime::Context ctx = runtime::Context::isolated({.threads = 0});
  bench::Timer timer;
  double serial_ms = 0.0;
  {
    util::ThreadPool::SerialScope force_serial;
    const bench::CalibratedRig serial_rig =
        bench::make_calibrated_rig(42, sim::prototype_10g_config(), ctx);
    serial_ms = timer.elapsed_ms();
    (void)serial_rig;
  }
  timer.reset();
  bench::CalibratedRig rig =
      bench::make_calibrated_rig(42, sim::prototype_10g_config(), ctx);
  const double parallel_ms = timer.elapsed_ms();
  bench::write_bench_json(
      "conv_pointing",
      {{"serial_ms", serial_ms},
       {"parallel_ms", parallel_ms},
       {"speedup", serial_ms / parallel_ms},
       {"serial_threads", 1.0},
       {"parallel_threads",
        static_cast<double>(ctx.pool().thread_count())}});

  const core::PointingSolver solver = rig.calib.make_pointing_solver({}, ctx);

  // --- G' over random targets in the coverage cone. ---
  util::Rng rng(5);
  util::RunningStats gprime_iters;
  const core::GPrimeSolver gprime({}, ctx);
  const core::GmaModel& tx = solver.tx_vr();
  for (int i = 0; i < 500; ++i) {
    const auto boresight = tx.trace(0.0, 0.0);
    const geom::Vec3 target = boresight->at(rng.uniform(1.2, 2.2)) +
                              geom::Vec3{rng.uniform(-0.3, 0.3),
                                         rng.uniform(-0.3, 0.3),
                                         rng.uniform(-0.1, 0.1)};
    const core::GPrimeResult r = gprime.solve(tx, target);
    if (r.converged) gprime_iters.add(r.iterations);
  }
  std::printf("G' iterations: mean %.2f, min %.0f, max %.0f over %zu targets "
              "(paper: 2-4)\n",
              gprime_iters.mean(), gprime_iters.min(), gprime_iters.max(),
              gprime_iters.count());

  // --- P over random rig poses, cold and warm started. ---
  util::RunningStats p_cold, p_warm;
  sim::Voltages last{};
  for (int i = 0; i < 200; ++i) {
    const geom::Pose pose = core::random_rig_pose(
        rig.proto.nominal_rig_pose, 0.15, 0.10, rng);
    rig.proto.scene.set_rig_pose(pose);
    const geom::Pose psi = rig.proto.tracker.report(0, pose).pose;
    const core::PointingResult cold = solver.solve(psi, {});
    if (cold.converged) p_cold.add(cold.iterations);
    const core::PointingResult warm = solver.solve(psi, last);
    if (warm.converged) {
      p_warm.add(warm.iterations);
      last = warm.voltages;
    }
  }
  std::printf("P iterations (cold start): mean %.2f, min %.0f, max %.0f "
              "(paper: 2-5)\n",
              p_cold.mean(), p_cold.min(), p_cold.max());
  std::printf("P iterations (warm start): mean %.2f, min %.0f, max %.0f\n",
              p_warm.mean(), p_warm.min(), p_warm.max());
  return 0;
}
