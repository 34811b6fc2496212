// Hot-path microbenchmarks (google-benchmark): the cost of one G
// evaluation, one G' inversion, one full P solve, one physical scene
// trace, and one TP controller step.  Supports the §5.2 claim that the P
// computation is "minimal (in microseconds)" next to the 1-2 ms DAQ
// latency.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "core/gprime.hpp"
#include "core/pointing.hpp"
#include "core/tp_controller.hpp"

using namespace cyclops;

namespace {

/// The benchmarks' context: calibrates the rig and collects the solvers'
/// telemetry.
const runtime::Context& ctx() {
  static const runtime::Context instance =
      runtime::Context::isolated({.threads = 0});
  return instance;
}

bench::CalibratedRig& rig() {
  static bench::CalibratedRig instance =
      bench::make_calibrated_rig(42, sim::prototype_10g_config(), ctx());
  return instance;
}

void BM_GmaModelTrace(benchmark::State& state) {
  const core::GmaModel& model = rig().calib.tx_stage1.model;
  double v = 0.0;
  for (auto _ : state) {
    v += 1e-4;
    benchmark::DoNotOptimize(model.trace(v, -v));
  }
}
BENCHMARK(BM_GmaModelTrace);

void BM_GPrimeSolve(benchmark::State& state) {
  const core::PointingSolver solver =
      rig().calib.make_pointing_solver({}, ctx());
  const core::GmaModel& tx = solver.tx_vr();
  const core::GPrimeSolver gprime({}, ctx());
  const auto boresight = tx.trace(0.0, 0.0);
  const geom::Vec3 target = boresight->at(1.7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gprime.solve(tx, target));
  }
}
BENCHMARK(BM_GPrimeSolve);

void BM_PointingSolve(benchmark::State& state) {
  const core::PointingSolver solver =
      rig().calib.make_pointing_solver({}, ctx());
  const geom::Pose psi =
      rig().proto.tracker.ideal_report(rig().proto.nominal_rig_pose);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(psi, {}));
  }
}
BENCHMARK(BM_PointingSolve);

void BM_PointingSolveWarm(benchmark::State& state) {
  const core::PointingSolver solver =
      rig().calib.make_pointing_solver({}, ctx());
  const geom::Pose psi =
      rig().proto.tracker.ideal_report(rig().proto.nominal_rig_pose);
  const sim::Voltages warm = solver.solve(psi, {}).voltages;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(psi, warm));
  }
}
BENCHMARK(BM_PointingSolveWarm);

void BM_SceneObserve(benchmark::State& state) {
  sim::Scene& scene = rig().proto.scene;
  const sim::Voltages v{0.1, -0.2, 0.3, -0.4};
  for (auto _ : state) {
    benchmark::DoNotOptimize(scene.observe(v));
  }
}
BENCHMARK(BM_SceneObserve);

void BM_TpControllerStep(benchmark::State& state) {
  core::TpController controller(rig().calib.make_pointing_solver({}, ctx()),
                                core::TpConfig{});
  tracking::PoseReport report;
  report.pose = rig().proto.tracker.ideal_report(rig().proto.nominal_rig_pose);
  for (auto _ : state) {
    benchmark::DoNotOptimize(controller.on_report(report));
  }
}
BENCHMARK(BM_TpControllerStep);

}  // namespace

BENCHMARK_MAIN();
