#include "core/evaluation.hpp"

#include <algorithm>
#include <cmath>

#include "geom/ray.hpp"

namespace cyclops::core {
namespace {

void accumulate(ModelErrorStats& stats, double error) {
  stats.avg_m += error;
  stats.max_m = std::max(stats.max_m, error);
  ++stats.samples;
}

void finalize(ModelErrorStats& stats) {
  if (stats.samples > 0) stats.avg_m /= stats.samples;
}

std::optional<geom::Vec3> hit_on_plane(const std::optional<geom::Ray>& ray,
                                       const geom::Plane& plane) {
  if (!ray) return std::nullopt;
  const auto t = geom::intersect(*ray, plane, /*forward_only=*/false);
  if (!t) return std::nullopt;
  return ray->at(*t);
}

}  // namespace

CombinedErrors evaluate_combined_errors(sim::Prototype& proto,
                                        const CalibrationResult& calib,
                                        int n_test, double pose_extent,
                                        double angle_extent, util::Rng& rng) {
  CombinedErrors errors;
  const ExhaustiveAligner aligner({}, util::ThreadPool::global());
  const geom::Pose world_from_vr = proto.vr_from_world.inverse();
  const GmaModel tx_model_vr =
      calib.tx_stage1.model.transformed(calib.mapping.map_tx);

  sim::Voltages hint{};
  for (int i = 0; i < n_test; ++i) {
    const geom::Pose pose = random_rig_pose(
        proto.nominal_rig_pose, pose_extent, angle_extent, rng);
    proto.scene.set_rig_pose(pose);
    // Every re-positioning flexes the breadboard slightly — the physical
    // reason the paper gives for the RX's larger combined error.
    proto.apply_rig_flex(rng);
    const AlignResult aligned = aligner.align(proto.scene, hint);
    if (!aligned.converged()) continue;
    hint = aligned.voltages;
    const sim::Voltages& v = aligned.voltages;
    const tracking::PoseReport report = proto.tracker.report(0, pose);

    // Learned-chain beams, re-expressed in the world for comparison.
    const GmaModel rx_model_vr =
        calib.rx_stage1.model.transformed(report.pose * calib.mapping.map_rx);
    const auto model_ray_t = tx_model_vr.trace(v.tx1, v.tx2);
    const auto model_ray_r = rx_model_vr.trace(v.rx1, v.rx2);

    // Physical beams.
    const auto phys_ray_t = proto.scene.tx().trace_parent(v.tx1, v.tx2);
    const galvo::GmaPhysical rx_world = proto.scene.rx_world();
    const auto phys_ray_r = rx_world.capture_ray(v.rx1, v.rx2);
    if (!model_ray_t || !model_ray_r || !phys_ray_t || !phys_ray_r) continue;

    // Compare landing points on the *true* opposite mirror-2 planes.
    const geom::Plane rx_plane = rx_world.mirror2_plane_parent(v.rx2);
    const geom::Plane tx_plane =
        proto.scene.tx().mirror2_plane_parent(v.tx2);

    const auto model_tau_t =
        hit_on_plane(world_from_vr.apply(*model_ray_t), rx_plane);
    const auto phys_tau_t = hit_on_plane(*phys_ray_t, rx_plane);
    if (model_tau_t && phys_tau_t) {
      accumulate(errors.tx, geom::distance(*model_tau_t, *phys_tau_t));
    }

    const auto model_tau_r =
        hit_on_plane(world_from_vr.apply(*model_ray_r), tx_plane);
    const auto phys_tau_r = hit_on_plane(*phys_ray_r, tx_plane);
    if (model_tau_r && phys_tau_r) {
      accumulate(errors.rx, geom::distance(*model_tau_r, *phys_tau_r));
    }
  }
  proto.scene.set_rig_pose(proto.nominal_rig_pose);
  finalize(errors.tx);
  finalize(errors.rx);
  return errors;
}

std::vector<TpAccuracySample> run_lock_tests(sim::Prototype& proto,
                                             const PointingSolver& solver,
                                             int n_tests, double pose_extent,
                                             double angle_extent,
                                             util::Rng& rng,
                                             util::ThreadPool& pool) {
  std::vector<TpAccuracySample> samples;
  const ExhaustiveAligner aligner({}, pool);
  sim::Voltages hint{};
  for (int i = 0; i < n_tests; ++i) {
    const geom::Pose pose = random_rig_pose(
        proto.nominal_rig_pose, pose_extent, angle_extent, rng);
    proto.scene.set_rig_pose(pose);
    proto.apply_rig_flex(rng);

    TpAccuracySample sample;
    const tracking::PoseReport report = proto.tracker.report(0, pose);
    const PointingResult pointed = solver.solve(report.pose, hint);
    sample.pointing_iterations = pointed.iterations;
    sample.power_dbm = proto.scene.received_power_dbm(pointed.voltages);
    sample.link_up =
        sample.power_dbm >= proto.scene.config().sfp.rx_sensitivity_dbm;

    const AlignResult optimal = aligner.align(proto.scene, pointed.voltages);
    sample.optimal_power_dbm = optimal.power_dbm;
    hint = pointed.voltages;
    samples.push_back(sample);
  }
  proto.scene.set_rig_pose(proto.nominal_rig_pose);
  return samples;
}

}  // namespace cyclops::core
