#include "core/tolerance.hpp"

#include <algorithm>
#include <cmath>

#include "core/exhaustive_aligner.hpp"
#include "util/units.hpp"

namespace cyclops::core {
namespace {

/// Rigid rotation of `pose` about the world-space `pivot` by `angle`
/// around `axis` — what a rotation stage under the assembly does.
geom::Pose rotate_about(const geom::Pose& pose, const geom::Vec3& pivot,
                        const geom::Vec3& axis, double angle) {
  const geom::Mat3 r = geom::Mat3::rotation(axis, angle);
  return {r * pose.rotation(), pivot + r * (pose.translation() - pivot)};
}

/// Binary-searches the largest perturbation magnitude in [0, hi] for which
/// `usable(magnitude)` still holds.  usable(0) must be true.
template <typename Fn>
double largest_usable(double hi, const Fn& usable) {
  double lo = 0.0;
  for (int iter = 0; iter < 40; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (usable(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// Worst-axis tolerance: minimum over +/- perturbations about two
/// transverse axes.
template <typename Fn>
double worst_axis_tolerance(double hi, const Fn& usable_with_axis_sign) {
  double worst = hi;
  for (int axis = 0; axis < 2; ++axis) {
    for (double sign : {1.0, -1.0}) {
      const double tol = largest_usable(hi, [&](double magnitude) {
        return usable_with_axis_sign(axis, sign * magnitude);
      });
      worst = std::min(worst, tol);
    }
  }
  return worst;
}

}  // namespace

double aligned_peak_power_dbm(sim::Prototype& proto, util::ThreadPool& pool) {
  const ExhaustiveAligner aligner({}, pool);
  return aligner.align(proto.scene, {}).power_dbm;
}

double tx_angular_tolerance(sim::Prototype& proto, util::ThreadPool& pool) {
  const ExhaustiveAligner aligner({}, pool);
  const AlignResult aligned = aligner.align(proto.scene, {});
  const geom::Pose tx_mount = proto.scene.tx().mount();
  const geom::Vec3 pivot =
      tx_mount.apply(proto.tx_galvo_truth.q2);  // the GM mirror center
  const double sensitivity = proto.scene.config().sfp.rx_sensitivity_dbm;

  const auto usable = [&](int axis, double angle) {
    const geom::Vec3 world_axis = tx_mount.apply_dir(
        axis == 0 ? geom::Vec3{1, 0, 0} : geom::Vec3{0, 1, 0});
    proto.scene.set_tx_mount(rotate_about(tx_mount, pivot, world_axis, angle));
    const double power = proto.scene.received_power_dbm(aligned.voltages);
    proto.scene.set_tx_mount(tx_mount);
    return power >= sensitivity;
  };
  return worst_axis_tolerance(util::mrad_to_rad(80.0), usable);
}

double rx_angular_tolerance(sim::Prototype& proto, util::ThreadPool& pool) {
  const ExhaustiveAligner aligner({}, pool);
  const AlignResult aligned = aligner.align(proto.scene, {});
  const geom::Pose rig = proto.scene.rig_pose();
  const geom::Vec3 pivot =
      (rig * proto.rx_mount_in_rig).apply(proto.rx_galvo_truth.q2);
  const double sensitivity = proto.scene.config().sfp.rx_sensitivity_dbm;

  const auto usable = [&](int axis, double angle) {
    const geom::Vec3 world_axis = rig.apply_dir(
        axis == 0 ? geom::Vec3{1, 0, 0} : geom::Vec3{0, 1, 0});
    proto.scene.set_rig_pose(rotate_about(rig, pivot, world_axis, angle));
    const double power = proto.scene.received_power_dbm(aligned.voltages);
    proto.scene.set_rig_pose(rig);
    return power >= sensitivity;
  };
  return worst_axis_tolerance(util::mrad_to_rad(80.0), usable);
}

}  // namespace cyclops::core
