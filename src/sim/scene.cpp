#include "sim/scene.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace cyclops::sim {

Scene::Scene(SceneConfig config, galvo::GmaPhysical tx,
             galvo::GmaPhysical rx_in_rig, geom::Pose rig_pose)
    : config_(std::move(config)),
      tx_(std::move(tx)),
      rx_in_rig_(std::move(rx_in_rig)),
      rig_pose_(std::move(rig_pose)),
      rx_world_(rx_in_rig_),
      diodes_(rx_world_.mount(), config_.photodiode_arm_radius),
      design_divergence_(config_.design.beam.local_divergence()),
      design_theta_acc_(optics::effective_theta_acc(config_.design.receiver,
                                                    design_divergence_)) {
  remount_rx();
}

bool Scene::segment_occluded(const geom::Vec3& a, const geom::Vec3& b) const {
  const geom::Vec3 d = b - a;
  const double len = d.norm();
  if (len < 1e-12) return false;
  const geom::Vec3 dir = d / len;
  for (const auto& o : occluders_) {
    const double t = std::clamp((o.center - a).dot(dir), 0.0, len);
    if (geom::distance(a + dir * t, o.center) <= o.radius) return true;
  }
  return false;
}

LinkObservation Scene::couple(const std::optional<optics::TracedBeam>& beam,
                              const std::optional<geom::Ray>& rx_ray) const {
  LinkObservation obs;
  if (!beam || !rx_ray) {
    obs.power = optics::compute_power(config_.sfp, config_.amplifier, {}, false);
    obs.power.rx_power_dbm = -std::numeric_limits<double>::infinity();
    return obs;
  }

  const geom::Vec3 capture_point = rx_ray->origin;
  const geom::Vec3 accept_dir = rx_ray->dir;

  // The beam must travel toward the capture point, not away from it.
  const geom::Vec3 to_capture = capture_point - beam->chief.origin;
  obs.range = to_capture.norm();
  if (to_capture.dot(beam->chief.dir) <= 0.0) {
    obs.power.rx_power_dbm = -std::numeric_limits<double>::infinity();
    return obs;
  }
  obs.beam_valid = true;

  obs.occluded = segment_occluded(beam->chief.origin, capture_point);
  obs.delta_r = beam->envelope_offset(capture_point);
  // Aligned means the arriving ray points opposite to the acceptance axis
  // (the acceptance axis looks back toward the TX).
  obs.psi = geom::angle_between(beam->arriving_dir_at(capture_point),
                                -accept_dir);
  obs.envelope_diameter = beam->envelope_diameter_at(capture_point);

  const optics::ReceiverDesign& receiver = config_.design.receiver;
  const double divergence = beam->spec.local_divergence();
  const double theta_acc =
      divergence == design_divergence_
          ? design_theta_acc_
          : optics::effective_theta_acc(receiver, divergence);
  const auto coupling = optics::coupling_loss_at_acceptance(
      receiver, obs.envelope_diameter, theta_acc, beam->spec.tail_factor,
      obs.delta_r, obs.psi);
  obs.power = optics::compute_power(config_.sfp, config_.amplifier, coupling,
                                    obs.occluded);
  return obs;
}

optics::QuadReading Scene::photodiodes(
    const std::optional<optics::TracedBeam>& beam) const {
  if (!beam) return {};
  if (segment_occluded(beam->chief.origin, rx_world_.mount().translation())) {
    return {};
  }
  return diodes_.read(*beam);
}

}  // namespace cyclops::sim
