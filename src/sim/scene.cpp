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
      rx_world_(rx_in_rig_) {
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
  obs.psi = geom::angle_between(beam->arriving_dir_at(capture_point),
                                -accept_dir);
  obs.envelope_diameter = beam->envelope_diameter_at(capture_point);

  const auto coupling =
      optics::coupling_loss(config_.design.receiver, *beam, capture_point,
                            accept_dir);
  obs.power = optics::compute_power(config_.sfp, config_.amplifier, coupling,
                                    obs.occluded);
  return obs;
}

optics::QuadReading Scene::photodiodes(const Voltages& v) const {
  const auto beam = emit(v.tx1, v.tx2);
  if (!beam) return {};
  // The quad array sits around the RX capture aperture (mirror 2 of the
  // RX GM), facing along the rig's boresight.
  const geom::Pose& diode_pose = rx_world_.mount();
  optics::QuadPhotodiode quad(diode_pose, config_.photodiode_arm_radius);
  if (segment_occluded(beam->chief.origin, diode_pose.translation())) return {};
  return quad.read(*beam);
}

}  // namespace cyclops::sim
