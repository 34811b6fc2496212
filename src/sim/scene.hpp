// The physical world: TX assembly on the ceiling, RX assembly on the
// moving rig, and the light between them.
//
// Scene::observe is the single source of truth for "what power does the RX
// fiber see for these four GM voltages and this rig pose" — the TP
// pipeline, the exhaustive aligner, and every benchmark go through it.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "galvo/gma.hpp"
#include "geom/pose.hpp"
#include "optics/coupling.hpp"
#include "optics/link_budget.hpp"
#include "optics/photodiode.hpp"
#include "optics/sfp.hpp"

namespace cyclops::sim {

/// The four steering voltages <v1_tx, v2_tx, v1_rx, v2_rx> (§4).
struct Voltages {
  double tx1 = 0.0;
  double tx2 = 0.0;
  double rx1 = 0.0;
  double rx2 = 0.0;
};

/// Spherical occluder (a head, a raised hand) for LOS studies.
struct Occluder {
  geom::Vec3 center;
  double radius = 0.1;
};

/// Everything the physics says about one link configuration.
struct LinkObservation {
  optics::PowerReport power;
  /// Lateral envelope offset at the capture point (m).
  double delta_r = 0.0;
  /// Incidence-angle error at the capture point (rad).
  double psi = 0.0;
  /// Beam envelope diameter at the capture point (m).
  double envelope_diameter = 0.0;
  /// Straight-line TX-origin -> capture-point distance (m).
  double range = 0.0;
  /// False when a GM was clipped / out of range or the beam points away.
  bool beam_valid = false;
  bool occluded = false;
};

struct SceneConfig {
  optics::LinkDesign design;
  optics::SfpSpec sfp;
  optics::Edfa amplifier;
  double photodiode_arm_radius = 15e-3;
};

class Scene {
 public:
  /// `tx` is mounted in the world; `rx_mount_in_rig` places the RX GMA in
  /// the rig frame; `rig_pose` is the rig's world pose.
  Scene(SceneConfig config, galvo::GmaPhysical tx,
        galvo::GmaPhysical rx_in_rig, geom::Pose rig_pose);

  void set_rig_pose(const geom::Pose& pose) { rig_pose_ = pose; remount_rx(); }
  const geom::Pose& rig_pose() const noexcept { return rig_pose_; }

  void set_tx_mount(const geom::Pose& pose) { tx_.set_mount(pose); ++tx_mounts_; }
  const galvo::GmaPhysical& tx() const noexcept { return tx_; }
  /// Counts set_tx_mount calls: a caller holding an emit() result re-emits
  /// when this moves.
  std::uint64_t tx_mounts() const noexcept { return tx_mounts_; }

  /// RX GMA placement within the rig (used to model breadboard flex).
  void set_rx_mount_in_rig(const geom::Pose& pose) {
    rx_in_rig_.set_mount(pose);
    remount_rx();
  }
  const galvo::GmaPhysical& rx_in_rig() const noexcept { return rx_in_rig_; }

  /// The RX GMA with its mount composed into the *world* for the current
  /// rig pose (kept current by the two setters above).
  const galvo::GmaPhysical& rx_world() const noexcept { return rx_world_; }

  const SceneConfig& config() const noexcept { return config_; }

  void add_occluder(const Occluder& o) { occluders_.push_back(o); }
  void clear_occluders() { occluders_.clear(); }

  /// Full physical trace for the given voltages at the current rig pose:
  /// couple(emit(tx1, tx2), capture(rx1, rx2)).
  LinkObservation observe(const Voltages& v) const {
    return couple(emit(v.tx1, v.tx2), capture(v.rx1, v.rx2));
  }

  /// Received power shortcut (dBm; -inf when the beam is invalid).
  double received_power_dbm(const Voltages& v) const {
    return observe(v).power.rx_power_dbm;
  }

  /// observe() in its separable parts: the TX beam depends only on (tx1,
  /// tx2), the RX capture ray only on (rx1, rx2) and the rig pose, so a
  /// caller that holds one side fixed traces it once.
  std::optional<optics::TracedBeam> emit(double tx1, double tx2) const {
    return tx_.emit(tx1, tx2, config_.design.beam);
  }
  std::optional<geom::Ray> capture(double rx1, double rx2) const {
    return rx_world_.capture_ray(rx1, rx2);
  }
  LinkObservation couple(const std::optional<optics::TracedBeam>& beam,
                         const std::optional<geom::Ray>& rx_ray) const;

  /// Photodiode reading around the RX capture aperture for a launched TX
  /// beam (e.g. emit(tx1, tx2)).  Returns zeros when the beam is invalid.
  optics::QuadReading photodiodes(
      const std::optional<optics::TracedBeam>& beam) const;

  /// True when an occluder blocks the straight segment a -> b.
  bool segment_occluded(const geom::Vec3& a, const geom::Vec3& b) const;

 private:
  SceneConfig config_;
  galvo::GmaPhysical tx_;
  galvo::GmaPhysical rx_in_rig_;
  geom::Pose rig_pose_;
  galvo::GmaPhysical rx_world_;
  /// The quad array around the RX capture aperture (mirror 2 of the RX
  /// GM), facing along the rig's boresight: posed at rx_world_'s mount.
  optics::QuadPhotodiode diodes_;
  /// effective_theta_acc at the design beam's local divergence, which
  /// couple() reuses for every beam of that divergence.
  double design_divergence_, design_theta_acc_;
  std::uint64_t tx_mounts_ = 0;
  std::vector<Occluder> occluders_;

  void remount_rx() {
    rx_world_.set_mount(rig_pose_ * rx_in_rig_.mount());
    diodes_.set_pose(rx_world_.mount());
  }
};

}  // namespace cyclops::sim
