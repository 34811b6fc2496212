// GM Assembly (GMA): SFP + collimator + galvo mirror, mounted at a pose.
//
// The TX-GMA launches a beam (with the link design's envelope) within the
// GM's coverage cone; the RX-GMA steers the received beam onto its
// collimator.  Both share the same trace math; the RX side exposes it as a
// "capture ray" — Lemma 1's imaginary beam emanating from the RX.
#pragma once

#include <optional>

#include "galvo/galvo_mirror.hpp"
#include "geom/pose.hpp"
#include "optics/beam.hpp"

namespace cyclops::galvo {

class GmaPhysical {
 public:
  /// `mount` maps the GMA's local frame (its K-space) into the parent
  /// frame: the world for the TX, the RX rig frame for the RX.
  GmaPhysical(GalvoMirror galvo, geom::Pose mount);

  const GalvoMirror& galvo() const noexcept { return galvo_; }
  const geom::Pose& mount() const noexcept { return mount_; }
  void set_mount(const geom::Pose& mount) { mount_ = mount; }

  /// Output chief ray in the *parent* frame for the given voltages.
  std::optional<geom::Ray> trace_parent(double v1, double v2) const;
  /// The same from a mirror-1 leg already traced: `first` is
  /// galvo().first_leg(v1) and `mirror2` is galvo().mirror2_plane(v2).
  std::optional<geom::Ray> trace_parent(const std::optional<geom::Ray>& first,
                                        double v2,
                                        const geom::Plane& mirror2) const;

  /// TX use: the launched beam with envelope, in the parent frame.
  std::optional<optics::TracedBeam> emit(double v1, double v2,
                                         const optics::BeamSpec& spec) const;

  /// RX use: the imaginary beam from the collimator out through the GM —
  /// its origin is the capture point on mirror 2 (Lemma 1's p_r) and its
  /// direction is where the assembly currently "looks".
  std::optional<geom::Ray> capture_ray(double v1, double v2) const {
    return trace_parent(v1, v2);
  }

  /// Mirror-2 plane in the parent frame (the plane containing Lemma 1's
  /// target points tau).
  geom::Plane mirror2_plane_parent(double v2) const;

 private:
  GalvoMirror galvo_;
  geom::Pose mount_;
};

}  // namespace cyclops::galvo
