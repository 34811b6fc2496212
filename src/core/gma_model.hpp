// The learned GMA model G — the paper's central object (§4.1).
//
// G(v1, v2) -> (p, x⃗): maps the two galvo voltages to the output beam's
// origin point (on mirror 2) and direction.  A GmaModel is *what Cyclops
// believes* about a physical GMA; it shares the GalvoParams
// parameterization but carries no aperture/clipping knowledge (the learner
// never sees those).  Models can be rigidly re-expressed in another frame
// (K-space -> VR-space) — that is exactly what the Stage-2 "mapping
// parameters" do.
#pragma once

#include <optional>
#include <span>

#include "galvo/galvo_mirror.hpp"
#include "geom/pose.hpp"
#include "geom/ray.hpp"

namespace cyclops::core {

/// One model trace kept split at mirror 2, so the next trace that moves
/// only one voltage can reuse the other half (see GmaModel::first_leg).
struct SplitTrace {
  std::optional<geom::Ray> first_leg;  ///< Beam leaving mirror 1 (v1 only).
  geom::Plane mirror2;                 ///< Mirror-2 plane (v2 only).
  std::optional<geom::Ray> ray;        ///< The whole trace(v1, v2).
};

class GmaModel {
 public:
  explicit GmaModel(galvo::GalvoParams params) : geometry_(std::move(params)) {}

  const galvo::GalvoParams& params() const noexcept { return geometry_.params(); }
  const galvo::GalvoGeometry& geometry() const noexcept { return geometry_; }

  /// The modeled output beam (p, x⃗).  nullopt only in degenerate
  /// configurations (beam parallel to a mirror plane).
  std::optional<geom::Ray> trace(double v1, double v2) const {
    return second_leg(first_leg(v1), mirror2_plane(v2));
  }

  /// trace() split at mirror 2: the first leg depends only on v1 (through
  /// the mirror-1 plane), the mirror-2 plane only on v2.  The same
  /// operations in the same order as trace(), so a caller holding one half
  /// fixed gets bit-identical rays.
  std::optional<geom::Ray> first_leg(double v1) const {
    return first_leg(geometry_.mirror1_plane(v1));
  }
  std::optional<geom::Ray> first_leg(const geom::Plane& mirror1) const {
    return first_leg(mirror1, mirror1.normal.normalized());
  }
  std::optional<geom::Ray> second_leg(const std::optional<geom::Ray>& first,
                                      const geom::Plane& mirror2) const {
    return second_leg(first, mirror2, mirror2.normal.normalized());
  }
  /// The same legs off a mirror whose unit normal the caller already holds
  /// (`unit_normal` is the plane's normal, normalized()).
  std::optional<geom::Ray> first_leg(const geom::Plane& mirror1,
                                     const geom::Vec3& unit_normal) const {
    return galvo::reflect_ideal(geometry_.input(), mirror1, unit_normal);
  }
  std::optional<geom::Ray> second_leg(const std::optional<geom::Ray>& first,
                                      const geom::Plane& mirror2,
                                      const geom::Vec3& unit_normal) const {
    if (!first) return std::nullopt;
    auto ray = galvo::reflect_ideal(*first, mirror2, unit_normal);
    if (ray && frozen_origin_) ray->origin = *frozen_origin_;
    return ray;
  }
  SplitTrace split_trace(double v1, double v2) const {
    SplitTrace at{first_leg(v1), mirror2_plane(v2), std::nullopt};
    at.ray = second_leg(at.first_leg, at.mirror2);
    return at;
  }

  /// Mirror-2 plane for the given second-mirror voltage; contains every
  /// beam origin p and Lemma 1's target points tau.
  geom::Plane mirror2_plane(double v2) const { return geometry_.mirror2_plane(v2); }

  /// This model with the GalvoParams field holding `column` taken from the
  /// flat encoding `values` (GalvoGeometry::with_field); a frozen origin
  /// stays frozen where it was.
  GmaModel with_field(std::size_t column,
                      std::span<const double> values) const {
    GmaModel out = *this;
    out.geometry_ = geometry_.with_field(column, values);
    return out;
  }

  /// The same physical model expressed in `map`'s parent frame
  /// (map: this-frame -> parent-frame).
  GmaModel transformed(const geom::Pose& map) const;

  /// Ablation: the [32, 33]-style simplification that treats the beam
  /// origin p as a constant (its zero-voltage value) instead of letting it
  /// move with the voltages.  The paper argues this "distortion" must be
  /// modeled for mm accuracy — bench/ablation_distortion quantifies it.
  GmaModel with_frozen_origin() const;
  bool origin_frozen() const noexcept { return frozen_origin_.has_value(); }

 private:
  /// The parameters plus their unit x0, r1 and r2, normalised once.
  galvo::GalvoGeometry geometry_;
  /// When set, trace() reports this fixed origin point.
  std::optional<geom::Vec3> frozen_origin_;
};

}  // namespace cyclops::core
