// Physical model of a two-axis galvo mirror (GM), e.g. the ThorLabs GVS102.
//
// This is the *ground truth* device the learning pipeline in src/core must
// recover: the same parameterization as the paper's §4.1 — input beam
// (p0, x0), per-mirror plane (n_i, q_i) and rotation axis (r_i), and the
// voltage-to-angle gain theta1 shared by both mirrors:
//
//   n_i' = R(r_i, theta1 * v_i) * n_i
//   (p_mid, x_mid) = reflect(p0, x0 | n_1', q_1)
//   (p,     x    ) = reflect(p_mid, x_mid | n_2', q_2)
//
// Note the output origin p lies on mirror 2 and moves with the voltages —
// the "distortion" effect [58] the paper insists must be modeled.
#pragma once

#include <array>
#include <optional>

#include "geom/mat3.hpp"
#include "geom/ray.hpp"
#include "geom/reflect.hpp"
#include "geom/vec3.hpp"

namespace cyclops::galvo {

/// The paper's GMA parameter set (Fig 7).
struct GalvoParams {
  geom::Vec3 p0;  ///< Input-beam origin (collimator output).
  geom::Vec3 x0;  ///< Input-beam direction (unit).
  geom::Vec3 n1;  ///< Mirror-1 normal at zero voltage (unit).
  geom::Vec3 q1;  ///< Point on mirror 1's plane and rotation axis.
  geom::Vec3 r1;  ///< Mirror-1 rotation-axis direction (unit).
  geom::Vec3 n2;  ///< Mirror-2 normal at zero voltage (unit).
  geom::Vec3 q2;  ///< Point on mirror 2's plane and rotation axis.
  geom::Vec3 r2;  ///< Mirror-2 rotation-axis direction (unit).
  double theta1 = 0.0;  ///< Mirror rotation per volt (rad/V), same for both.

  /// Flat 25-double encoding for the Stage-1 optimizer.
  static constexpr std::size_t kParamCount = 25;
  /// First column of each field in that encoding (each Vec3 spans three).
  static constexpr std::size_t kP0 = 0, kX0 = 3, kN1 = 6, kQ1 = 9, kR1 = 12,
                               kN2 = 15, kQ2 = 18, kR2 = 21, kTheta1 = 24;
  std::array<double, kParamCount> pack() const;
  static GalvoParams unpack(const std::array<double, kParamCount>& values);
};

/// Operating limits of the steering hardware.
struct GalvoSpec {
  double max_voltage = 10.0;        ///< |v| limit (V).
  double min_voltage_step = 1e-3;   ///< Smallest commanded step (V).
  double mirror_radius = 12e-3;     ///< Clear radius of each mirror (m).
  double small_angle_settle_s = 300e-6;  ///< GVS102 small-angle latency.
  double angular_accuracy_rad = 10e-6;   ///< GVS102 pointing accuracy.
};

/// GVS102-like defaults.
GalvoSpec gvs102_spec();

/// GalvoParams plus the trace's per-device constants — the unit input
/// direction and both unit rotation axes — normalised once at
/// construction.  Immutable, so they can never go stale.
class GalvoGeometry {
 public:
  explicit GalvoGeometry(GalvoParams params);

  const GalvoParams& params() const noexcept { return params_; }

  /// The input beam (p0, unit x0).
  geom::Ray input() const noexcept { return {params_.p0, x0_}; }

  /// A mirror's rotation at voltage v: the angle θ1·v with its cos and sin.
  geom::AngleTrig angle(double v) const {
    return geom::AngleTrig(params_.theta1 * v);
  }

  /// Mirror planes for the given voltages, or for their angle()s (normals
  /// rotated per model).
  geom::Plane mirror1_plane(double v1) const {
    return mirror1_plane(angle(v1));
  }
  geom::Plane mirror2_plane(double v2) const {
    return mirror2_plane(angle(v2));
  }
  geom::Plane mirror1_plane(const geom::AngleTrig& a1) const {
    return {params_.q1, geom::rotate(r1_, a1, params_.n1)};
  }
  geom::Plane mirror2_plane(const geom::AngleTrig& a2) const {
    return {params_.q2, geom::rotate(r2_, a2, params_.n2)};
  }

 private:
  GalvoParams params_;
  geom::Vec3 x0_;
  geom::UnitAxis r1_, r2_;
};

class GalvoMirror {
 public:
  GalvoMirror(GalvoParams params, GalvoSpec spec);

  const GalvoParams& params() const noexcept { return geometry_.params(); }
  const GalvoSpec& spec() const noexcept { return spec_; }

  /// Mirror planes for the given voltages (normals rotated per model).
  geom::Plane mirror1_plane(double v1) const { return geometry_.mirror1_plane(v1); }
  geom::Plane mirror2_plane(double v2) const { return geometry_.mirror2_plane(v2); }

  /// Traces the input beam through both mirrors.  Returns the output beam
  /// (origin on mirror 2), or nullopt if the beam misses a mirror plane,
  /// falls outside a mirror's clear radius, or a voltage is out of range.
  std::optional<geom::Ray> trace(double v1, double v2) const {
    const auto first = first_leg(v1);
    if (!first) return std::nullopt;
    return second_leg(first, v2, mirror2_plane(v2));
  }

  /// trace() split at mirror 2, as core::GmaModel's is: each leg checks
  /// its voltage's range, reflects, and clips at its mirror's radius
  /// (`mirror2` is mirror2_plane(v2)).
  std::optional<geom::Ray> first_leg(double v1) const;
  std::optional<geom::Ray> second_leg(const std::optional<geom::Ray>& first,
                                      double v2,
                                      const geom::Plane& mirror2) const;

  bool voltage_in_range(double v) const noexcept {
    return v >= -spec_.max_voltage && v <= spec_.max_voltage;
  }

 private:
  GalvoGeometry geometry_;
  GalvoSpec spec_;
};

/// One mirror of the ideal trace, by the *algebraic* (non-forward-only)
/// ray/plane solution: the closed-form G of §4.1 is then a total function
/// of the voltages, so learned estimates stay evaluable while the optimizer
/// explores (or mildly extrapolates beyond) the trained region.  The
/// physical GalvoMirror::trace enforces forward propagation and apertures.
inline std::optional<geom::Ray> reflect_ideal(const geom::Ray& ray,
                                              const geom::Plane& mirror) {
  const auto t = geom::intersect(ray, mirror, /*forward_only=*/false);
  if (!t) return std::nullopt;
  const geom::Vec3 n = mirror.normal.normalized();
  return geom::Ray{ray.at(*t), geom::reflect_dir(ray.dir, n)};
}

/// Ideal two-mirror trace with no aperture or voltage-range checks — the
/// pure §4.1 G function: reflect_ideal off mirror 1 at v1, then off mirror
/// 2 at v2.  core::GmaModel runs the same two reflections split at
/// mirror 2, on a GalvoGeometry it keeps.
std::optional<geom::Ray> trace_ideal(const GalvoParams& params, double v1,
                                     double v2);

/// DAQ between the controller and the galvo servos: quantizes commanded
/// voltages and contributes most of the 1-2 ms pointing latency (§5.2).
struct Daq {
  double quantization_step = 20.0 / 65536.0;  ///< 16-bit over +/-10 V.
  double conversion_latency_s = 1.5e-3;

  double quantize(double v) const noexcept;
};

/// Servo settle dynamics: the GVS102's quoted 300 us is its *small-angle*
/// latency; large steps take longer (full-scale steps approach
/// milliseconds).  Linear model: settle = small_angle + slope * |step|.
struct ServoDynamics {
  double small_angle_settle_s = 300e-6;
  /// Extra settle per volt of commanded step (GVS102-class: ~60 us/V).
  double settle_per_volt_s = 60e-6;

  double settle_time_s(double step_volts) const noexcept {
    const double magnitude = step_volts < 0.0 ? -step_volts : step_volts;
    return small_angle_settle_s + settle_per_volt_s * magnitude;
  }
};

}  // namespace cyclops::galvo
