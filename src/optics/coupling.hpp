// Receive-side coupling model: how much of the arriving beam makes it into
// the RX fiber, as a function of misalignment.
//
// The model reduces the full optical train (RX galvo mirror aperture ->
// collimator lens -> fiber facet) to two sufficient statistics of the
// arriving beam at the capture point:
//
//   delta_r : lateral offset between the beam's envelope axis and the
//             capture point (m).  Loss is Gaussian with scale
//             w_lat = tail_factor * envelope_radius  — a wide (diverging)
//             beam forgives lateral error.
//   psi     : angle between the ray arriving *at the capture point* and the
//             acceptance axis (rad).  Loss is Gaussian with scale
//             theta_acc, the angular acceptance.  An ideal thin lens maps
//             angle to focal-spot position (s = f * psi), so theta_acc is
//             set by the fiber core radius over the focal length — widened
//             when the arriving beam is itself a cone (its angular spread
//             pre-blurs the focal spot), and saturated by the lens NA.
//
// plus two fixed terms: geometric capture (envelope fraction inside the
// capture aperture) and a constant mode-mismatch/insertion loss.
//
// Calibration: constants in the presets below are chosen once so the 10G
// diverging design with a 20 mm beam at 1.5 m reproduces Table 1
// (TX tol 15.81 mrad / RX tol 5.77 mrad / peak -10 dBm vs the collimated
// 2.00 / 2.28 / +15), and are then *frozen*; Fig 11's interior optimum and
// the §5.3 speed limits are emergent, not fitted.
#pragma once

#include "optics/beam.hpp"

namespace cyclops::optics {

/// Receive-side optical design (collimator + capture aperture + fiber).
struct ReceiverDesign {
  /// Radius of the capture aperture (the RX galvo-mirror clear aperture for
  /// the Cyclops prototype: 10 mm beams allowed -> 5 mm radius).
  double capture_radius = 5e-3;
  /// Base angular acceptance from the fiber: core radius / focal length.
  double fiber_theta = 1.06e-3;
  /// How much of the arriving cone's angular spread widens the acceptance.
  double divergence_accept_factor = 1.9;
  /// Lens-NA saturation of the angular acceptance (rad).
  double theta_sat = 4.4e-3;
  /// Fixed mode-mismatch penalty (dB): ~0 for a collimated beam shrunk by a
  /// beam expander; large for a diverging beam captured by a collimator
  /// designed for collimated light (the paper's ~30 dB coupling loss).
  double mode_mismatch_db = 0.0;
  /// Connector/lens insertion loss (dB).
  double insertion_db = 1.5;
};

/// Loss breakdown, all in dB (positive = loss).
struct CouplingResult {
  double geometric_db = 0.0;   ///< Envelope fraction outside the aperture.
  double lateral_db = 0.0;     ///< Envelope-offset misalignment loss.
  double angular_db = 0.0;     ///< Incidence-angle misalignment loss.
  double fixed_db = 0.0;       ///< Mode mismatch + insertion.
  double total_db() const noexcept {
    return geometric_db + lateral_db + angular_db + fixed_db;
  }
};

/// Effective angular acceptance for a beam with local divergence
/// half-angle `delta` (saturating combination; see header comment).
double effective_theta_acc(const ReceiverDesign& rx, double delta) noexcept;

/// Coupling loss from the reduced statistics of the arriving beam: its
/// envelope diameter, local divergence and tail factor, the lateral
/// envelope offset `delta_r` and the incidence-angle error `psi`.
CouplingResult coupling_loss_from_errors(const ReceiverDesign& rx,
                                         double envelope_diameter,
                                         double local_divergence,
                                         double tail_factor, double delta_r,
                                         double psi);

/// The same with the angular acceptance already taken: `theta_acc` is
/// effective_theta_acc(rx, local_divergence), so a caller whose beams
/// share one divergence (sim::Scene's design beam) takes it once.
CouplingResult coupling_loss_at_acceptance(const ReceiverDesign& rx,
                                           double envelope_diameter,
                                           double theta_acc,
                                           double tail_factor, double delta_r,
                                           double psi);

// ---------------------------------------------------------------------------
// Calibrated link-design presets (see DESIGN.md §5 and the header comment).
// ---------------------------------------------------------------------------

/// Full link design: TX beam + RX optics pairing.
struct LinkDesign {
  BeamSpec beam;
  ReceiverDesign receiver;
  /// Nominal TX->RX range the design was optimized for (m).
  double nominal_range = 1.5;
};

/// 10G design A: 20 mm collimated beam via beam expanders at both ends.
LinkDesign collimated_10g(double beam_diameter = 20e-3);

/// 10G design B (chosen): diverging beam sized to `rx_diameter` at `range`.
LinkDesign diverging_10g(double rx_diameter = 20e-3, double range = 1.5);

/// 25G design: adjustable-focus collimators at both ends; better mode
/// match (2-3 dB better received power) and wider angular acceptance, but
/// a much thinner SFP28 link budget.
LinkDesign diverging_25g(double rx_diameter = 14e-3, double range = 1.5);

}  // namespace cyclops::optics
