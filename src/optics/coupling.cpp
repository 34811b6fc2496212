#include "optics/coupling.hpp"

#include <algorithm>
#include <cmath>

#include "util/units.hpp"

namespace cyclops::optics {
namespace {

// 10 * log10(e) * 2 : converts the Gaussian exponent 2*(x/w)^2 to dB.
constexpr double kGaussDb = 8.685889638065035;

}  // namespace

double effective_theta_acc(const ReceiverDesign& rx, double delta) noexcept {
  const double inner = std::sqrt(
      rx.fiber_theta * rx.fiber_theta +
      rx.divergence_accept_factor * rx.divergence_accept_factor * delta * delta);
  // Saturating combination: the lens NA caps how steep a ray can still be
  // focused onto the fiber, however wide the arriving cone is.
  return rx.theta_sat * std::tanh(inner / rx.theta_sat);
}

CouplingResult coupling_loss_from_errors(const ReceiverDesign& rx,
                                         double envelope_diameter,
                                         double local_divergence,
                                         double tail_factor, double delta_r,
                                         double psi) {
  return coupling_loss_at_acceptance(
      rx, envelope_diameter, effective_theta_acc(rx, local_divergence),
      tail_factor, delta_r, psi);
}

CouplingResult coupling_loss_at_acceptance(const ReceiverDesign& rx,
                                           double envelope_diameter,
                                           double theta_acc,
                                           double tail_factor, double delta_r,
                                           double psi) {
  CouplingResult result;

  // Geometric capture: fraction of the (Gaussian-profiled) envelope inside
  // the capture aperture when centered.
  const double w = std::max(envelope_diameter * 0.5, 1e-6);
  const double a = rx.capture_radius;
  const double captured = 1.0 - std::exp(-8.0 * a * a /
                                         (envelope_diameter * envelope_diameter +
                                          1e-12));
  result.geometric_db = -util::ratio_to_db(std::max(captured, 1e-12));

  // Lateral envelope misalignment.
  const double w_lat = std::max(tail_factor * w, 1e-6);
  result.lateral_db = kGaussDb * (delta_r / w_lat) * (delta_r / w_lat);

  // Incidence-angle misalignment.
  result.angular_db = kGaussDb * (psi / theta_acc) * (psi / theta_acc);

  result.fixed_db = rx.mode_mismatch_db + rx.insertion_db;
  return result;
}

// ---------------------------------------------------------------------------
// Calibrated presets.
//
// Derivations (all at the 1.5 m nominal range, EDFA +17 dB on the 10G
// designs, SFP specs from optics/sfp.hpp):
//
//  * diverging_10g(20mm): capture 5 mm (GM clear aperture) -> geometric
//    4.05 dB; mode mismatch 21.45 dB + insertion 1.5 dB gives peak
//    0 + 17 - 4.05 - 22.95 = -10 dBm (Table 1).  theta_sat 4.4 mrad &
//    divergence_accept_factor 1.9 give an effective acceptance 4.35 mrad at
//    a 6 mrad half-angle cone -> RX tolerance sqrt(15/8.686)*4.35 =
//    5.7 mrad; tail_factor 1.8 -> w_lat 18 mm -> TX tolerance
//    1.314*18mm/1.5m = 15.8 mrad (Table 1: 15.81 / 5.77 / -10 dBm).
//  * collimated_10g(20mm): beam expander shrinks the beam into the
//    collimator -> capture radius 10 mm, no mode mismatch; peak
//    0 + 17 - 0.63 - 1.5 = +14.9 dBm; RX tolerance 1.06 mrad *
//    sqrt(39.9/8.686) = 2.27 mrad; TX tolerance combines the lateral and
//    angular terms -> 2.2 mrad (Table 1: 2.00 / 2.28 / +15 dBm).
//  * diverging_25g(14mm): adjustable-focus collimators at both ends:
//    small mode mismatch (4.5 dB) and a wide NA (theta_sat 10 mrad,
//    divergence_accept_factor 4.0) but no EDFA at 1310 nm -> peak
//    2 - 1.94 - 6.0 = -5.9 dBm over a -14 dBm sensitivity; RX tolerance
//    ~0.96*9.2 = 8.8 mrad, TX ~8.7 mrad, lateral ~6-9 mm (§5.3.1:
//    8.73 mrad / 8-9 mrad / ~6 mm).
// ---------------------------------------------------------------------------

LinkDesign collimated_10g(double beam_diameter) {
  LinkDesign design;
  design.beam = BeamSpec::collimated(beam_diameter, /*tail_factor=*/1.0);
  design.receiver = {.capture_radius = 10e-3,
                     .fiber_theta = 1.06e-3,
                     .divergence_accept_factor = 1.9,
                     .theta_sat = 4.4e-3,
                     .mode_mismatch_db = 0.0,
                     .insertion_db = 1.5};
  return design;
}

LinkDesign diverging_10g(double rx_diameter, double range) {
  LinkDesign design;
  design.beam = BeamSpec::diverging_for(rx_diameter, range,
                                        /*launch_diameter=*/2e-3,
                                        /*tail_factor=*/1.8);
  design.receiver = {.capture_radius = 5e-3,
                     .fiber_theta = 1.06e-3,
                     .divergence_accept_factor = 1.9,
                     .theta_sat = 4.4e-3,
                     .mode_mismatch_db = 21.45,
                     .insertion_db = 1.5};
  design.nominal_range = range;
  return design;
}

LinkDesign diverging_25g(double rx_diameter, double range) {
  LinkDesign design;
  design.beam = BeamSpec::diverging_for(rx_diameter, range,
                                        /*launch_diameter=*/2e-3,
                                        /*tail_factor=*/1.6);
  // Thin margin by design: the SFP28-LR budget is only ~16 dB and there
  // is no EDFA at 1310 nm, so the link lives ~5 dB above sensitivity at
  // peak — which is why the paper's 25G prototype tolerates *lower*
  // linear speeds than the 10G one despite its better angular acceptance.
  design.receiver = {.capture_radius = 5e-3,
                     .fiber_theta = 1.2e-3,
                     .divergence_accept_factor = 4.0,
                     .theta_sat = 12e-3,
                     .mode_mismatch_db = 7.5,
                     .insertion_db = 1.5};
  design.nominal_range = range;
  return design;
}

}  // namespace cyclops::optics
