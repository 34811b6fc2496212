// Stage 2 (§4.2): jointly learn the 12 mapping parameters taking each
// GMA's K-space model into the common VR-space.
//
//  * M_tx (6 params): K_tx -> VR-space.  The TX is bolted to the ceiling,
//    so this is a constant pose.
//  * M_rx (6 params): K_rx -> the frame of the unknown headset point X
//    whose pose the VRH-T reports.  The RX GMA rides the headset, so its
//    VR-space model for a report Psi is Psi * M_rx applied to the K-space
//    model.
//
// Training data are 5-tuples (v1, v2, v3, v4, Psi): voltages found by the
// exhaustive aligner at assorted rig poses plus the VRH-T report.  The
// error is Lemma 1's coincidence residual: at perfect alignment the TX
// beam origin p_t must coincide with where the RX's imaginary beam lands
// on the TX mirror (tau_r), and vice versa.
#pragma once

#include <vector>

#include "core/gma_model.hpp"
#include "geom/pose.hpp"
#include "opt/levmar.hpp"
#include "sim/scene.hpp"

namespace cyclops::core {

/// One Stage-2 training tuple.
struct AlignedSample {
  sim::Voltages voltages;
  geom::Pose psi;  ///< VRH-T report at alignment time.
};

/// Lemma-1 geometry for one sample under candidate mappings.
struct LemmaPoints {
  geom::Vec3 p_t;    ///< TX beam origin (on TX mirror 2).
  geom::Vec3 p_r;    ///< RX imaginary-beam origin (on RX mirror 2).
  geom::Vec3 tau_t;  ///< TX beam's hit on the RX mirror-2 plane.
  geom::Vec3 tau_r;  ///< RX imaginary beam's hit on the TX mirror-2 plane.
  bool valid = false;

  double coincidence_error() const {
    return geom::distance(p_t, tau_r) + geom::distance(p_r, tau_t);
  }
};

/// Computes Lemma-1 points for one sample from both VR-space models'
/// traces at the sample's voltages.
LemmaPoints lemma_points(const SplitTrace& tx, const SplitTrace& rx);

struct MappingFitReport {
  geom::Pose map_tx;  ///< Learned K_tx -> VR.
  geom::Pose map_rx;  ///< Learned K_rx -> X-frame.
  double avg_coincidence_m = 0.0;  ///< Mean Lemma-1 residual over samples.
  double max_coincidence_m = 0.0;
  int optimizer_iterations = 0;
  bool converged = false;
};

/// The Stage-2 fit as data — the 6-residuals-per-sample Lemma-1 function,
/// its Jacobian probes and the packed 12-parameter initial guess — so an
/// iteration-granular driver (opt::LmStepper inside cal::CalibrationEngine
/// or the online recalibrator) can run the same problem one LM iteration
/// at a time.  make_mapping_problem traces every sample once in K-space;
/// both functions share that read-only cache and only re-pose it under
/// the candidate maps — a probe of one of M_tx's 6 columns only the TX
/// halves, one of M_rx's only the RX halves, bit for bit.  Neither keeps
/// a reference to the models or samples (only finish_mapping_fit reads
/// them again), and both are safe to call concurrently, as the
/// column-parallel Jacobian does.
struct MappingFitProblem {
  opt::ResidualFn residuals;
  opt::ProbeFactory probes;
  std::vector<double> initial;
};

MappingFitProblem make_mapping_problem(const GmaModel& tx_kspace,
                                       const GmaModel& rx_kspace,
                                       const std::vector<AlignedSample>& samples,
                                       const geom::Pose& tx_guess,
                                       const geom::Pose& rx_guess);

/// Turns a finished LM solve over make_mapping_problem back into the
/// report fit_mapping returns (pose unpack + coincidence stats).
MappingFitReport finish_mapping_fit(const GmaModel& tx_kspace,
                                    const GmaModel& rx_kspace,
                                    const std::vector<AlignedSample>& samples,
                                    const opt::LevMarResult& fit);

/// Fits the 12 mapping parameters.  `tx_guess` / `rx_guess` come from
/// manual measurement of the deployment (a few cm / few degrees off).
/// The LM solve runs on `ctx` (its pool and its registry).  (An adapter
/// over make_mapping_problem / finish_mapping_fit.)
MappingFitReport fit_mapping(
    const GmaModel& tx_kspace, const GmaModel& rx_kspace,
    const std::vector<AlignedSample>& samples, const geom::Pose& tx_guess,
    const geom::Pose& rx_guess, const opt::LevMarOptions& options,
    const runtime::Context& ctx);

/// Blind phase A's residual over the 6 K_tx -> VR parameters alone: the
/// distance from each reported headset position to the modeled TX beam
/// (at alignment the beam passes through the headset, so no RX model is
/// needed).  Like make_mapping_problem, it owns a K-space trace of the
/// samples, and a sample without a TX beam costs 2 m.  The blind Stage-2
/// fit itself (multi-start LM, no manual measurement) runs in
/// cal::CalibrationEngine under CalibrationConfig::blind_stage2.
opt::ResidualFn make_blind_tx_residuals(
    const GmaModel& tx_kspace, const std::vector<AlignedSample>& samples);

}  // namespace cyclops::core
