// The pointing function P (§4.3): VRH pose report -> the four GM voltages
// that realign the beam.
//
// Uses Lemma 1: alternate between the two GMAs, each time aiming one at
// the other's current beam-origin point via G', until the voltages stop
// changing (threshold = minimum GM voltage step).  Converges in 2-5
// iterations; the whole computation is microseconds — the realignment
// latency is dominated by the DAQ, not by P.
#pragma once

#include <optional>

#include "core/gma_model.hpp"
#include "core/gprime.hpp"
#include "geom/pose.hpp"
#include "sim/scene.hpp"

namespace cyclops::core {

struct PointingOptions {
  int max_iterations = 10;
  /// Voltage-change threshold to declare convergence (V).
  double tolerance_volts = 1e-3;
  GPrimeOptions gprime;
};

struct PointingResult {
  sim::Voltages voltages;
  int iterations = 0;
  bool converged = false;
  /// Final Lemma-1 coincidence residual under the learned models (m).
  double model_residual_m = 0.0;
};

/// The learned pointing mechanism: Stage-1 models + Stage-2 mappings.
class PointingSolver {
 public:
  /// `ctx` supplies the registry the inner G' solver tallies into.
  PointingSolver(GmaModel tx_kspace, GmaModel rx_kspace, geom::Pose map_tx,
                 geom::Pose map_rx, PointingOptions options,
                 const runtime::Context& ctx);

  /// Computes P(psi).  `hint` warm-starts the iteration (last voltages).
  PointingResult solve(const geom::Pose& psi, const sim::Voltages& hint) const;

  /// The TX model in VR-space (fixed) and the RX model for a given report.
  const GmaModel& tx_vr() const noexcept { return tx_vr_; }
  GmaModel rx_vr(const geom::Pose& psi) const {
    return rx_kspace_.transformed(psi * map_rx_);
  }

  const geom::Pose& map_tx() const noexcept { return map_tx_; }
  const geom::Pose& map_rx() const noexcept { return map_rx_; }

 private:
  GmaModel rx_kspace_;
  GmaModel tx_vr_;
  geom::Pose map_tx_;
  geom::Pose map_rx_;
  PointingOptions options_;
  GPrimeSolver gprime_;
};

}  // namespace cyclops::core
