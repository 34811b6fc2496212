#include "core/pointing.hpp"

#include <algorithm>
#include <cmath>

#include "core/mapping_calibration.hpp"

namespace cyclops::core {

PointingSolver::PointingSolver(GmaModel tx_kspace, GmaModel rx_kspace,
                               geom::Pose map_tx, geom::Pose map_rx,
                               PointingOptions options,
                               const runtime::Context& ctx)
    : rx_kspace_(std::move(rx_kspace)),
      tx_vr_(tx_kspace.transformed(map_tx)),
      map_tx_(std::move(map_tx)),
      map_rx_(std::move(map_rx)),
      options_(options),
      gprime_(options.gprime, ctx) {}

PointingResult PointingSolver::solve(const geom::Pose& psi,
                                     const sim::Voltages& hint) const {
  PointingResult result;
  const GmaModel rx = rx_vr(psi);
  sim::Voltages v = hint;
  result.voltages = v;
  // Each side's trace at v: G' starts from it and hands back its answer's.
  SplitTrace at_t = tx_vr_.split_trace(v.tx1, v.tx2);
  SplitTrace at_r = rx.split_trace(v.rx1, v.rx2);

  for (int iter = 0; iter < options_.max_iterations; ++iter) {
    result.iterations = iter + 1;
    if (!at_t.ray || !at_r.ray) return result;

    // Aim each GMA at the other's current origin point (copied first: each
    // solve replaces its side's trace).
    const geom::Vec3 p_t = at_t.ray->origin;
    const geom::Vec3 p_r = at_r.ray->origin;
    const auto tx_step = gprime_.solve(tx_vr_, p_r, v.tx1, v.tx2, at_t);
    const auto rx_step = gprime_.solve(rx, p_t, v.rx1, v.rx2, at_r);
    if (!tx_step.converged || !rx_step.converged) return result;

    const double delta =
        std::max({std::abs(tx_step.v1 - v.tx1), std::abs(tx_step.v2 - v.tx2),
                  std::abs(rx_step.v1 - v.rx1), std::abs(rx_step.v2 - v.rx2)});
    v = {tx_step.v1, tx_step.v2, rx_step.v1, rx_step.v2};
    result.voltages = v;
    if (delta < options_.tolerance_volts) {
      result.converged = true;
      break;
    }
  }

  result.voltages = v;
  const LemmaPoints pts = lemma_points(at_t, at_r);
  result.model_residual_m = pts.valid ? pts.coincidence_error() : 1.0;
  return result;
}

}  // namespace cyclops::core
