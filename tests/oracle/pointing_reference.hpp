// The G' and P loops as they ran before traces were split at mirror 2 —
// test-only references.  G' traces three whole beams per iteration plus
// one at its answer; P traces both sides afresh at the top of every
// iteration and again for the final Lemma-1 residual.  GPrimeSolver and
// PointingSolver must reproduce them bit for bit (core_gprime_test,
// core_pointing_test).  No telemetry is recorded.
#pragma once

#include "core/gprime.hpp"
#include "core/pointing.hpp"

namespace cyclops::core {

GPrimeResult reference_gprime(const GmaModel& model, const geom::Vec3& target,
                              double v1_init, double v2_init,
                              const GPrimeOptions& options);

/// P on the VR-space models (`rx_vr` is PointingSolver::rx_vr(psi)).
PointingResult reference_pointing(const GmaModel& tx_vr, const GmaModel& rx_vr,
                                  const sim::Voltages& hint,
                                  const PointingOptions& options);

}  // namespace cyclops::core
