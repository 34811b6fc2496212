// The reverse GMA function G' (§4.3): given a target point tau, find the
// voltages whose output beam passes through tau.
//
// Purely computational — no training — via the paper's iteration: probe G
// at (v1, v2), (v1+eps, v2), (v1, v2+eps); intersect the three beams with
// the plane P through tau perpendicular to the current beam; solve the
// 2x2 linear system for the voltage deltas that move the hit point onto
// tau; repeat until the deltas drop below the minimum GM voltage step.
// Converges in 2-4 iterations on real geometries.  The (v1+eps, v2) probe
// reuses the mirror-2 plane of the (v1, v2) trace and the (v1, v2+eps)
// probe its first leg (GmaModel::split_trace).
#pragma once

#include "core/gma_model.hpp"
#include "geom/vec3.hpp"
#include "obs/metrics.hpp"
#include "runtime/context.hpp"

namespace cyclops::core {

struct GPrimeOptions {
  double probe_epsilon_volts = 0.05;
  /// Stop when both voltage deltas are below this (the paper uses the
  /// minimum GM voltage step).
  double tolerance_volts = 1e-3;
  int max_iterations = 12;
};

struct GPrimeResult {
  double v1 = 0.0;
  double v2 = 0.0;
  int iterations = 0;
  bool converged = false;
  /// Final distance between the beam and tau (m), for diagnostics.
  double miss_distance = 0.0;
};

class GPrimeSolver {
 public:
  /// Convergence tallies (`gprime_*`) are hoisted once from
  /// `ctx.registry()`, so a session context keeps them private to that
  /// session.  The registry must outlive the solver.
  GPrimeSolver(GPrimeOptions options, const runtime::Context& ctx);

  /// Solves for the voltages aiming `model`'s beam through `target`,
  /// starting from (v1_init, v2_init).
  GPrimeResult solve(const GmaModel& model, const geom::Vec3& target,
                     double v1_init = 0.0, double v2_init = 0.0) const;

  /// The same solve, bit for bit, from `at` == model.split_trace(v1_init,
  /// v2_init).  On return `at` is the split trace at the result's voltages,
  /// which the solve makes anyway for its miss distance.
  GPrimeResult solve(const GmaModel& model, const geom::Vec3& target,
                     double v1_init, double v2_init, SplitTrace& at) const;

  const GPrimeOptions& options() const noexcept { return options_; }

 private:
  GPrimeOptions options_;
  // Metric handles, hoisted by the constructor; registry-owned, so plain
  // pointers keep the solver copyable.
  obs::Counter* solves_ = nullptr;
  obs::Counter* converged_ = nullptr;
  obs::Histogram* iterations_ = nullptr;
};

}  // namespace cyclops::core
