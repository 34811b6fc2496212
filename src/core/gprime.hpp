// The reverse GMA function G' (§4.3): given a target point tau, find the
// voltages whose output beam passes through tau.
//
// Purely computational — no training — via the paper's iteration: probe G
// at (v1, v2), (v1+eps, v2), (v1, v2+eps); intersect the three beams with
// the plane P through tau perpendicular to the current beam; solve the
// 2x2 linear system for the voltage deltas that move the hit point onto
// tau; repeat until the deltas drop below the minimum GM voltage step.
// Converges in 2-4 iterations on real geometries.
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

/// Resumable G' iteration state: the in-progress result plus a halt flag
/// for the degenerate-geometry exits (invalid trace, missed plane,
/// singular 2x2 system) that abort a solve without convergence.
struct GPrimeState {
  GPrimeResult result;
  bool halted = false;
};

class GPrimeSolver {
 public:
  /// Convergence tallies (`gprime_*`) are hoisted once from
  /// `ctx.registry()`, so a session context keeps them private to that
  /// session.  The registry must outlive the solver.
  GPrimeSolver(GPrimeOptions options, const runtime::Context& ctx);

  /// Solves for the voltages aiming `model`'s beam through `target`,
  /// starting from (v1_init, v2_init).  An adapter over
  /// begin()/advance(): one metrics record per solve, exactly as before.
  GPrimeResult solve(const GmaModel& model, const geom::Vec3& target,
                     double v1_init = 0.0, double v2_init = 0.0) const;

  /// Starts an iteration-granular solve at (v1_init, v2_init).
  GPrimeState begin(double v1_init, double v2_init) const;

  /// Runs one G' iteration.  Returns false when the solve can take no
  /// further iteration (converged, degenerate geometry, or the iteration
  /// budget is exhausted); `while (advance(...)) {}` reproduces solve()'s
  /// loop bit-exactly.  Records no metrics — the driver decides when a
  /// solve happened.
  bool advance(const GmaModel& model, const geom::Vec3& target,
               GPrimeState& state) const;

  /// Post-loop miss-distance diagnostic (skipped on halted solves, like
  /// the one-shot early returns).
  void finish(const GmaModel& model, const geom::Vec3& target,
              GPrimeState& state) const;

  const GPrimeOptions& options() const noexcept { return options_; }

 private:
  GPrimeOptions options_;
  // Metric handles (null when telemetry is compiled out); registry-owned,
  // so plain pointers keep the solver copyable.
  obs::Counter* solves_ = nullptr;
  obs::Counter* converged_ = nullptr;
  obs::Histogram* iterations_ = nullptr;
};

}  // namespace cyclops::core
