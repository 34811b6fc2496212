// Levenberg-Marquardt nonlinear least squares.
//
// This is the from-scratch substitute for the paper's use of SciPy's
// optimizer [57]: it fits the Stage-1 GMA parameters (13 values from 266
// board samples) and the Stage-2 mapping parameters (12 values from ~30
// aligned-link samples).
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "opt/linalg.hpp"
#include "runtime/context.hpp"
#include "util/thread_pool.hpp"

namespace cyclops::opt {

/// Residual function: fills `residuals` given `params`.  The residual vector
/// length must be fixed across calls.
using ResidualFn =
    std::function<void(std::span<const double> params, std::vector<double>& residuals)>;

struct LevMarOptions {
  int max_iterations = 200;
  double initial_lambda = 1e-3;
  double lambda_up = 10.0;
  double lambda_down = 0.5;
  /// Stop when the relative cost improvement falls below this.
  double cost_tolerance = 1e-12;
  /// Stop when the step's infinity norm falls below this.
  double step_tolerance = 1e-12;
  /// Finite-difference step for the numeric Jacobian.
  double jacobian_epsilon = 1e-7;
};

struct LevMarResult {
  std::vector<double> params;
  double initial_cost = 0.0;  ///< Sum of squared residuals at the start.
  double final_cost = 0.0;    ///< Sum of squared residuals at the solution.
  int iterations = 0;
  bool converged = false;
};

/// Minimizes sum of squared residuals starting from `initial_guess`.
/// Jacobian columns are fanned out over `ctx.pool()`, and the solve is
/// recorded into `ctx.registry()` by record_lm_solve — a session-scoped
/// context keeps concurrent solvers fully isolated.  (Implemented as an
/// adapter over LmStepper; bit-identical to the pre-stepper one-shot
/// loop.)
LevMarResult levenberg_marquardt(
    const ResidualFn& fn, std::vector<double> initial_guess,
    const LevMarOptions& options, const runtime::Context& ctx);

/// Records one finished LM solve: `lm_solves_total`, `lm_converged_total`
/// (created even when the solve did not converge), the integer
/// `lm_iterations` histogram (deterministic at any thread count), and
/// `wall_us` into `lm_solve_wall_us`.  The one-shot adapter and every
/// iteration-granular driver (cal::CalibrationEngine) record through it,
/// so a stepped solve is indistinguishable from a one-shot one in the
/// registry.  No-op when telemetry is compiled out.
void record_lm_solve(obs::Registry& registry, const LevMarResult& result,
                     double wall_us);

/// Per-chunk scratch for the parallel Jacobian (one parameter/residual
/// buffer set per pool chunk).  Owned by the caller so repeated Jacobian
/// evaluations (every LM iteration) reuse the allocations.
struct JacobianScratch {
  std::vector<std::vector<double>> params;
  std::vector<std::vector<double>> r_plus;
  std::vector<std::vector<double>> r_minus;
};

/// Column-parallel central-difference Jacobian of `fn` at `params`
/// (rows = residuals, cols = params): columns are statically chunked
/// over `pool`, each chunk perturbing its own copy of `params` into its
/// own residual buffers, so the result is bit-identical to the serial path
/// at any thread count.  `residual_count` is the (fixed) residual vector
/// length, which the caller already knows from evaluating `fn`.
void numeric_jacobian(const ResidualFn& fn, std::span<const double> params,
                      double epsilon, std::size_t residual_count,
                      class Matrix& jacobian, JacobianScratch& scratch,
                      util::ThreadPool& pool);

/// Everything needed to resume an interrupted LM solve at an iteration
/// boundary.  Residuals are deliberately absent: they are a deterministic
/// function of `params`, so the resume constructor recomputes them and the
/// continuation is bit-exact with the uninterrupted run.
struct LmCheckpoint {
  std::vector<double> params;
  double lambda = 0.0;
  double initial_cost = 0.0;
  int iterations = 0;
  bool converged = false;
};

/// Iteration-granular Levenberg-Marquardt: one outer LM iteration per
/// step(), with the exact arithmetic (and ordering) of the historical
/// one-shot loop — pausing after any step and resuming from checkpoint()
/// produces bit-identical parameters, costs, and iteration counts.
/// A stepper records nothing: engines driving it directly decide when a
/// "solve" happened and call record_lm_solve on fit completion
/// (cal::CalibrationEngine does).  Jacobians fan out over `ctx.pool()`.
class LmStepper {
 public:
  /// Fresh solve: evaluates the residuals at `initial_guess` once (the
  /// one-shot path's pre-loop evaluation).
  LmStepper(ResidualFn fn, std::vector<double> initial_guess,
            const LevMarOptions& options, const runtime::Context& ctx);

  /// Resume: re-evaluates the residuals at the checkpoint parameters and
  /// continues exactly where the interrupted solve stopped.
  LmStepper(ResidualFn fn, const LmCheckpoint& checkpoint,
            const LevMarOptions& options, const runtime::Context& ctx);

  /// True when the solve can take no further iteration (converged, or the
  /// iteration budget is exhausted).
  bool done() const noexcept {
    return converged_ || iterations_ >= options_.max_iterations;
  }

  /// Runs one LM iteration if not done.  Returns !done() afterwards, so
  /// `while (stepper.step()) {}` reproduces the one-shot solve.
  bool step();

  /// Resumable snapshot at the current iteration boundary.
  LmCheckpoint checkpoint() const;

  /// Result snapshot (final once done() is true).
  LevMarResult result() const;

  int iterations() const noexcept { return iterations_; }
  double cost() const noexcept { return cost_; }

 private:
  void init_residuals();

  ResidualFn fn_;
  LevMarOptions options_;
  const runtime::Context* ctx_;

  std::vector<double> params_;
  std::vector<double> residuals_;
  double cost_ = 0.0;
  double initial_cost_ = 0.0;
  double lambda_ = 0.0;
  int iterations_ = 0;
  bool converged_ = false;

  // Iteration scratch, reused across step() calls exactly as the one-shot
  // loop reused it across iterations.
  Matrix jac_;
  JacobianScratch scratch_;
  std::vector<double> step_, candidate_, cand_residuals_;
};

}  // namespace cyclops::opt
