// Stage 1 (§4.1): learn a GMA's model parameters in its K-space rig.
//
// Lab procedure being reproduced: the GMA sits ~1.5 m in front of a planar
// board with a 20x15 grid of 1-inch cells (K-space x-y plane is the board).
// For each of the 266 interior grid points the experimenter finds the
// voltage pair that steers the beam onto the point (to within hand/eye
// accuracy), yielding 4-tuples (x, y, v1, v2).  Nonlinear least squares
// then recovers the GalvoParams minimizing the board-plane hit error,
// seeded with the manufacturer's CAD values.
#pragma once

#include <vector>

#include "core/gma_model.hpp"
#include "core/gprime.hpp"
#include "galvo/galvo_mirror.hpp"
#include "geom/pose.hpp"
#include "opt/levmar.hpp"
#include "util/rng.hpp"

namespace cyclops::core {

/// One training tuple: board point (m) and the voltages that hit it.
struct BoardSample {
  double x = 0.0;
  double y = 0.0;
  double v1 = 0.0;
  double v2 = 0.0;
};

struct BoardConfig {
  int cells_x = 20;
  int cells_y = 15;
  double cell_size = 0.0254;  ///< 1 inch.
  /// Hand-alignment accuracy: achieved hit point vs grid point (per-axis
  /// Gaussian sigma, m).
  double alignment_sigma = 0.8e-3;
};

/// Emulates the lab data collection against the *physical* galvo mounted
/// at `k_from_gma` in the board rig.  Only interior grid points are used
/// (19 x 14 = 266 for the default board).  The internal G' solves tally
/// into `ctx.registry()`.  (An adapter over BoardSampleCollector.)
std::vector<BoardSample> collect_board_samples(
    const galvo::GalvoMirror& physical_galvo, const geom::Pose& k_from_gma,
    const BoardConfig& config, util::Rng& rng, const runtime::Context& ctx);

/// Grid-point-granular board collection: one step() per interior grid
/// point, drawing the same rng values in the same order as the one-shot
/// loop, so the sample set (and the caller's rng stream) is bit-identical
/// however the steps are sliced across events.  Checkpointable: state()
/// plus the samples so far fully determine the continuation.
class BoardSampleCollector {
 public:
  /// Resumable scalar state (the grid cursor and the G' warm start).
  struct State {
    int i = 1;
    int j = 1;
    double v1 = 0.0;
    double v2 = 0.0;
  };

  /// `physical_galvo` must outlive the collector.  The G' solves tally
  /// into `ctx.registry()`.
  BoardSampleCollector(const galvo::GalvoMirror& physical_galvo,
                       const geom::Pose& k_from_gma, const BoardConfig& config,
                       const runtime::Context& ctx);

  bool done() const noexcept { return state_.i >= config_.cells_x; }

  /// Processes one grid point (draws the hand-alignment noise, runs G',
  /// records the sample if usable).  Returns !done() afterwards.
  bool step(util::Rng& rng);

  const std::vector<BoardSample>& samples() const noexcept { return samples_; }
  std::vector<BoardSample> take_samples() { return std::move(samples_); }

  const State& state() const noexcept { return state_; }
  /// Restores a checkpointed collection mid-grid.
  void restore(const State& state, std::vector<BoardSample> samples) {
    state_ = state;
    samples_ = std::move(samples);
  }

 private:
  const galvo::GalvoMirror* galvo_;
  GmaModel truth_in_k_;
  BoardConfig config_;
  GPrimeSolver solver_;
  std::vector<BoardSample> samples_;
  State state_;
};

struct KSpaceFitReport {
  GmaModel model;          ///< Learned model, expressed in K-space.
  double avg_error_m = 0.0;  ///< Mean board-plane hit error over samples.
  double max_error_m = 0.0;
  int optimizer_iterations = 0;
  bool converged = false;
};

/// Board-plane hit error of `model` against the samples (used for both the
/// fit report and held-out evaluation).
double board_error(const GmaModel& model, const BoardSample& sample);

/// Fits the 25 GalvoParams to the samples, seeded by `initial_guess`
/// (nominal CAD geometry placed at the nominal rig pose).  The LM solve
/// runs on `ctx` (its pool and its registry).  (An adapter over
/// make_kspace_problem / finish_kspace_fit.)
KSpaceFitReport fit_kspace_model(
    const std::vector<BoardSample>& samples, const GmaModel& initial_guess,
    const opt::LevMarOptions& options, const runtime::Context& ctx);

/// The Stage-1 fit as data — a residual function plus the packed initial
/// parameters — so an iteration-granular driver (opt::LmStepper inside
/// cal::CalibrationEngine) can run the same least-squares problem one LM
/// iteration at a time.  The residual function captures `samples` by
/// reference: the vector must outlive the returned problem.
struct KSpaceFitProblem {
  opt::ResidualFn residuals;
  std::vector<double> initial;
};

KSpaceFitProblem make_kspace_problem(const std::vector<BoardSample>& samples,
                                     const GmaModel& initial_guess);

/// Turns a finished LM solve over make_kspace_problem back into the
/// report fit_kspace_model returns (model unpack + error stats).
KSpaceFitReport finish_kspace_fit(const std::vector<BoardSample>& samples,
                                  const opt::LevMarResult& fit);

/// The customary initial guess: CAD-nominal galvo at the nominal board-rig
/// placement (board_distance in front of the board, boresight at center).
GmaModel nominal_kspace_guess(double board_distance);

}  // namespace cyclops::core
