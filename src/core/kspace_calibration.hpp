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

#include <optional>
#include <type_traits>
#include <vector>

#include "core/gma_model.hpp"
#include "core/gprime.hpp"
#include "galvo/galvo_mirror.hpp"
#include "geom/pose.hpp"
#include "opt/levmar.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

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

/// One board sample traced at a Stage-1 Jacobian's base point, with every
/// part a probe may reuse: both mirror angles with their cos and sin, both
/// mirror rotations, both rotated mirror normals and their unit vectors,
/// and the first leg.
struct BaseTrace {
  geom::AngleTrig a1, a2;
  geom::Mat3 rot1, rot2;  ///< R(r1, θ1·v1) and R(r2, θ1·v2).
  geom::Vec3 n1, n2;      ///< The rotated mirror normals.
  geom::Vec3 unit1, unit2;  ///< n1 and n2, normalized().
  std::optional<geom::Ray> first_leg;
};

/// `model` traced at (v1, v2) into `at`, every part kept.  Its second
/// leg, model.second_leg(at.first_leg, {q2, at.n2}, at.unit2), is
/// model.trace(v1, v2) bit for bit.
void trace_base(const GmaModel& model, double v1, double v2, BaseTrace& at);

/// One sample's ray for a Jacobian probe of the GalvoParams field that
/// starts at column `Field`: `model` is the base model with that field
/// moved (GmaModel::with_field) and `base` the sample traced at the base
/// point.  It re-traces only what the field moves and reuses the rest
/// (DESIGN §5 lists what each field reuses; θ1 reads nothing from
/// `base`), so the ray is model.trace(sample.v1, sample.v2) bit for bit.
/// The field is a compile-time constant, so a probe's loop over samples
/// runs its one path inlined.
template <std::size_t Field>
std::optional<geom::Ray> probe_trace(const GmaModel& model,
                                     const BaseTrace& base,
                                     const BoardSample& sample) {
  using P = galvo::GalvoParams;
  const galvo::GalvoGeometry& geometry = model.geometry();
  const geom::Vec3 &q1 = model.params().q1, &q2 = model.params().q2;
  if constexpr (Field == P::kN1) {
    return model.second_leg(model.first_leg(geometry.mirror1_plane(base.rot1)),
                            {q2, base.n2}, base.unit2);
  } else if constexpr (Field == P::kR1) {
    return model.second_leg(model.first_leg(geometry.mirror1_plane(base.a1)),
                            {q2, base.n2}, base.unit2);
  } else if constexpr (Field == P::kN2) {
    return model.second_leg(base.first_leg, geometry.mirror2_plane(base.rot2));
  } else if constexpr (Field == P::kR2) {
    return model.second_leg(base.first_leg, geometry.mirror2_plane(base.a2));
  } else if constexpr (Field == P::kQ2) {
    return model.second_leg(base.first_leg, {q2, base.n2}, base.unit2);
  } else if constexpr (Field == P::kTheta1) {
    return model.trace(sample.v1, sample.v2);
  } else {  // p0, x0, q1.
    return model.second_leg(model.first_leg({q1, base.n1}, base.unit1),
                            {q2, base.n2}, base.unit2);
  }
}

/// fn(std::integral_constant<std::size_t, F>{}), F the probe_trace field
/// for the GalvoParams field holding `column` (p0, x0 and q1 share kP0's).
template <typename Fn>
decltype(auto) dispatch_field(std::size_t column, Fn&& fn) {
  using P = galvo::GalvoParams;
  using K = std::size_t;
  switch (P::field_of(column)) {
    case P::kN1: return fn(std::integral_constant<K, P::kN1>{});
    case P::kR1: return fn(std::integral_constant<K, P::kR1>{});
    case P::kN2: return fn(std::integral_constant<K, P::kN2>{});
    case P::kR2: return fn(std::integral_constant<K, P::kR2>{});
    case P::kQ2: return fn(std::integral_constant<K, P::kQ2>{});
    case P::kTheta1: return fn(std::integral_constant<K, P::kTheta1>{});
    default: return fn(std::integral_constant<K, P::kP0>{});
  }
}

/// The Stage-1 fit as data — a residual function, its Jacobian probes
/// (each column re-traces only what its GalvoParams field moves, bit for
/// bit) and the packed initial parameters — so an iteration-granular
/// driver (opt::LmStepper inside cal::CalibrationEngine) can run the same
/// least-squares problem one LM iteration at a time.  The residual pass
/// keeps each sample's BaseTrace, keyed by the parameters it traced, so
/// the Jacobian LM takes at the candidate it accepted starts from those
/// traces instead of tracing the samples again.  The residual function
/// and a probe factory that must trace fan the board samples out over
/// `pool`, each sample writing only its own slot, so every value is
/// bit-identical at any pool width.  Both functions capture `samples` and
/// `pool` by reference: both must outlive the problem.
struct KSpaceFitProblem {
  opt::ResidualFn residuals;
  opt::ProbeFactory probes;
  std::vector<double> initial;
};

KSpaceFitProblem make_kspace_problem(const std::vector<BoardSample>& samples,
                                     const GmaModel& initial_guess,
                                     util::ThreadPool& pool);

/// Turns a finished LM solve over make_kspace_problem back into the
/// report fit_kspace_model returns (model unpack + error stats).
KSpaceFitReport finish_kspace_fit(const std::vector<BoardSample>& samples,
                                  const opt::LevMarResult& fit);

/// The customary initial guess: CAD-nominal galvo at the nominal board-rig
/// placement (board_distance in front of the board, boresight at center).
GmaModel nominal_kspace_guess(double board_distance);

}  // namespace cyclops::core
