// The resumable calibration engine: the §4 two-stage pipeline
// (Stage-1 board collection + K-space fits, Stage-2 aligned-tuple
// collection + mapping fit, multi-start retries) decomposed into small
// uniform steps so a calibration can be paused, checkpointed to disk
// (cal/checkpoint.hpp) and resumed — with arithmetic bit-identical to the
// historical one-shot core::calibrate_prototype, which survives as a thin
// adapter over this engine.
//
// One step() is:
//   * one board grid point (collect phases — core::BoardSampleCollector),
//   * one LM iteration (fit phases — opt::LmStepper),
//   * one aligned-sample attempt (Stage-2 collection),
//   * one multi-start (blind Stage-2: a full inner LM solve per step).
//
// Determinism contract: however the steps are sliced across calls (or
// checkpoint/resume cycles), the engine draws the same RNG
// values in the same order as the one-shot pipeline, so the resulting
// CalibrationResult — and the caller-visible RNG stream — are
// bit-identical.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/calibration.hpp"
#include "core/exhaustive_aligner.hpp"
#include "core/kspace_calibration.hpp"
#include "core/mapping_calibration.hpp"
#include "galvo/galvo_mirror.hpp"
#include "opt/levmar.hpp"
#include "runtime/context.hpp"
#include "sim/prototype.hpp"
#include "util/rng.hpp"

namespace cyclops::cal {

/// Pipeline position.  The numeric values are part of the checkpoint
/// format (cal/checkpoint.hpp) — append, never renumber.
enum class Phase : int {
  kStage1TxCollect = 0,
  kStage1TxFit = 1,
  kStage1RxCollect = 2,
  kStage1RxFit = 3,
  kStage2Collect = 4,
  kStage2Fit = 5,      ///< Direct 12-parameter fit from the manual guesses.
  kStage2BlindA = 6,   ///< Blind install: 6-D TX multi-starts.
  kStage2BlindB = 7,   ///< Blind install: RX multi-starts + joint polish.
  kStage2Retry = 8,    ///< Jittered-guess retries while the residual is poor.
  kDone = 9,
};

const char* phase_name(Phase phase) noexcept;

/// The engine's resumable state, listed once: every field a checkpoint
/// persists (cal/checkpoint.hpp) apart from the live RNG, the board
/// collector's cursor and the in-flight LM solve.
struct EngineState {
  Phase phase = Phase::kStage1TxCollect;
  std::uint64_t steps = 0;

  // Stage 1.  (The reports are optional because GmaModel — deliberately —
  // has no default state.)
  std::vector<core::BoardSample> tx_samples, rx_samples;
  std::optional<core::KSpaceFitReport> tx_report, rx_report;

  // Stage 2.
  std::vector<core::AlignedSample> tuples;
  sim::Voltages hint{};
  int stage2_i = 0;
  geom::Pose tx_guess, rx_guess;
  core::MappingFitReport mapping;

  // Blind Stage-2 sub-state (the multi-start search).
  geom::Vec3 blind_centroid{};
  int blind_a = 0, blind_b = 0;
  std::array<double, 6> blind_tx_best{};
  double blind_tx_best_value = 1e18;
  geom::Pose blind_tx_seed;
  core::MappingFitReport blind_best;
  double blind_best_value = 1e18;

  // Retry sub-state.
  int retry_attempt = 0;
  geom::Pose retry_tx, retry_rx;
};

struct EngineCheckpoint;

class CalibrationEngine {
 public:
  /// `proto` must outlive the engine; the engine mutates its scene (rig
  /// poses during Stage-2 collection) exactly as the one-shot pipeline
  /// did and restores the nominal pose on completion.  The engine owns a
  /// copy of `rng` — read the advanced stream back via rng_state().
  /// Every solve and alignment raster runs on `ctx`: its pool for the
  /// fan-out, its registry for the telemetry.  `ctx` must outlive the
  /// engine.
  CalibrationEngine(sim::Prototype& proto,
                    const core::CalibrationConfig& config,
                    const util::Rng& rng, const runtime::Context& ctx);
  CalibrationEngine(const CalibrationEngine&) = delete;
  CalibrationEngine& operator=(const CalibrationEngine&) = delete;

  /// Runs one pipeline step.  Returns !done() afterwards, so
  /// `while (engine.step()) {}` reproduces calibrate_prototype.
  bool step();

  bool done() const noexcept { return state_.phase == Phase::kDone; }
  Phase phase() const noexcept { return state_.phase; }
  /// Steps taken so far (monotonic; survives checkpoint/resume).
  std::uint64_t steps() const noexcept { return state_.steps; }

  /// The engine's RNG stream (for handing back to a caller-owned Rng).
  util::RngState rng_state() const noexcept { return rng_.state(); }

  /// Valid once done().
  const core::CalibrationResult& result() const noexcept { return *result_; }
  core::CalibrationResult take_result() { return std::move(*result_); }

  /// Snapshot at the current step boundary.  Restoring it into a fresh
  /// engine built against the *same* prototype/config/context continues
  /// the calibration bit-exactly.  restore() throws std::runtime_error
  /// when the checkpoint cannot resume under this engine's config (phase
  /// out of range, missing Stage-1 models, an LM record absent or sized
  /// for another problem, a board cursor outside the grid); the engine
  /// must not be stepped after such a throw.
  EngineCheckpoint checkpoint() const;
  void restore(const EngineCheckpoint& checkpoint);

 private:
  void step_stage1_collect();
  void step_stage1_fit();
  void step_stage2_collect();
  void step_stage2_fit();
  void step_blind_a();
  void step_blind_b();
  void step_retry();
  void finalize();

  void begin_tx_collect();
  void begin_rx_collect();
  void begin_stage2_fit();
  void begin_blind();
  void enter_blind_b();
  void begin_retry_fit();

  /// One LmStepper iteration with wall accounting; records the finished
  /// solve through opt::record_lm_solve, as levenberg_marquardt does.
  bool lm_step_and_record();

  sim::Prototype* proto_;
  core::CalibrationConfig config_;
  const runtime::Context* ctx_;
  util::Rng rng_;

  galvo::GalvoSpec spec_;
  core::GmaModel guess_;

  EngineState state_;

  std::optional<galvo::GalvoMirror> galvo_;
  std::optional<core::BoardSampleCollector> collector_;

  // The in-flight LM solve (Stage-1 fits, Stage-2 direct fit, retries).
  std::optional<opt::LmStepper> lm_;
  double lm_wall_us_ = 0.0;

  std::optional<core::ExhaustiveAligner> aligner_;
  opt::ResidualFn blind_tx_residuals_;

  std::optional<core::CalibrationResult> result_;
};

}  // namespace cyclops::cal
