// End-to-end calibration pipeline: Stage 1 for both GMAs, Stage-2 sample
// collection with the exhaustive aligner, and the joint mapping fit.
// This is the "deployment" procedure of §4: done once per install (plus
// re-running Stage 2 on re-deployment or VRH-T drift).
#pragma once

#include "core/exhaustive_aligner.hpp"
#include "core/kspace_calibration.hpp"
#include "core/mapping_calibration.hpp"
#include "core/pointing.hpp"
#include "sim/prototype.hpp"
#include "util/rng.hpp"

namespace cyclops::core {

struct CalibrationConfig {
  BoardConfig board;
  /// Number of aligned-link tuples for Stage 2 (~30 in the paper).
  int stage2_samples = 30;
  /// Manual-measurement error of the deployment used to seed Stage 2.
  double guess_position_sigma = 0.03;
  double guess_angle_sigma = 0.05;
  /// Rig-pose excursions around nominal while collecting Stage-2 samples.
  /// The angle extent keeps the needed GM voltages inside the region the
  /// Stage-1 board samples actually covered (the board subtends ~±3 V on
  /// the second mirror at 1.5 m).
  double pose_position_extent = 0.20;
  double pose_angle_extent = 0.12;
  AlignerOptions aligner;
  opt::LevMarOptions stage1_options;
  opt::LevMarOptions stage2_options;
  /// Self-calibrating install: ignore the manual-measurement guesses and
  /// solve Stage 2 globally — multi-start LM over SO(3), the engine's
  /// kStage2BlindA/kStage2BlindB phases (cal/engine.hpp).  Slower, needs
  /// zero deployment knowledge.
  bool blind_stage2 = false;
};

struct CalibrationResult {
  KSpaceFitReport tx_stage1;
  KSpaceFitReport rx_stage1;
  MappingFitReport mapping;
  std::vector<AlignedSample> stage2_samples;

  /// `ctx` routes the solver's G' telemetry.
  PointingSolver make_pointing_solver(PointingOptions options,
                                      const runtime::Context& ctx) const {
    return PointingSolver(tx_stage1.model, rx_stage1.model, mapping.map_tx,
                          mapping.map_rx, options, ctx);
  }
};

/// Draws a random rig pose in the Stage-2 excursion box around nominal.
geom::Pose random_rig_pose(const geom::Pose& nominal, double position_extent,
                           double angle_extent, util::Rng& rng);

/// Draws a small random pose perturbation (axis from 3 normals, angle
/// N(0, angle_sigma), translation N(0, pos_sigma) per axis) — the model
/// of manual-measurement error used to seed and retry the Stage-2 fit.
geom::Pose random_pose_error(util::Rng& rng, double pos_sigma,
                             double angle_sigma);

/// The calibration a flawless install would learn: the prototype's
/// ground-truth galvo models (in K-space) and mappings, every report
/// converged with zero error.  Sessions and benches that measure the link
/// or the recal plane, not the offline pipeline, start from it.
CalibrationResult truth_calibration(const sim::Prototype& proto);

/// Runs the full pipeline on a prototype.  Leaves the scene at the
/// nominal rig pose.  Deterministic given `rng`.  Every optimizer and
/// aligner inside runs on `ctx` — pool for the fan-out, registry for the
/// `lm_*` telemetry.
///
/// Defined in cyclops_cal (cal/engine.cpp) as a thin adapter that drives
/// cal::CalibrationEngine to completion — bit-exact with the historical
/// one-shot pipeline, including the caller-visible `rng` stream state.
CalibrationResult calibrate_prototype(
    sim::Prototype& proto, const CalibrationConfig& config, util::Rng& rng,
    const runtime::Context& ctx);

}  // namespace cyclops::core
