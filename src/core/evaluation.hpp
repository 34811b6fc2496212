// Evaluation of learned-model accuracy against simulator ground truth —
// the quantities behind Table 2's "combined" rows and the TP-accuracy
// experiment of §5.2.  Nothing here feeds back into the learner.
#pragma once

#include "core/calibration.hpp"
#include "core/pointing.hpp"
#include "sim/prototype.hpp"
#include "util/thread_pool.hpp"

namespace cyclops::core {

struct ModelErrorStats {
  double avg_m = 0.0;
  double max_m = 0.0;
  int samples = 0;
};

struct CombinedErrors {
  ModelErrorStats tx;
  ModelErrorStats rx;
};

/// "Combined" (stage 1 + stage 2) model error: over `n_test` random rig
/// poses with exhaustively aligned voltages, the distance between where
/// the learned chain predicts each beam lands on the opposite mirror-2
/// plane and where the physical beam actually lands.  The alignment
/// rasters fan out over the process-wide pool: perfbench's calibration
/// workload calls this six-argument signature, so no caller pool reaches
/// it.
CombinedErrors evaluate_combined_errors(sim::Prototype& proto,
                                        const CalibrationResult& calib,
                                        int n_test, double pose_extent,
                                        double angle_extent, util::Rng& rng);

struct TpAccuracySample {
  double power_dbm = 0.0;       ///< After TP realignment.
  double optimal_power_dbm = 0.0;  ///< After exhaustive alignment.
  bool link_up = false;         ///< Power above sensitivity after TP.
  int pointing_iterations = 0;
};

/// §5.2's lock test: move the rig to a random pose, run P once from the
/// (noisy) tracker report, and compare against the exhaustive optimum
/// (its rasters fan out over `pool`).
std::vector<TpAccuracySample> run_lock_tests(sim::Prototype& proto,
                                             const PointingSolver& solver,
                                             int n_tests, double pose_extent,
                                             double angle_extent,
                                             util::Rng& rng,
                                             util::ThreadPool& pool);

}  // namespace cyclops::core
