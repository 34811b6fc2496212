// Shared infrastructure for the reproduction harness binaries in bench/.
//
// Each bench/ binary regenerates one table or figure from the paper's
// evaluation (§5).  The helpers here implement the shared lab procedures:
// building a calibrated rig and sweeping motion speeds with the TP loop
// closed (core/tolerance.hpp measures the movement tolerances).  Every
// helper runs on the runtime::Context its binary owns — typically
// Context::isolated({.threads = 0}), a pool as wide as CYCLOPS_THREADS.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "core/calibration.hpp"
#include "link/fso_link.hpp"
#include "motion/profile.hpp"
#include "runtime/context.hpp"
#include "sim/prototype.hpp"
#include "util/bench_io.hpp"

namespace cyclops::bench {

/// Timing + JSON reporting now live in util/bench_io.hpp (so src/ code —
/// e.g. the event engine's trace hooks — can use them too); aliased here
/// so the harness binaries keep their spelling.
using util::Timer;
using util::write_bench_json;

/// A prototype with its calibration — the starting point of every
/// experiment.
struct CalibratedRig {
  sim::Prototype proto;
  core::CalibrationResult calib;
};

/// Calibrates on `ctx`; the rig's solvers (make_pointing_solver) take the
/// context again.
CalibratedRig make_calibrated_rig(std::uint64_t seed,
                                  const sim::PrototypeConfig& config,
                                  const runtime::Context& ctx);

enum class StrokeKind { kLinear, kAngular };

struct SpeedSweepRow {
  double speed = 0.0;           ///< m/s or rad/s.
  double throughput_gbps = 0.0; ///< Median over moving windows.
  double power_dbm = 0.0;       ///< Median over moving windows.
  double up_fraction = 0.0;
};

/// A closed loop with the fixed-step oracle's signature.
using LinkSimulator = link::RunResult (*)(sim::Prototype&,
                                          core::TpController&,
                                          const motion::MotionProfile&,
                                          const runtime::Context&,
                                          const link::SimOptions&);

/// The §5.3 protocol: one full stroke per speed, starting from an aligned
/// link each time (the paper pauses to re-acquire after every loss).
/// `simulate` runs each stroke; nullptr runs the production loop,
/// link::run_link_simulation.  fig13 also runs the test-only fixed-step
/// oracle and asserts bitwise-equal output.
std::vector<SpeedSweepRow> stroke_speed_sweep(
    CalibratedRig& rig, StrokeKind kind, const std::vector<double>& speeds,
    const runtime::Context& ctx, LinkSimulator simulate = nullptr);

/// Largest swept speed whose throughput stayed optimal (>= 98 % of
/// goodput).  Returns 0 if none.
double max_optimal_speed(const std::vector<SpeedSweepRow>& rows,
                         double goodput_gbps);

/// Mixed-motion characterization: run hand-held motion with the given
/// speed caps, return the aggregate windows.
link::RunResult mixed_motion_run(CalibratedRig& rig, double max_linear_mps,
                                 double max_angular_rps, double duration_s,
                                 std::uint64_t seed,
                                 const runtime::Context& ctx);

/// Per-window alignment capability bucketed by measured speeds — the
/// paper's way of reading Figs 14/15: "optimal throughput for motions
/// undergoing simultaneous speeds below X and Y".  A window counts as
/// aligned when its worst-slot power stays above the SFP sensitivity
/// (independent of the 2 s re-acquisition state machine, which would
/// otherwise blame slow windows for an earlier fast one).
struct MixedBucket {
  double speed_lo = 0.0;      ///< Bucket lower edge (m/s or rad/s).
  int windows = 0;
  int aligned = 0;
  double aligned_fraction() const {
    return windows > 0 ? static_cast<double>(aligned) / windows : 0.0;
  }
};

struct MixedCharacterization {
  std::vector<MixedBucket> by_linear;   ///< Windows with angular < ang_limit.
  std::vector<MixedBucket> by_angular;  ///< Windows with linear < lin_limit.
  /// Largest bucket edges with >= 95 % aligned windows (and some data).
  double sustained_linear_mps = 0.0;
  double sustained_angular_rps = 0.0;
};

MixedCharacterization characterize_mixed(
    CalibratedRig& rig, double cap_linear_mps, double cap_angular_rps,
    double lin_limit, double ang_limit, double duration_s, std::uint64_t seed,
    const runtime::Context& ctx);

/// Formats "x.xx" with the given precision (printf wrapper for tables).
std::string fmt(double v, int precision = 2);

}  // namespace cyclops::bench
