// Online recalibration (§4's deployment story, made operational): while a
// session is serving, consume per-slot post-realignment link-margin
// residuals, let core::DriftMonitor decide when the learned Stage-2
// mapping has drifted, and incrementally refit the 12 mapping parameters
// from freshly collected aligned tuples — WITHOUT interrupting service.
// The old mapping keeps steering the beam while refit iterations run as
// scheduler events; the refreshed mapping swaps in atomically at the end.
//
// Stage 1 is never re-learned online (the GMA's K-space model is factory
// property); this is exactly the paper's "only re-training that needs to
// be re-done is the mapping step".
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/calibration.hpp"
#include "core/drift_monitor.hpp"
#include "core/gma_model.hpp"
#include "core/mapping_calibration.hpp"
#include "geom/pose.hpp"
#include "opt/levmar.hpp"
#include "runtime/context.hpp"
#include "sim/prototype.hpp"
#include "util/sim_clock.hpp"

namespace cyclops::cal {

struct OnlineRefitOptions {
  /// Aligned tuples required before a refit may start.
  int min_samples = 24;
  /// Ring capacity for freshly admitted tuples (oldest evicted).
  int buffer_capacity = 48;
  opt::LevMarOptions options;
};

/// The serving-side refit core: drift detection + sample admission +
/// iteration-granular mapping refit.  Owns the current mapping poses; a
/// caller rebuilds its PointingSolver from map_tx()/map_rx() after each
/// finish_refit().
class OnlineRecalibrator {
 public:
  OnlineRecalibrator(core::GmaModel tx_kspace, core::GmaModel rx_kspace,
                     const geom::Pose& map_tx, const geom::Pose& map_rx,
                     const core::DriftMonitorConfig& monitor,
                     const OnlineRefitOptions& options,
                     const runtime::Context& ctx = runtime::Context::default_ctx());

  const geom::Pose& map_tx() const noexcept { return map_tx_; }
  const geom::Pose& map_rx() const noexcept { return map_rx_; }

  /// Installs the commissioning baseline: rebuilds the drift monitor with
  /// `healthy_power_dbm` measured from the live link's first window.
  /// Discards any evidence fed before arming.
  void arm(double healthy_power_dbm);

  /// Feeds one post-realignment power residual (drift evidence only).
  void on_power(double power_dbm);

  /// Admits a freshly *verified-aligned* tuple to the refit ring (oldest
  /// evicted at capacity).  Does not touch the drift monitor.
  void admit(const core::AlignedSample& sample);

  /// Convenience: admit(sample) + on_power(power_dbm).
  void observe(const core::AlignedSample& sample, double power_dbm);

  /// True when the monitor has latched drift, enough fresh tuples are
  /// buffered, and no refit is in flight.
  bool refit_pending() const noexcept;
  bool refit_active() const noexcept { return stepper_.has_value(); }

  /// Freezes the buffered tuples and starts an LM refit seeded from the
  /// current mapping.  `now_us` stamps the refit-latency metric.
  void begin_refit(util::SimTimeUs now_us);

  /// One LM iteration.  Returns true while more iterations remain.
  bool step_refit();

  /// Installs the refreshed mapping, resets the drift monitor (hysteresis
  /// release), clears the buffer, and records the cal_* metrics.
  /// Returns the refit's fit report.
  core::MappingFitReport finish_refit(util::SimTimeUs now_us);

  int refits() const noexcept { return refits_; }
  int buffered() const noexcept { return static_cast<int>(buffer_.size()); }
  const core::DriftMonitor& monitor() const noexcept { return monitor_; }
  core::DriftMonitor& monitor() noexcept { return monitor_; }

 private:
  core::GmaModel tx_kspace_, rx_kspace_;
  geom::Pose map_tx_, map_rx_;
  core::DriftMonitor monitor_;
  OnlineRefitOptions options_;
  const runtime::Context* ctx_;

  std::vector<core::AlignedSample> buffer_;
  /// The ring as frozen at begin_refit, kept for finish_mapping_fit's
  /// coincidence stats (the residual function owns its own trace of it).
  std::vector<core::AlignedSample> refit_samples_;
  std::optional<opt::LmStepper> stepper_;
  util::SimTimeUs refit_started_us_ = 0;
  int refits_ = 0;
};

/// The drift-injection scenario: a slow VRH-T frame drift (rotation +
/// translation ramp over the session) plus a step perturbation partway
/// through, plus a slow RX galvo gain drift — the re-deployment/VRH-drift
/// conditions of §4.  Frame drift corrupts the *reports* (the physical
/// world is untouched); gain drift scales the voltages the RX galvos
/// actually apply.
struct DriftInjection {
  double ramp_angle_rad = 0.010;      ///< Frame-rotation ramp (full session).
  double ramp_translation_m = 0.010;  ///< Frame-translation ramp.
  double step_angle_rad = 0.0015;     ///< Step perturbation (added at once).
  double step_translation_m = 0.0015;
  double step_at_fraction = 0.55;     ///< Session fraction where the step hits.
  double galvo_gain_drift = 0.003;    ///< Relative RX gain error at session end.
};

struct OnlineRecalConfig {
  double duration_s = 2.0;
  util::SimTimeUs slot_us = 1000;
  std::uint32_t window_slots = 50;
  /// false = frozen-calibration baseline: identical slot stream, no refit.
  bool online = true;
  std::uint64_t seed = 1;
  DriftInjection drift;
  /// healthy_power_dbm is overridden at runtime from the first window's
  /// measured mean (the commissioning baseline).
  core::DriftMonitorConfig monitor{-10.5, 2.0, 32, 16};
  /// Every Nth slot, polish the solver's voltages against measured power
  /// and admit the tuple to the refit buffer.
  int sample_every_slots = 4;
  /// Coordinate-descent polish rounds per admitted sample.
  int polish_rounds = 3;
  OnlineRefitOptions refit;
  /// Refit event cadence: LM iterations per event / event spacing.
  int fit_iters_per_event = 6;
  util::SimTimeUs fit_interval_us = 500;
  /// Rig-pose excursion box while serving (sample diversity).
  double pose_position_extent = 0.08;
  double pose_angle_extent = 0.06;
};

struct OnlineRecalWindow {
  double avg_margin_db = 0.0;
  double up_fraction = 0.0;
  bool refit_active = false;
};

struct OnlineRecalResult {
  std::uint64_t events = 0;
  std::uint64_t slots = 0;
  std::uint64_t windows = 0;
  int refits = 0;
  std::uint64_t down_slots = 0;
  /// Windows in which a slot was down *while a refit was in flight* —
  /// the "refit without outage" gate counts these.  Down slots before
  /// the monitor latches are drift outage, not refit outage.
  std::uint64_t refit_down_windows = 0;
  std::uint64_t refit_windows = 0;
  double avg_margin_db = 0.0;
  /// Mean window margin over the first/last quarter of the session (the
  /// pre-drift baseline and the post-drift outcome).
  double early_margin_db = 0.0;
  double tail_margin_db = 0.0;
  double up_fraction = 0.0;
  std::vector<OnlineRecalWindow> window_stats;
};

/// Runs one drift-injected serving session on an event scheduler: slot
/// events realign via the pointing solver, admit polished tuples, and —
/// when `config.online` — refit the mapping in flight.  The scheduler
/// rides ctx.clock() (reset to 0); the refits run on ctx's pool and
/// record into its registry.  Deterministic given (proto seed,
/// config.seed); the frozen baseline (online=false) sees the *identical*
/// slot stream, so twin runs isolate exactly the recalibration effect.
OnlineRecalResult run_online_recal_session(sim::Prototype& proto,
                                           const core::CalibrationResult& calibration,
                                           const OnlineRecalConfig& config,
                                           const runtime::Context& ctx);

}  // namespace cyclops::cal
