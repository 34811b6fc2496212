// VRH-T drift detection and mapping refresh.
//
// §4's deployment story: "in case of re-deployment or VRH-T drift, the
// only re-training (calibration) that needs to be re-done is the mapping
// step."  This module supplies the missing operational piece — noticing
// the drift.  The TP controller expects near-peak power right after every
// realignment; a persistent post-realignment shortfall (while the link
// still works) means the learned mapping no longer matches the tracker's
// frame.  The monitor tracks an EMA of the post-realignment margin and
// raises a recalibration flag when it degrades past a threshold.
#pragma once

#include "util/sim_clock.hpp"

namespace cyclops::core {

struct DriftMonitorConfig {
  /// Expected post-realignment received power when healthy (dBm).
  double healthy_power_dbm = -10.5;
  /// Degradation (dB below healthy) that flags drift.
  double drift_threshold_db = 6.0;
  /// EMA time constant over realignment samples.
  int window_samples = 64;
  /// Samples required before the monitor can flag anything.
  int min_samples = 32;
};

class DriftMonitor {
 public:
  explicit DriftMonitor(DriftMonitorConfig config) : config_(config) {}

  /// Feeds the received power measured shortly after a realignment
  /// settles (i.e. when the beam should be at its best).
  void on_post_realignment_power(double power_dbm);

  /// Smoothed post-realignment power (dBm).
  double smoothed_power_dbm() const noexcept { return ema_; }

  /// True when the mapping should be re-learned (Stage 2 only).  The flag
  /// latches: once the EMA has crossed `healthy - threshold` (strictly
  /// below — an EMA sitting exactly at the boundary does not flag) it
  /// stays raised until reset(), so a refit in flight is not cancelled by
  /// the EMA wobbling back over the line (hysteresis).
  bool recalibration_needed() const noexcept;

  /// Call after re-running the mapping step.  Clears the EMA, the sample
  /// count, and the latched flag.
  void reset();

  int samples() const noexcept { return samples_; }
  const DriftMonitorConfig& config() const noexcept { return config_; }

 private:
  DriftMonitorConfig config_;
  double ema_ = 0.0;
  int samples_ = 0;
  bool latched_ = false;
};

}  // namespace cyclops::core
