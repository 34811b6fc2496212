// IEEE 802.11ad-style 60 GHz mmWave link model — the state-of-the-art
// wireless-VRH technology Cyclops is motivated against (§1, §2.1: the
// HTC Vive adapter and research prototypes [22, 60] top out at a few
// Gbps).
//
// Modeled effects: Friis path loss at 60 GHz, a single-carrier MCS
// ladder up to 6.76 Gbps PHY (MAC efficiency applied), blockage (LOS
// obstruction costs tens of dB), and periodic beam retraining after the
// head rotates out of the current sector.  Deliberately favorable
// assumptions (ideal rate adaptation, instantaneous MCS switching) — the
// comparison's point is the *ceiling*, not the details.
#pragma once

#include <vector>

#include "util/sim_clock.hpp"

namespace cyclops::baseline {

struct MmWaveConfig {
  double tx_power_dbm = 10.0;
  double tx_antenna_gain_dbi = 17.0;  ///< ~32-element phased array.
  double rx_antenna_gain_dbi = 10.0;
  double carrier_ghz = 60.0;
  double bandwidth_ghz = 2.16;        ///< One 802.11ad channel.
  double noise_figure_db = 7.0;
  double implementation_loss_db = 5.0;
  double blockage_loss_db = 25.0;     ///< Human-body NLOS penalty.
  double mac_efficiency = 0.65;
  /// Sector width: rotating further than this since the last training
  /// forces a re-train.
  double beamwidth_deg = 12.0;
  double retrain_time_ms = 10.0;      ///< SLS sweep duration.
};

/// One MCS rung: minimum SNR and PHY rate.
struct McsEntry {
  double min_snr_db;
  double phy_rate_gbps;
};

/// The 802.11ad single-carrier ladder (MCS 1-12).
const std::vector<McsEntry>& mcs_table();

/// Ladder index (1-based, matching the 802.11ad MCS numbering) the SNR
/// sustains; 0 when even MCS 1 is out of reach.
int mcs_index_for(double snr_db);

class MmWaveLink {
 public:
  explicit MmWaveLink(MmWaveConfig config) : config_(config) {}

  /// Thermal noise floor (dBm) for the configured bandwidth.
  double noise_floor_dbm() const;

  /// Received SNR at `range` (m), optionally blocked.
  double snr_db(double range, bool blocked) const;

  /// Ideal-adaptation PHY rate for an SNR (0 below the lowest MCS).
  double phy_rate_gbps(double snr) const;

  /// MAC-layer goodput at `range`, accounting for blockage and whether a
  /// retrain is in progress.
  double goodput_gbps(double range, bool blocked, bool retraining) const {
    if (retraining) return 0.0;
    return phy_rate_gbps(snr_db(range, blocked)) * config_.mac_efficiency;
  }

  const MmWaveConfig& config() const noexcept { return config_; }

 private:
  MmWaveConfig config_;
};

/// Tracks the beam-training state across head rotation: call on every
/// step with the cumulative rotation angle since the session start.
class BeamTrainingState {
 public:
  explicit BeamTrainingState(const MmWaveConfig& config)
      : beamwidth_rad_(config.beamwidth_deg * 3.14159265358979 / 180.0),
        retrain_us_(static_cast<util::SimTimeUs>(config.retrain_time_ms *
                                                 1000.0)) {}

  /// Returns true while a retrain blocks traffic.
  bool step(util::SimTimeUs now, double orientation_rad);

  int retrains() const noexcept { return retrains_; }

 private:
  double beamwidth_rad_;
  util::SimTimeUs retrain_us_;
  double trained_at_rad_ = 0.0;
  util::SimTimeUs retrain_done_ = 0;
  int retrains_ = 0;
};

}  // namespace cyclops::baseline
