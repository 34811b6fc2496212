// phy::Channel adapter for the 60 GHz mmWave baseline (§1, §2.1): the
// 802.11ad MCS ladder, LOS blockage, and beam retraining become channel
// state behind the unified interface, so the same session core that runs
// the FSO link can run — and be compared against — the baseline.
//
// Metric: received SNR in dB.  power_at folds the blockage penalty in and
// accumulates head rotation from consecutive poses (the beam-training
// trigger), so call it once per slot in time order.  rate_for is the
// ideal-adaptation MCS ladder times MAC efficiency; step() reports the
// retraining outages.
//
// The channel owns the per-session mmWave state: beam training plus the
// retrain / MCS-dwell / blockage-span telemetry.  Metrics (all sim-time,
// deterministic):
//   mmwave_retrains_total            — beam re-trainings triggered.
//   mmwave_retrain_slots_total       — slots with traffic blocked by one.
//   mmwave_blocked_slots_total       — slots with the LOS path blocked.
//   mmwave_mcs_dwell_us{mcs=<i>}     — time spent on each MCS rung
//                                      (rung 0 = below the ladder).
//   mmwave_blockage_us               — contiguous blockage span lengths.
#pragma once

#include <functional>

#include "baseline/mmwave.hpp"
#include "geom/vec3.hpp"
#include "obs/registry.hpp"
#include "phy/channel.hpp"
#include "runtime/context.hpp"

namespace cyclops::phy {

struct MmWaveChannelConfig {
  baseline::MmWaveConfig radio;
  /// Access-point position (the ceiling unit the phased array tracks).
  geom::Vec3 ap_position{0.0, 2.2, 0.0};
  /// Optional LOS obstruction (e.g. a passer-by); costs
  /// radio.blockage_loss_db while true.
  std::function<bool(util::SimTimeUs)> blockage;
};

class MmWaveChannel final : public Channel {
 public:
  /// Telemetry lands in ctx.registry() (per-session isolation — the
  /// baseline plane never reaches for the process-wide registry itself).
  MmWaveChannel(MmWaveChannelConfig config, const runtime::Context& ctx);

  const ChannelInfo& info() const noexcept override { return info_; }

  double power_at(const geom::Pose& rig_pose, util::SimTimeUs t) override;
  double rate_for(double snr_db) const override;
  bool step(util::SimTimeUs now, double snr_db) override;

  /// Flushes the open MCS-dwell / blockage spans into the registry.  Call
  /// once at session end.
  void finish(util::SimTimeUs now);

  int retrains() const noexcept { return training_.retrains(); }
  const baseline::MmWaveLink& link() const noexcept { return link_; }

 private:
  void record_mcs(util::SimTimeUs now, int mcs);

  MmWaveChannelConfig config_;
  baseline::MmWaveLink link_;
  baseline::BeamTrainingState training_;
  ChannelInfo info_;
  bool have_pose_ = false;
  geom::Pose last_pose_;
  double cum_rotation_rad_ = 0.0;
  bool last_blocked_ = false;

  int cur_mcs_ = -1;  ///< -1 until the first stepped slot.
  util::SimTimeUs mcs_since_ = 0;
  int blocked_state_ = -1;  ///< -1 / 0 / 1: unknown / clear / blocked.
  util::SimTimeUs blocked_since_ = 0;

  // Metric handles, hoisted by the constructor.
  obs::Registry* registry_ = nullptr;
  obs::Counter* m_retrains_ = nullptr;
  obs::Counter* m_retrain_slots_ = nullptr;
  obs::Counter* m_blocked_slots_ = nullptr;
  obs::Histogram* m_blockage_us_ = nullptr;
};

}  // namespace cyclops::phy
