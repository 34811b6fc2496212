// phy::Channel adapter for the Cyclops FSO optics chain: the calibrated
// scene (diverging beam, GM steering, fiber coupling) plus the SFP's
// rate/sensitivity table and re-acquisition state machine.  One adapter
// covers both prototypes — 10G SFP+ ZR and 25G SFP28 — since the spec
// rides in SceneConfig::sfp.
//
// The metric is the received optical power (dBm) at the currently applied
// GM voltages; the steering plane (tracker + TP controller) writes those
// voltages via set_voltages, making this the plant the session core's
// processes drive.
#pragma once

#include "phy/channel.hpp"
#include "phy/link_state.hpp"
#include "sim/scene.hpp"

namespace cyclops::phy {

/// Builds the ChannelInfo an SFP spec implies (fixed-rate: goodput at or
/// above sensitivity, nothing below).  Shared with code that only needs
/// the table, not a live scene (e.g. bench/baseline_mmwave's Cyclops
/// side).
ChannelInfo make_sfp_info(const optics::SfpSpec& sfp);

class FsoChannel final : public Channel {
 public:
  /// Borrows `scene`; the adapter neither owns nor copies it, so scene
  /// mutations (occluders, config) are visible immediately.
  explicit FsoChannel(sim::Scene& scene);

  const ChannelInfo& info() const noexcept override { return info_; }

  /// Moves the rig and reads the fiber power at the applied voltages.
  double power_at(const geom::Pose& rig_pose, util::SimTimeUs t) override;

  double rate_for(double power_dbm) const override {
    return power_dbm >= info_.sensitivity ? info_.peak_rate_gbps : 0.0;
  }

  bool step(util::SimTimeUs now, double power_dbm) override {
    return state_.step(now, power_dbm);
  }

  void force_up() override { state_.force_up(); }

  /// The steering plane's write port: what the GMs currently hold.
  void set_voltages(const sim::Voltages& v) noexcept {
    applied_ = v;
    beam_tx_mounts_.reset();
  }
  const sim::Voltages& voltages() const noexcept { return applied_; }

  sim::Scene& scene() noexcept { return scene_; }

 private:
  sim::Scene& scene_;
  ChannelInfo info_;
  LinkStateMachine state_;
  sim::Voltages applied_{};
  /// The TX beam at the applied voltages and the tx_mounts() it was emitted
  /// at (empty after set_voltages); power_at re-emits when either moved.
  std::optional<optics::TracedBeam> beam_;
  std::optional<std::uint64_t> beam_tx_mounts_;
};

}  // namespace cyclops::phy
