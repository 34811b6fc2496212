#include "phy/fso_channel.hpp"

namespace cyclops::phy {

ChannelInfo make_sfp_info(const optics::SfpSpec& sfp) {
  ChannelInfo info;
  info.name = sfp.name;
  info.peak_rate_gbps = sfp.goodput_gbps;
  info.sensitivity = sfp.rx_sensitivity_dbm;
  info.rate_adaptive = false;
  return info;
}

FsoChannel::FsoChannel(sim::Scene& scene)
    : scene_(scene),
      info_(make_sfp_info(scene.config().sfp)),
      state_(scene.config().sfp.rx_sensitivity_dbm,
             util::us_from_s(scene.config().sfp.link_up_delay_s)) {}

double FsoChannel::power_at(const geom::Pose& rig_pose, util::SimTimeUs) {
  scene_.set_rig_pose(rig_pose);
  if (beam_tx_mounts_ != scene_.tx_mounts()) {
    beam_ = scene_.emit(applied_.tx1, applied_.tx2);
    beam_tx_mounts_ = scene_.tx_mounts();
  }
  return scene_.couple(beam_, scene_.capture(applied_.rx1, applied_.rx2))
      .power.rx_power_dbm;
}

}  // namespace cyclops::phy
