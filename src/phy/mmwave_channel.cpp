#include "phy/mmwave_channel.hpp"

#include <string>

#include "geom/pose.hpp"

namespace cyclops::phy {
namespace {

ChannelInfo make_mmwave_info(const baseline::MmWaveConfig& radio) {
  ChannelInfo info;
  info.name = "mmwave-60ghz";
  info.peak_rate_gbps =
      baseline::mcs_table().back().phy_rate_gbps * radio.mac_efficiency;
  info.sensitivity = baseline::mcs_table().front().min_snr_db;
  info.rate_adaptive = true;
  return info;
}

}  // namespace

MmWaveChannel::MmWaveChannel(MmWaveChannelConfig config,
                             const runtime::Context& ctx)
    : config_(std::move(config)),
      link_(config_.radio),
      training_(config_.radio),
      info_(make_mmwave_info(config_.radio)) {
  registry_ = &ctx.registry();
  m_retrains_ = &registry_->counter("mmwave_retrains_total");
  m_retrain_slots_ = &registry_->counter("mmwave_retrain_slots_total");
  m_blocked_slots_ = &registry_->counter("mmwave_blocked_slots_total");
  m_blockage_us_ = &registry_->histogram("mmwave_blockage_us",
                                         obs::HistogramSpec::duration_us());
}

double MmWaveChannel::power_at(const geom::Pose& rig_pose, util::SimTimeUs t) {
  if (have_pose_) {
    cum_rotation_rad_ += geom::rotation_distance(last_pose_, rig_pose);
  }
  last_pose_ = rig_pose;
  have_pose_ = true;
  last_blocked_ = config_.blockage && config_.blockage(t);
  const double range =
      geom::distance(rig_pose.translation(), config_.ap_position);
  return link_.snr_db(range, last_blocked_);
}

double MmWaveChannel::rate_for(double snr_db) const {
  return link_.phy_rate_gbps(snr_db) * config_.radio.mac_efficiency;
}

bool MmWaveChannel::step(util::SimTimeUs now, double snr_db) {
  // Cumulative head rotation drives retraining; the SNR drives the MCS
  // dwell accounting.
  const int before = training_.retrains();
  const bool retraining = training_.step(now, cum_rotation_rad_);
  record_mcs(now, retraining ? 0 : baseline::mcs_index_for(snr_db));
  if (training_.retrains() > before) m_retrains_->inc();
  if (retraining) m_retrain_slots_->inc();
  if (last_blocked_) m_blocked_slots_->inc();
  if (blocked_state_ != 1 && last_blocked_) blocked_since_ = now;
  if (blocked_state_ == 1 && !last_blocked_) {
    m_blockage_us_->record(static_cast<double>(now - blocked_since_));
  }
  blocked_state_ = last_blocked_ ? 1 : 0;
  return !retraining && snr_db >= info_.sensitivity;
}

void MmWaveChannel::record_mcs(util::SimTimeUs now, int mcs) {
  if (mcs == cur_mcs_) return;
  if (cur_mcs_ >= 0 && now > mcs_since_) {
    // Dwell histograms are keyed per rung; transitions are rare, so the
    // get-or-create lookup stays off the hot path.
    registry_
        ->histogram("mmwave_mcs_dwell_us", obs::HistogramSpec::duration_us(),
                    {{"mcs", std::to_string(cur_mcs_)}})
        .record(static_cast<double>(now - mcs_since_));
  }
  cur_mcs_ = mcs;
  mcs_since_ = now;
}

void MmWaveChannel::finish(util::SimTimeUs now) {
  record_mcs(now, -1);
  if (blocked_state_ == 1) {
    m_blockage_us_->record(static_cast<double>(now - blocked_since_));
    blocked_state_ = 0;
  }
}

}  // namespace cyclops::phy
