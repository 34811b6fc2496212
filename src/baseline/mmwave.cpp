#include "baseline/mmwave.hpp"

#include <cmath>

#include "util/units.hpp"

namespace cyclops::baseline {

const std::vector<McsEntry>& mcs_table() {
  // 802.11ad single-carrier MCS 1-12 (SNR thresholds are typical
  // evaluation values; rates from the standard).
  static const std::vector<McsEntry> table = {
      {1.0, 0.385},  {2.5, 0.770},  {4.0, 0.9625}, {5.0, 1.155},
      {6.0, 1.5400}, {7.5, 1.925},  {9.0, 2.3100}, {10.5, 2.695},
      {12.0, 3.080}, {13.5, 3.850}, {15.0, 4.620}, {17.5, 6.7565},
  };
  return table;
}

double MmWaveLink::noise_floor_dbm() const {
  return -174.0 + 10.0 * std::log10(config_.bandwidth_ghz * 1e9) +
         config_.noise_figure_db;
}

double MmWaveLink::snr_db(double range, bool blocked) const {
  const double wavelength = 3e8 / (config_.carrier_ghz * 1e9);
  const double fspl =
      20.0 * std::log10(4.0 * util::kPi * std::max(range, 0.01) / wavelength);
  double rx = config_.tx_power_dbm + config_.tx_antenna_gain_dbi +
              config_.rx_antenna_gain_dbi - fspl -
              config_.implementation_loss_db;
  if (blocked) rx -= config_.blockage_loss_db;
  return rx - noise_floor_dbm();
}

int mcs_index_for(double snr_db) {
  int index = 0;
  const auto& table = mcs_table();
  for (std::size_t i = 0; i < table.size(); ++i) {
    if (snr_db >= table[i].min_snr_db) index = static_cast<int>(i) + 1;
  }
  return index;
}

double MmWaveLink::phy_rate_gbps(double snr) const {
  double rate = 0.0;
  for (const auto& entry : mcs_table()) {
    if (snr >= entry.min_snr_db) rate = entry.phy_rate_gbps;
  }
  return rate;
}

bool BeamTrainingState::step(util::SimTimeUs now, double orientation_rad) {
  if (now < retrain_done_) return true;
  if (std::abs(orientation_rad - trained_at_rad_) > beamwidth_rad_ * 0.5) {
    trained_at_rad_ = orientation_rad;
    retrain_done_ = now + retrain_us_;
    ++retrains_;
    return true;
  }
  return false;
}

}  // namespace cyclops::baseline
