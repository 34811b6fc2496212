#include "stream/rate_adapter.hpp"

#include <algorithm>
#include <cmath>


namespace cyclops::stream {

const char* to_string(EncoderMode mode) noexcept {
  return mode == EncoderMode::kRaw ? "raw" : "compressed";
}

void EncoderRateAdapter::set_obs(obs::Registry* registry) {
  if (registry == nullptr) {
    m_switch_to_raw_ = m_switch_to_compressed_ = nullptr;
    m_dwell_raw_us_ = m_dwell_compressed_us_ = nullptr;
    return;
  }
  m_switch_to_raw_ =
      &registry->counter("adaptive_switches_total", {{"to", "raw"}});
  m_switch_to_compressed_ =
      &registry->counter("adaptive_switches_total", {{"to", "compressed"}});
  m_dwell_raw_us_ = &registry->histogram(
      "adaptive_mode_dwell_us", obs::HistogramSpec::duration_us(),
      {{"mode", "raw"}});
  m_dwell_compressed_us_ = &registry->histogram(
      "adaptive_mode_dwell_us", obs::HistogramSpec::duration_us(),
      {{"mode", "compressed"}});
}

EncoderMode EncoderRateAdapter::step(util::SimTimeUs now,
                                     double capacity_gbps) {
  const double dt =
      last_step_ == 0 ? 1e-3 : util::us_to_s(now - last_step_);
  last_step_ = now;

  // How satisfied is the *raw* demand right now?  (Judge against raw so
  // the adapter can tell when an upgrade would succeed.)
  const double satisfied =
      std::clamp(capacity_gbps / policy_.raw_rate_gbps, 0.0, 1.0);
  const double alpha =
      1.0 - std::exp(-dt / util::us_to_s(policy_.window));
  satisfied_ema_ += alpha * (satisfied - satisfied_ema_);

  const bool dwell_ok = now - last_switch_ >= policy_.min_dwell;
  if (mode_ == EncoderMode::kRaw &&
      satisfied_ema_ < policy_.downgrade_threshold && dwell_ok) {
    if (m_dwell_raw_us_ != nullptr) {
      m_dwell_raw_us_->record(static_cast<double>(now - last_switch_));
      m_switch_to_compressed_->inc();
    }
    mode_ = EncoderMode::kCompressed;
    ++switches_;
    last_switch_ = now;
  } else if (mode_ == EncoderMode::kCompressed &&
             satisfied_ema_ > policy_.upgrade_threshold && dwell_ok) {
    if (m_dwell_compressed_us_ != nullptr) {
      m_dwell_compressed_us_->record(static_cast<double>(now - last_switch_));
      m_switch_to_raw_->inc();
    }
    mode_ = EncoderMode::kRaw;
    ++switches_;
    last_switch_ = now;
  }
  return mode_;
}

}  // namespace cyclops::stream
