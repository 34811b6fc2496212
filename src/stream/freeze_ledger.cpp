#include "stream/freeze_ledger.hpp"

#include <algorithm>
#include <utility>


namespace cyclops::stream {

void FreezeLedger::set_obs(obs::Registry* registry, obs::Labels labels) {
  if (registry == nullptr) {
    m_offered_ = m_delivered_ = m_dropped_ = m_freezes_ = nullptr;
    m_latency_us_ = nullptr;
    return;
  }
  m_offered_ = &registry->counter("stream_frames_offered_total", labels);
  m_delivered_ = &registry->counter("stream_frames_delivered_total", labels);
  m_dropped_ = &registry->counter("stream_frames_dropped_total", labels);
  m_freezes_ = &registry->counter("stream_freezes_total", labels);
  m_latency_us_ = &registry->histogram("stream_delivery_latency_us",
                                       obs::HistogramSpec::duration_us(),
                                       std::move(labels));
}

void FreezeLedger::on_offered() {
  ++stats_.frames_offered;
  if (m_offered_ != nullptr) m_offered_->inc();
}

void FreezeLedger::on_dropped() {
  ++stats_.frames_dropped;
  ++current_drop_run_;
  if (current_drop_run_ == 2) {
    ++stats_.freeze_events;
    if (m_freezes_ != nullptr) m_freezes_->inc();
  }
  stats_.longest_freeze_frames =
      std::max(stats_.longest_freeze_frames, current_drop_run_);
  if (m_dropped_ != nullptr) m_dropped_->inc();
}

void FreezeLedger::on_delivered(util::SimTimeUs now, std::int64_t frame_id,
                                util::SimTimeUs render_time) {
  ++stats_.frames_delivered;
  stats_.last_delivered_id = frame_id;
  current_drop_run_ = 0;
  const double latency_ms = util::us_to_ms(now - render_time);
  latency_sum_ms_ += latency_ms;
  stats_.avg_delivery_latency_ms =
      latency_sum_ms_ / static_cast<double>(stats_.frames_delivered);
  stats_.max_delivery_latency_ms =
      std::max(stats_.max_delivery_latency_ms, latency_ms);
  if (m_delivered_ != nullptr) {
    m_delivered_->inc();
    m_latency_us_->record(static_cast<double>(now - render_time));
  }
}

}  // namespace cyclops::stream
