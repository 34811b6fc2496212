#include "link/handover.hpp"

#include <algorithm>

namespace cyclops::link {

Handover::Handover(std::size_t num_tx, HandoverConfig config,
                   const runtime::Context& ctx, SessionLog* log)
    : config_(config),
      num_tx_(num_tx),
      delay_(util::us_from_s(config.switch_delay_s)),
      log_(log) {
  obs::Registry& registry = ctx.registry();
  m_started_ = &registry.counter("handover_started_total");
  m_switches_ = &registry.counter("handover_switches_total");
  m_cancelled_ = &registry.counter("handover_cancelled_total");
  m_switch_us_ = &registry.histogram("handover_switch_us",
                                     obs::HistogramSpec::duration_us());
  m_reacq_us_ = &registry.histogram("handover_reacq_us",
                                    obs::HistogramSpec::duration_us());
}

void Handover::advance(util::SimTimeUs now) {
  const util::SimTimeUs due = switch_started_at_ + delay_;
  if (!switch_pending_ || now < due) return;
  active_ = pending_target_;
  switch_pending_ = false;
  ++switches_;
  m_switches_->inc();
  m_switch_us_->record(static_cast<double>(delay_));
  if (log_) log_->on_event(due, SessionEventKind::kHandover, pending_power_);
}

int Handover::on_powers(util::SimTimeUs now,
                        std::span<const double> powers_dbm,
                        std::span<const double> levels_dbm) {
  assert(powers_dbm.size() == num_tx_);
  assert(levels_dbm.empty() || levels_dbm.size() == num_tx_);
  assert(!switch_pending_ || now < switch_started_at_ + delay_);
  if (num_tx_ == 0) return -1;

  if (switch_pending_) {
    const double active_power = powers_dbm[static_cast<std::size_t>(active_)];
    if (config_.cancel_on_reacquire && switch_drop_triggered_ &&
        active_power >= config_.drop_threshold_dbm) {
      switch_pending_ = false;
      ++cancelled_;
      m_cancelled_->inc();
      m_reacq_us_->record(static_cast<double>(now - switch_started_at_));
      if (log_) {
        log_->on_event(now, SessionEventKind::kReacquisition, active_power);
      }
      return active_;
    }
    return -1;
  }

  const auto best_it =
      std::max_element(powers_dbm.begin(), powers_dbm.end());
  const int best = static_cast<int>(best_it - powers_dbm.begin());
  const double active_power = powers_dbm[static_cast<std::size_t>(active_)];
  const bool active_lost = active_power < config_.drop_threshold_dbm;
  const bool better = *best_it > active_power + config_.hysteresis_db;

  // Never onto a TX that is itself below the drop threshold: a switch
  // there would pay the whole delay to serve from a dead TX.
  const std::span<const double> levels =
      levels_dbm.empty() ? powers_dbm : levels_dbm;
  if (best != active_ &&
      levels[static_cast<std::size_t>(best)] >= config_.drop_threshold_dbm &&
      (active_lost || better)) {
    ++started_;
    m_started_->inc();
    if (config_.switch_delay_s <= 0.0) {
      // Instant switch: with no delay there is no switching state to
      // leave (the slot-polled reference manager behaves the same).
      active_ = best;
      ++switches_;
      m_switches_->inc();
      m_switch_us_->record(0.0);
      if (log_) log_->on_event(now, SessionEventKind::kHandover, *best_it);
      return active_;
    }
    switch_started_at_ = now;
    switch_pending_ = true;
    switch_drop_triggered_ = active_lost;
    pending_target_ = best;
    pending_power_ = *best_it;
    return -1;
  }
  return active_;
}

}  // namespace cyclops::link
