#include "link/handover.hpp"

#include <algorithm>

#include "link/session_core.hpp"

namespace cyclops::link {

HandoverProcess::HandoverProcess(std::size_t num_tx, HandoverConfig config,
                                 event::Scheduler& sched,
                                 const runtime::Context& ctx, SessionLog* log)
    : config_(config), num_tx_(num_tx), sched_(sched), log_(log) {
  self_ = sched_.add_process(this);
  obs::Registry& registry = ctx.registry();
  m_started_ = &registry.counter("handover_started_total");
  m_switches_ = &registry.counter("handover_switches_total");
  m_cancelled_ = &registry.counter("handover_cancelled_total");
  m_switch_us_ = &registry.histogram("handover_switch_us",
                                     obs::HistogramSpec::duration_us());
  m_reacq_us_ = &registry.histogram("handover_reacq_us",
                                    obs::HistogramSpec::duration_us());
}

int HandoverProcess::on_powers(std::span<const double> powers_dbm) {
  assert(powers_dbm.size() == num_tx_);
  if (num_tx_ == 0) return -1;
  const util::SimTimeUs now = sched_.now();

  if (switch_pending_) {
    const double active_power = powers_dbm[static_cast<std::size_t>(active_)];
    if (config_.cancel_on_reacquire && switch_drop_triggered_ &&
        active_power >= config_.drop_threshold_dbm &&
        sched_.cancel(switch_timer_)) {
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

  if (best != active_ && (active_lost || better)) {
    ++started_;
    m_started_->inc();
    if (config_.switch_delay_s <= 0.0) {
      // Instant switch: with no delay there is no switching state to
      // leave (the slot-polled reference manager behaves the same).
      active_ = best;
      m_switches_->inc();
      m_switch_us_->record(0.0);
      if (log_) log_->on_event(now, SessionEventKind::kHandover, *best_it);
      return active_;
    }
    switch_started_at_ = now;
    switch_pending_ = true;
    switch_drop_triggered_ = active_lost;
    pending_target_ = best;
    event::Event done;
    done.type = kEvSwitchDone;
    done.target = self_;
    done.i64 = best;
    done.f64 = *best_it;
    switch_timer_ =
        sched_.schedule_after(util::us_from_s(config_.switch_delay_s), done);
    return -1;
  }
  return active_;
}

void HandoverProcess::handle(event::Scheduler& sched, const event::Event& ev) {
  assert(ev.type == kEvSwitchDone);
  active_ = pending_target_;
  switch_pending_ = false;
  m_switches_->inc();
  m_switch_us_->record(static_cast<double>(sched.now() - switch_started_at_));
  if (log_) {
    log_->on_event(sched.now(), SessionEventKind::kHandover, ev.f64);
  }
}

}  // namespace cyclops::link
