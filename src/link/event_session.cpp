#include "link/event_session.hpp"

#include <algorithm>
#include <cassert>

#include "obs/config.hpp"
#include "session/lifecycle.hpp"

namespace cyclops::link {

// The session processes (detail::TrackerProcess / PlantProcess /
// SamplerProcess) and their shared SessionState live in
// link/session_core.{hpp,cpp}; this translation unit wires them into the
// exact-timing discipline: jittered capture events and DAQ+settle applies
// at their exact microseconds.

RunResult run_link_session_events(sim::Prototype& proto,
                                  core::TpController& controller,
                                  const motion::MotionProfile& profile,
                                  const runtime::Context& ctx,
                                  const SimOptions& options, SessionLog* log,
                                  EventSessionStats* stats) {
  phy::FsoChannel channel(proto.scene);
  detail::SessionState s{proto, controller, profile, options, log,
                         detail::SessionMetrics(ctx), channel,
                         /*pending=*/{}, util::us_from_s(profile.duration_s()),
                         /*result=*/{}, /*tally=*/{}};

  // §5.3 protocol: each run starts from an aligned link.
  detail::aligned_start(proto, controller, profile, channel, ctx.pool());

  // The context's clock (reset) is the session timeline.
  event::Scheduler sched(session::bind_session_clock(ctx));

  detail::PlantProcess plant(s);
  const event::ProcessId plant_id = sched.add_process(&plant);
  detail::TrackerProcess tracker(s, plant_id);
  const event::ProcessId tracker_id = sched.add_process(&tracker);
  tracker.set_self(tracker_id);
  detail::SamplerProcess sampler(s);
  const event::ProcessId sampler_id = sched.add_process(&sampler);
  sampler.set_self(sampler_id);

  // Seed the chains.  The tracker's first capture is scheduled before the
  // first slot so an equal-time tie dispatches report-before-sample, as
  // the legacy loop orders them.
  const util::SimTimeUs first_capture = proto.tracker.next_capture_time(0);
  if (first_capture < s.duration) {
    event::Event capture;
    capture.time = first_capture;
    capture.type = kEvReportCapture;
    capture.target = tracker_id;
    sched.schedule(capture);
  }
  if (s.duration > 0) {
    event::Event slot;
    slot.time = 0;
    slot.type = kEvSlotSample;
    slot.target = sampler_id;
    sched.schedule(slot);
  }
  sched.run();

  s.tally.finalize(s.result);
  s.result.tp_failures = controller.failures();
  s.result.avg_pointing_iterations = controller.avg_pointing_iterations();
  if (log) log->finish(s.result);
  const auto slots = static_cast<std::uint64_t>(s.tally.total_slots);
  if (stats) {
    stats->events = sched.dispatched();
    stats->scheduled = sched.scheduled();
    stats->slots = slots;
  }
  if constexpr (obs::kEnabled) {
    obs::Registry& registry = ctx.registry();
    registry.counter("session_slots_total").inc(slots);
    registry.counter("session_events_dispatched_total")
        .inc(sched.dispatched());
  }
  return s.result;
}

HandoverProcess::HandoverProcess(std::size_t num_tx, HandoverConfig config,
                                 event::Scheduler& sched,
                                 const runtime::Context& ctx, SessionLog* log)
    : config_(config), num_tx_(num_tx), sched_(sched), log_(log) {
  self_ = sched_.add_process(this);
  if constexpr (obs::kEnabled) {
    obs::Registry& registry = ctx.registry();
    m_started_ = &registry.counter("handover_started_total");
    m_switches_ = &registry.counter("handover_switches_total");
    m_cancelled_ = &registry.counter("handover_cancelled_total");
    m_switch_us_ = &registry.histogram("handover_switch_us",
                                       obs::HistogramSpec::duration_us());
    m_reacq_us_ = &registry.histogram("handover_reacq_us",
                                      obs::HistogramSpec::duration_us());
  }
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
      if constexpr (obs::kEnabled) {
        m_cancelled_->inc();
        m_reacq_us_->record(static_cast<double>(now - switch_started_at_));
      }
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
    if constexpr (obs::kEnabled) m_started_->inc();
    if (config_.switch_delay_s <= 0.0) {
      // Instant switch: with no delay there is no switching state to
      // leave (the slot-polled reference manager behaves the same).
      active_ = best;
      if constexpr (obs::kEnabled) {
        m_switches_->inc();
        m_switch_us_->record(0.0);
      }
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
  if constexpr (obs::kEnabled) {
    m_switches_->inc();
    m_switch_us_->record(static_cast<double>(sched.now() - switch_started_at_));
  }
  if (log_) {
    log_->on_event(sched.now(), SessionEventKind::kHandover, ev.f64);
  }
}

}  // namespace cyclops::link
