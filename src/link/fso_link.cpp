#include "link/fso_link.hpp"

#include "event/scheduler.hpp"
#include "link/session_core.hpp"
#include "link/session_log.hpp"
#include "obs/registry.hpp"
#include "phy/fso_channel.hpp"
#include "session/lifecycle.hpp"

namespace cyclops::link {
namespace {

/// Hoisted session-plane metric handles, looked up once per session.
struct SessionMetrics {
  obs::Counter* realignments = nullptr;
  obs::Counter* tp_failures = nullptr;
  obs::Histogram* realign_latency_us = nullptr;
  obs::Histogram* link_off_us = nullptr;

  explicit SessionMetrics(const runtime::Context& ctx) {
    obs::Registry& registry = ctx.registry();
    realignments = &registry.counter("session_realignments_total");
    tp_failures = &registry.counter("session_tp_failures_total");
    realign_latency_us = &registry.histogram(
        "session_realign_latency_us", obs::HistogramSpec::duration_us());
    link_off_us = &registry.histogram("session_link_off_us",
                                      obs::HistogramSpec::duration_us());
  }
};

/// One slot of the closed loop: the steering step, then the optics
/// read-out, the SFP state machine and the window accounting.
class LinkSlotProcess final : public event::Process {
 public:
  LinkSlotProcess(sim::Prototype& proto, core::TpController& controller,
                  phy::FsoChannel& channel,
                  const motion::MotionProfile& profile,
                  const runtime::Context& ctx, const SimOptions& options,
                  SessionLog* log, util::SimTimeUs duration, RunResult& result)
      : steering_(proto, controller, channel, profile, log),
        channel_(channel),
        profile_(profile),
        options_(options),
        log_(log),
        metrics_(ctx),
        duration_(duration),
        result_(result) {}

  void set_self(event::ProcessId self) noexcept { self_ = self; }

  void handle(event::Scheduler& sched, const event::Event& ev) override {
    const util::SimTimeUs now = ev.time;
    const geom::Pose pose = profile_.pose_at(now);

    const detail::SteerResult steer = steering_.step(now, pose);
    if (steer.queued) {
      ++result_.realignments;
      metrics_.realignments->inc();
      metrics_.realign_latency_us->record(
          static_cast<double>(steer.apply_time - now));
    } else if (steer.tp_failed) {
      if (log_) {
        log_->on_event(steer.delivery_time, SessionEventKind::kTpFailure);
      }
      metrics_.tp_failures->inc();
    }

    const double power = channel_.power_at(pose, now);
    const bool up = channel_.step(now, power);
    if (options_.on_slot) options_.on_slot(now, up, power);
    if (log_) log_->on_slot(now, up, power);
    // Contiguous down spans, measured slot-edge to slot-edge.
    if (prev_up_ != 0 && !up) down_since_ = now;
    if (prev_up_ == 0 && up) {
      metrics_.link_off_us->record(static_cast<double>(now - down_since_));
    }
    prev_up_ = up ? 1 : 0;

    const phy::ChannelInfo& info = channel_.info();
    tally_.add_slot(power, up, info.sensitivity,
                    up ? info.peak_rate_gbps : 0.0);
    if (tally_.window_closes(now, options_.step, options_.window,
                             duration_)) {
      result_.windows.push_back(
          tally_.flush(profile_, now, options_.step, options_.window,
                       info.peak_rate_gbps, info.rate_adaptive));
    }
    if (now + options_.step < duration_) {
      event::Event slot;
      slot.time = now + options_.step;
      slot.type = kEvSlotSample;
      slot.target = self_;
      sched.schedule(slot);
    }
  }

  void finalize() { tally_.finalize(result_); }
  int total_slots() const noexcept { return tally_.total_slots; }

 private:
  detail::SteeringPlane steering_;
  phy::FsoChannel& channel_;
  const motion::MotionProfile& profile_;
  const SimOptions& options_;
  SessionLog* log_;
  SessionMetrics metrics_;
  util::SimTimeUs duration_;
  RunResult& result_;
  detail::WindowTally tally_;
  event::ProcessId self_ = event::kNoProcess;
  // -1 until the first slot fixes the initial link state.
  int prev_up_ = -1;
  util::SimTimeUs down_since_ = 0;
};

}  // namespace

RunResult run_link_simulation(sim::Prototype& proto,
                              core::TpController& controller,
                              const motion::MotionProfile& profile,
                              const runtime::Context& ctx,
                              const SimOptions& options, SessionLog* log,
                              EventSessionStats* stats) {
  RunResult result;
  phy::FsoChannel channel(proto.scene);
  const util::SimTimeUs duration = util::us_from_s(profile.duration_s());

  // §5.3 protocol: each run starts from an aligned link.
  detail::aligned_start(proto, controller, profile, channel, ctx.pool());

  event::Scheduler sched(session::bind_session_clock(ctx));
  LinkSlotProcess slots(proto, controller, channel, profile, ctx, options,
                        log, duration, result);
  const event::ProcessId slots_id = sched.add_process(&slots);
  slots.set_self(slots_id);
  if (duration > 0) {
    event::Event first;
    first.time = 0;
    first.type = kEvSlotSample;
    first.target = slots_id;
    sched.schedule(first);
  }
  sched.run_single(slots);
  slots.finalize();

  result.tp_failures = controller.failures();
  result.avg_pointing_iterations = controller.avg_pointing_iterations();
  if (log) log->finish(result);
  const auto slot_count = static_cast<std::uint64_t>(slots.total_slots());
  if (stats) {
    stats->events = sched.dispatched();
    stats->scheduled = sched.scheduled();
    stats->slots = slot_count;
  }
  obs::Registry& registry = ctx.registry();
  registry.counter("session_slots_total").inc(slot_count);
  registry.counter("session_events_dispatched_total").inc(sched.dispatched());
  return result;
}

}  // namespace cyclops::link
